import math
import warnings

import numpy as np
import pytest
from conftest import random_complex, svd_norm

from opnorm import estimator
from opnorm.core import INF, as_exponent, as_matrix, dual_exponent, vec_norm
from opnorm.estimator import (
    CertificateError,
    _ascent_starts,
    ascent_lower_bound,
    best_lower_bound,
    certified_bound,
    eigen_lower_bound,
    oracle_norm,
    oracle_search,
)
from opnorm.exact import anchor_norms
from opnorm.structured import Circulant, HankelMod, UnitaryPermutation, densify, magic3

_NORM2_1234 = math.sqrt(15.0 + math.sqrt(221.0))


def test_ascent_matches_two_norm():
    assert ascent_lower_bound([[1, 2], [3, 4]], 2).value == pytest.approx(_NORM2_1234, rel=1e-10)
    rng = np.random.default_rng(50)
    for _ in range(10):
        A = random_complex(rng, 5, 5)
        assert ascent_lower_bound(A, 2).value == pytest.approx(svd_norm(A), rel=1e-9)


def test_ascent_anchor_exponents_exact():
    a = anchor_norms([[1, 2], [3, 4]])
    assert ascent_lower_bound([[1, 2], [3, 4]], 1).value == a.n1
    assert ascent_lower_bound([[1, 2], [3, 4]], INF).value == pytest.approx(a.ninf, rel=1e-15)


def test_ascent_self_certifies():
    rng = np.random.default_rng(51)
    for p in (1.0, 1.3, 2.0, 2.7, 5.0, INF):
        A = random_complex(rng, 4, 4)
        res = ascent_lower_bound(A, p)
        ratio = vec_norm(A @ res.maximizer, p) / vec_norm(res.maximizer, p)
        assert abs(res.value - ratio) <= 1e-10 * max(1.0, ratio)


def test_ascent_trace_monotone():
    rng = np.random.default_rng(52)
    A = random_complex(rng, 6, 6)
    res = ascent_lower_bound(A, 3.5)
    assert all(b >= a * (1 - 1e-12) for a, b in zip(res.objective_trace, res.objective_trace[1:]))
    assert res.converged
    assert res.objective_trace[-1] == res.value


def test_ascent_dual_consistency():
    rng = np.random.default_rng(53)
    for _ in range(5):
        A = random_complex(rng, 4, 4)
        for p in (1.3, 1.6):
            v = ascent_lower_bound(A, p).value
            w = ascent_lower_bound(np.conj(A.T), dual_exponent(p)).value
            assert v == pytest.approx(w, rel=1e-8)


def test_ascent_validation():
    with pytest.raises(ValueError):
        ascent_lower_bound(np.ones((2, 3)), 2)
    with pytest.raises(ValueError):
        ascent_lower_bound(np.eye(2), 2, restarts=0)


def test_ascent_zero_matrix():
    res = ascent_lower_bound(np.zeros((3, 3)), 2.5)
    assert res.value == 0.0


def test_ascent_more_restarts_never_lower():
    # the starts of k restarts are the first columns of the block for k + 1
    rng = np.random.default_rng(56)
    for n in (3, 4, 6, 9):
        for A in (rng.standard_normal((n, n)), random_complex(rng, n, n)):
            for p in (1.5, 3.0):
                vals = [ascent_lower_bound(A, p, restarts=k).value for k in range(1, 10)]
                assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))


def _loop_ascent(M, p, x):
    """Reference for p >= 2: one start at a time, as a plain vector loop."""
    q = dual_exponent(p)
    x = x / vec_norm(x, p)
    prev = None
    for _ in range(500):
        y = M @ x
        obj = vec_norm(y, p)
        if obj == 0.0 or (prev is not None and obj - prev <= 1e-12 * prev):
            break
        prev = obj
        u = np.abs(y) ** (p - 1) * np.exp(1j * np.angle(y))
        z = np.conj(M.T) @ u
        x = np.abs(z) ** (q.value - 1) * np.exp(1j * np.angle(z))
        x = x / vec_norm(x, p)
    return vec_norm(M @ x, p)


def test_block_ascent_matches_a_loop_over_its_starts():
    rng = np.random.default_rng(57)
    for n in (3, 5, 8):
        for A in (rng.standard_normal((n, n)), random_complex(rng, n, n)):
            for p in (2.5, 4.0):
                starts = _ascent_starts(as_matrix(A), as_exponent(p), 8, 0)
                want = max(_loop_ascent(A, p, x) for x in starts.T)
                assert ascent_lower_bound(A, p).value == pytest.approx(want, rel=1e-9)


def test_ascent_capped_columns_report_their_last_step(monkeypatch):
    monkeypatch.setattr(estimator, "_ASCENT_MAX_ITER", 3)
    A = random_complex(np.random.default_rng(58), 6, 6)
    res = ascent_lower_bound(A, 3.0)
    assert (res.iterations, res.converged) == (3, False)
    assert len(res.objective_trace) == 4 and res.objective_trace[-1] == res.value
    assert res.value == pytest.approx(vec_norm(A @ res.maximizer, 3.0), rel=1e-12)


def test_ascent_nilpotent_column_freezes_at_zero():
    # A = u v^T with v orthogonal to u and to the ones vector: A^2 = 0 and
    # the ones start lands on a zero objective at once
    u = np.array([2.0, 1.0, 1.0, 2.0])
    v = np.array([1.0, -1.0, 1.0, -1.0])
    A = np.outer(u, v)
    only_ones = ascent_lower_bound(A, 3.0, restarts=1)
    assert only_ones.value == 0.0 and only_ones.converged and only_ones.iterations == 1
    for p in (1.5, 3.0):
        want = vec_norm(u, p) * vec_norm(v, dual_exponent(p))
        assert ascent_lower_bound(A, p).value == pytest.approx(want, rel=1e-9)


def test_ascent_overflow_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            ascent_lower_bound([[1e308, 1e308], [1e308, -1e308]], 3)


def test_eigen_lower_bound_accepts_circulant_pair():
    c = np.array([1.0, 2.0, 1j])
    C = densify(Circulant(c))
    w = np.exp(2j * np.pi / 3)
    xi = w ** np.arange(3)
    lam = complex((c * w ** np.arange(3)).sum())
    S = UnitaryPermutation((0, 1, 2), np.ones(3))
    assert eigen_lower_bound(C, xi, S, lam) == pytest.approx(abs(lam), rel=1e-15)


def test_eigen_lower_bound_rejects():
    C = densify(Circulant([1.0, 2.0, 1j]))
    xi = np.exp(2j * np.pi / 3) ** np.arange(3)
    S = UnitaryPermutation((0, 1, 2), np.ones(3))
    with pytest.raises(CertificateError):
        eigen_lower_bound(C, xi, S, 99.0)
    with pytest.raises(CertificateError):
        eigen_lower_bound(C, np.zeros(3), S, 1.0)
    with pytest.raises(CertificateError):
        eigen_lower_bound(C, xi, np.eye(3), 1.0)  # S must be structured
    with pytest.raises(ValueError):
        eigen_lower_bound(C, np.ones(2), S, 1.0)


def test_oracle_frozen_values():
    assert oracle_norm(np.eye(2), 3.7) == pytest.approx(1.0, rel=1e-9)
    # LA matrix with envelope 2^(1 - 1/p)
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert oracle_norm(A, 3) == pytest.approx(2.0 ** (2 / 3), rel=1e-8)
    assert oracle_norm(A, 2) == pytest.approx(math.sqrt(2.0), rel=1e-8)


def test_oracle_matches_two_norm_3x3():
    rng = np.random.default_rng(54)
    A = rng.standard_normal((3, 3))
    assert oracle_norm(A, 2) == pytest.approx(svd_norm(A), rel=1e-7)


def test_oracle_search_returns_attaining_direction():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    value, angles, d = oracle_search(A, 2.5)
    assert len(angles) == 1
    assert vec_norm(A @ d, 2.5) / vec_norm(d, 2.5) == pytest.approx(value, rel=1e-12)


def test_oracle_validation():
    with pytest.raises(ValueError):
        oracle_norm(np.eye(4), 2)
    with pytest.raises(ValueError):
        oracle_norm(np.array([[1j, 0], [0, 1]]), 2)
    with pytest.raises(ValueError):
        oracle_norm(np.eye(2), 2, resolution=100)


def test_best_lower_bound_prefers_anchor_tag_on_tie():
    v, tag = best_lower_bound(magic3(), 1, anchors=anchor_norms(magic3()))
    assert v == 15.0 and tag == "anchor"
    v, tag = best_lower_bound([[1, 2], [3, 4]], 1.5)
    assert tag == "boyd" and v > 0


def test_certified_bound_exact_cases():
    for p in (1, 1.5, 2, 4, INF):
        b = certified_bound(np.diag([1.0, 2.0]), p)
        assert (b.lower, b.upper) == (2.0, 2.0)
        m = certified_bound(magic3(), p)
        assert m.lower == pytest.approx(15.0, rel=1e-12)
        assert m.upper == pytest.approx(15.0, rel=1e-12)
        assert m.lower_provenance == "ones-vector"
    b = certified_bound([[3 + 4j]], 2.2)
    assert (b.lower, b.upper) == (5.0, 5.0)


def test_certified_bound_circulant_branches():
    # log-affine circulant: exact at every exponent
    b = certified_bound(densify(Circulant([1.0, 2.0, 3.0])), 1.8)
    assert (b.lower, b.upper) == (6.0, 6.0)
    # non-LA circulant: spectral certificate holds at every exponent
    C = densify(Circulant([1.0, 1j]))
    spectral = math.sqrt(2.0)
    for p in (1.3, 2.0, 3.0):
        b = certified_bound(C, p)
        assert b.lower >= spectral * (1 - 1e-12)
        assert b.upper <= 2.0 * (1 + 1e-12)
        assert b.lower <= b.upper


def test_certified_bound_hankel_delegates_to_circulant_factor():
    coeffs = [1.0, 2.0, 5.0, 0.5]
    for p in (1.25, 2.0, 6.0):
        bh = certified_bound(densify(HankelMod(coeffs)), p)
        bc = certified_bound(densify(Circulant(coeffs)), p)
        assert (bh.lower, bh.upper) == (bc.lower, bc.upper)
        assert (bh.lower_provenance, bh.upper_provenance) == (bc.lower_provenance, bc.upper_provenance)


def test_certified_bound_tensor_factorization():
    T4 = np.array([[1, 3, 2, 6], [3, 1, 6, 2], [-1, -3, -2, -6], [-3, -1, -6, -2]], dtype=float)
    for p in (1.0, 1.5, 2.0, 4.0, INF):
        pe = dual_exponent(dual_exponent(p))  # normalize to Exponent
        want = 4.0 * vec_norm([1.0, -1.0], pe) * vec_norm([1.0, 2.0], dual_exponent(pe))
        b = certified_bound(T4, p)
        assert b.lower == pytest.approx(want, rel=1e-12)
        assert b.upper == pytest.approx(want, rel=1e-12)


def test_certified_bound_direct_sum_takes_max():
    M = np.zeros((4, 4))
    M[:2, :2] = [[1.0, 2.0], [3.0, 4.0]]
    M[2:, 2:] = [[8.0, 0.0], [0.0, 1.0]]
    b = certified_bound(M, 2)
    assert (b.lower, b.upper) == (8.0, 8.0)
    b1 = certified_bound(M, 3.1)
    parts = [certified_bound(M[:2, :2], 3.1), certified_bound(M[2:, 2:], 3.1)]
    assert b1.lower == max(q.lower for q in parts)
    assert b1.upper == max(q.upper for q in parts)


def test_certified_bound_general_interval_is_ordered():
    rng = np.random.default_rng(55)
    for _ in range(10):
        A = random_complex(rng, 5, 5)
        for p in (1.25, 2.6, 7.0):
            b = certified_bound(A, p)
            assert 0.0 <= b.lower <= b.upper
            assert b.lower_provenance in ("boyd", "anchor", "eigen-certificate")


def test_certified_bound_zero_matrix():
    b = certified_bound(np.zeros((3, 3)), 2.5)
    assert (b.lower, b.upper) == (0.0, 0.0)


def test_certified_bound_validation():
    with pytest.raises(ValueError):
        certified_bound(np.ones((2, 3)), 2)
