"""Scale invariance: every verdict and every bound follows the matrix's scale.

``analyze`` scales the matrix once, by the power of two that brings its
largest modulus into [1, 2), and scales every end back; the recognizers'
tolerances are relative to the largest modulus.  So ``s * A`` gets the rule
of ``A`` and bounds ``s`` times those of ``A`` from 1e-310 up to 1e307,
where magic3's norm is 1.5e308.  Where a subnormal-scale check is held to
1e-12, the reference is the same matrix brought back to modulus 1 by an
exact power of two.
"""

import math

import numpy as np
import pytest
from conftest import random_complex

from opnorm.core import INF
from opnorm.estimator import (CertificateError, analyze, certified_bound, eigen_lower_bound,
                              oracle_norm)
from opnorm.exact import AnchorNorms
from opnorm.interp import _unimodal, profile
from opnorm.structured import Circulant, UnitaryPermutation, densify, magic3

_SCALES = (1e-310, 1e-309, 1e-300, 1e-150, 1e-13, 1.0, 1e150, 1e300, 1e307)


def _aligned_circulant(n: int = 5) -> np.ndarray:
    rng = np.random.default_rng(61)
    mods = rng.uniform(0.5, 2.0, n)
    omega = np.exp(-2j * np.pi * 2 / n)
    return densify(Circulant(np.exp(0.7j) * mods * omega ** np.arange(n)))


def _inputs():
    rng = np.random.default_rng(60)
    return {
        "complex": random_complex(rng, 5, 5),
        "nonnegative": rng.uniform(0.0, 1.0, (5, 5)),
        "magic3": magic3(),
        "aligned-circulant": _aligned_circulant(),
    }


@pytest.mark.parametrize("name", ["complex", "nonnegative", "magic3", "aligned-circulant"])
@pytest.mark.parametrize("s", _SCALES)
def test_scaled_matrix_keeps_rule_and_scales_bounds(name, s):
    A = _inputs()[name]
    base, scaled = analyze(A), analyze(s * A)
    assert scaled.rule == base.rule
    for p, tol in ((1.0, 1e-12), (2.0, 1e-10), (INF, 1e-12)):
        ref = float(np.linalg.norm(s * A, ord=p.value if p is INF else p))
        b = scaled.bound(p)
        assert b.lower <= ref * (1 + tol) and b.upper >= ref * (1 - tol)
    for p in (1.5, 3.0):
        want, got = base.bound(p), scaled.bound(p)
        assert got.lower == pytest.approx(s * want.lower, rel=1e-9)
        assert got.upper == pytest.approx(s * want.upper, rel=1e-9)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("p", [1.0, INF])
def test_tiny_matrix_is_not_taken_for_a_circulant(n, p):
    rng = np.random.default_rng(62 + n)
    C = 1e-13 * random_complex(rng, n, n)
    assert analyze(C).rule == "general"
    b = certified_bound(C, p)
    ref = float(np.linalg.norm(C, ord=p.value if p is INF else p))
    assert b.lower <= ref * (1 + 1e-12) and b.upper >= ref * (1 - 1e-12)


def test_huge_real_matrix_gets_a_general_interval():
    R = np.random.default_rng(63).standard_normal((5, 5))
    b = certified_bound(1e300 * R, 3)
    want = certified_bound(R, 3)
    assert b.lower == pytest.approx(1e300 * want.lower, rel=1e-9)
    assert b.upper == pytest.approx(1e300 * want.upper, rel=1e-9)


#: Once raised "ascent iterates must be finite" at 1e-308 (p = 1.5) and, from
#: the tensor fit, "vector entries must be finite" at 1e-310.
_SPARSE = np.array([[0.3, 0.0, 1.5], [-0.5, 0.0, 0.0], [-0.2, -0.7, 0.0]])


@pytest.mark.parametrize("s", [1e-308, 1e-310])
@pytest.mark.parametrize("A", [_SPARSE, np.abs(_SPARSE) + 0.1], ids=["signed", "nonnegative"])
def test_subnormal_scale_bounds_follow_the_unit_scale(A, s):
    M = s * A
    k = 1 - math.frexp(float(np.abs(M).max()))[1]
    unit = np.ldexp(M, k)  # exact: the entries of M only move up
    for p in (1.5, 3.0):
        want, got = certified_bound(unit, p), certified_bound(M, p)
        assert got.upper_provenance == want.upper_provenance
        assert got.lower == pytest.approx(math.ldexp(want.lower, -k), rel=1e-12)
        assert got.upper == pytest.approx(math.ldexp(want.upper, -k), rel=1e-12)
        truth = math.ldexp(oracle_norm(unit, p), -k)
        assert got.lower <= truth * (1 + 1e-12) and got.upper >= truth * (1 - 1e-12)


def test_anchor_midpoint_at_extreme_scales():
    for v in (1e-200, 1e-160, 1e160, 1e200):
        assert AnchorNorms(v, v, v).geometric_midpoint == pytest.approx(v, rel=1e-15)
    assert AnchorNorms(15.0, 15.0, 15.0).geometric_midpoint == 15.0


@pytest.mark.parametrize("s", [1e-310, 1e-150, 1.0, 1e300])
def test_eigen_certificate_residual_is_relative(s):
    identity = UnitaryPermutation((0, 1), np.ones(2))
    assert eigen_lower_bound(s * np.eye(2), [1.0, 0.0], identity, s) == s
    with pytest.raises(CertificateError):
        eigen_lower_bound(s * np.eye(2), [1.0, 0.0], identity, 2.0 * s)
    c = np.array([1.0, 2.0, 1j])
    w = np.exp(2j * np.pi / 3) ** np.arange(3)
    lam = s * complex((c * w).sum())
    shift = UnitaryPermutation((0, 1, 2), np.ones(3))
    C = densify(Circulant(s * c))
    assert eigen_lower_bound(C, w, shift, lam) == pytest.approx(abs(lam), rel=1e-12)
    with pytest.raises(CertificateError):
        eigen_lower_bound(C, w, shift, 1.5 * lam)


@pytest.mark.parametrize("s", [1e-300, 1e-150, 1e-12, 1.0, 1e150, 1e300])
def test_unimodal_verdict_follows_no_scale(s):
    assert not _unimodal([s * v for v in (1.0, 2.0, 1.0, 2.0)])
    assert _unimodal([s * v for v in (3.0, 2.0, 1.0, 1.0, 2.0)])


@pytest.mark.parametrize("name", ["complex", "nonnegative", "magic3", "aligned-circulant"])
def test_scaled_profile_keeps_unimodal_verdict(name):
    A = _inputs()[name]
    want = profile(A).unimodal
    for s in _SCALES:
        assert profile(s * A).unimodal == want


def test_schur_upper_end_gap_under_scaling_stays_pinned():
    # A known gap: at p = 3 the Schur upper ends of this nonnegative matrix
    # and of 1e150 times it differ by 4.85e-9 relative, since on the
    # unit-scaled copy the ascent picks another of several near-tied starts,
    # and a Schur bound at a maximizer converged to a 1e-12 gain is only that
    # accurate.  Both intervals are certified, so they overlap; this pins the
    # gap so that it cannot grow unseen.
    A = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    s = 1e150
    base, scaled = certified_bound(A, 3), certified_bound(s * A, 3)
    assert base.upper_provenance == scaled.upper_provenance == "schur"
    assert scaled.lower <= s * base.upper and s * base.lower <= scaled.upper
    assert abs(scaled.upper - s * base.upper) < 1e-8 * scaled.upper
