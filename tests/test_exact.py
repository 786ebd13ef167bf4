import math

import numpy as np
import pytest
from conftest import random_complex, svd_norm

from opnorm.estimator import certified_bound
from opnorm.exact import (
    AnchorNorms,
    _top_direction,
    anchor_norms,
    norm_inf,
    norm_inf_attained,
    norm_one,
    norm_one_attained,
    norm_two,
)
from opnorm.core import vec_norm
from opnorm.structured import as_unitary_permutation, densify, random_unitary_permutation

# ||[[1,2],[3,4]]||_2 solves the 2x2 Gram eigenproblem in closed form
_NORM2_1234 = math.sqrt(15.0 + math.sqrt(221.0))


def test_anchor_norms_frozen_2x2():
    a = anchor_norms([[1, 2], [3, 4]])
    assert a.n1 == 6.0
    assert a.ninf == 7.0
    assert a.n2 == pytest.approx(_NORM2_1234, rel=1e-12)


def test_attained_indices_and_ties():
    v, j = norm_one_attained([[1, 2], [3, 4]])
    assert (v, j) == (6.0, 1)
    v, i = norm_inf_attained([[1, 2], [3, 4]])
    assert (v, i) == (7.0, 1)
    # ties resolve to the smallest index
    _, j = norm_one_attained([[1, 1], [1, 1]])
    assert j == 0


def test_norm_one_norm_inf_duality():
    rng = np.random.default_rng(2)
    A = random_complex(rng, 4, 4)
    assert norm_one(A) == pytest.approx(norm_inf(np.conj(A.T)), rel=1e-15)


def _random_input(rng, kind, n):
    if kind == "complex":
        return random_complex(rng, n, n)
    if kind == "real":
        return rng.standard_normal((n, n))
    return rng.random((n, n))  # nonnegative


KINDS = ["complex", "real", "nonnegative"]


# real input exercises the real Gram matrix
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 31, 33, 64])
def test_norm_two_matches_svd_oracle(n):
    rng = np.random.default_rng(100 + n)
    for kind in KINDS:
        for _ in range(8 if n <= 16 else 2):
            A = _random_input(rng, kind, n)
            assert norm_two(A) == pytest.approx(svd_norm(A), rel=1e-12)


def _near_identity_inputs():
    yield np.array([[1.0, 1e-9], [0.0, 1.0]])
    for n in (3, 8, 32):
        rng = np.random.default_rng(3)
        yield np.eye(n) + 1e-9 * rng.standard_normal((n, n))


@pytest.mark.parametrize("A", list(_near_identity_inputs()), ids=lambda A: f"n{len(A)}")
def test_norm_two_near_identity_converges(A):
    # the Gram eigenvalues agree to about 1e-9 here, so the squaring needs
    # some 35 steps to separate the top one from the rest
    ref = float(np.linalg.norm(A, 2))
    assert abs(norm_two(A) - ref) <= 1e-10
    b = certified_bound(A, 2)
    assert b.lower - 1e-12 * ref <= ref <= b.upper + 1e-12 * ref


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [4, 16, 32, 40, 64])
def test_squaring_stops_before_its_cap(n, kind):
    rng = np.random.default_rng(7 * n)
    for _ in range(3):
        A = _random_input(rng, kind, n)
        gram = np.conj(A.T) @ A
        x, squarings = _top_direction(gram)
        assert squarings < 64
        value = np.vdot(x, gram @ x).real / np.vdot(x, x).real
        assert value == pytest.approx(np.linalg.eigvalsh(gram)[-1], rel=1e-12)


def _clustered_top_inputs():
    yield "diag-near-tie", np.diag([3.0, 3.0 - 1e-12, 1.0])
    yield "diag-tie", np.diag([3.0, 3.0, 1.0, 0.5])
    rng = np.random.default_rng(41)
    yield "orthogonal", np.linalg.qr(rng.standard_normal((64, 64)))[0]
    yield "unitary", np.linalg.qr(random_complex(rng, 64, 64))[0]
    yield "near-identity-real", np.eye(128) + 1e-9 * rng.standard_normal((128, 128))
    yield "near-identity-complex", np.eye(128) + 1e-9 * random_complex(rng, 128, 128)


@pytest.mark.parametrize("name, A", list(_clustered_top_inputs()),
                         ids=[name for name, _ in _clustered_top_inputs()])
def test_norm_two_clustered_top(name, A):
    assert norm_two(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-13)


def _capped_inputs():
    rng = np.random.default_rng(43)
    for n in (4, 8, 16, 32, 64):
        for _ in range(3):
            yield rng.standard_normal((n, n))
            yield random_complex(rng, n, n)
            yield np.eye(n) + 1e-6 * rng.standard_normal((n, n))
    for n in (4, 8, 16, 32, 64):
        yield np.diag(np.r_[3.0, 3.0 - 1e-6, rng.random(n - 2)])


def test_norm_two_is_attained_when_squaring_is_cut_off(monkeypatch):
    monkeypatch.setattr("opnorm.exact._SQUARING_CAP", 1)
    short = 0
    for A in _capped_inputs():
        ref = np.linalg.norm(A, 2)
        value = norm_two(A)
        assert value <= ref * (1 + 1e-13)
        short += value < ref * (1 - 1e-12)
    assert short > 0  # one squaring leaves some of them short of the norm


def test_norm_two_special_shapes():
    rng = np.random.default_rng(17)
    H = random_complex(rng, 6, 6)
    H = H + np.conj(H.T)  # hermitian
    assert norm_two(H) == pytest.approx(svd_norm(H), rel=1e-12)
    B = random_complex(rng, 6, 2)
    low = B @ np.conj(B.T)  # rank deficient
    assert norm_two(low) == pytest.approx(svd_norm(low), rel=1e-12)
    assert norm_two(np.zeros((4, 4))) == 0.0
    assert norm_two([[3 + 4j]]) == pytest.approx(5.0, rel=1e-15)


def test_norm_two_scale_invariance():
    rng = np.random.default_rng(23)
    A = random_complex(rng, 5, 5)
    base = norm_two(A)
    assert norm_two(1e150 * A) == pytest.approx(1e150 * base, rel=1e-12)
    assert norm_two(1e-150 * A) == pytest.approx(1e-150 * base, rel=1e-12)


def test_norm_two_requires_square():
    with pytest.raises(ValueError):
        norm_two(np.ones((2, 3)))


def test_anchor_invariant_enforced():
    # n2 <= sqrt(n1 * ninf) must hold for admissible anchors
    with pytest.raises(ValueError):
        AnchorNorms(1.0, 2.0, 1.0)
    a = AnchorNorms(2.0, 2.0, 2.0)
    assert a.geometric_midpoint == 2.0


def test_anchor_two_norm_interpolation_bound():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = anchor_norms(random_complex(rng, 4, 4))
        assert a.n2 <= a.geometric_midpoint * (1 + 1e-9)


def _preserves_norms(D, p, seed=0) -> bool:
    """Whether D keeps the p-norm of 8 seeded random vectors to 1e-12."""
    rng = np.random.default_rng(seed)
    for _ in range(8):
        x = random_complex(rng, D.shape[1])
        ref = vec_norm(x, p)
        if abs(vec_norm(D @ x, p) - ref) > 1e-12 * ref:
            return False
    return True


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
def test_unitary_permutation_is_isometry(p):
    D = densify(random_unitary_permutation(6, seed=9))
    assert as_unitary_permutation(D) is not None
    assert _preserves_norms(D, p)


def test_unitary_permutation_recognizer_rejects():
    S = densify(random_unitary_permutation(5, seed=4)).copy()
    i = int(np.argmax(np.abs(S).sum(axis=1)))
    S[i, :] *= 1.001  # off-modulus phase
    assert as_unitary_permutation(S) is None and not _preserves_norms(S, 2)
    assert as_unitary_permutation([[1, 1], [0, 1]]) is None  # two nonzeros in a row
    assert as_unitary_permutation(np.ones((2, 3))) is None  # not square
    # a rotation keeps every 2-norm but no other p-norm, and is no phased
    # permutation: the recognizer is structural, not tied to one exponent
    c, s = math.cos(0.3), math.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    assert _preserves_norms(R, 2) and not _preserves_norms(R, 1.5)
    assert as_unitary_permutation(R) is None


def test_diagonal_phases_are_isometries():
    D = np.diag([1.0, 1j, -1.0])
    assert as_unitary_permutation(D) is not None and _preserves_norms(D, 1.5)
    half = np.diag([1.0, 0.5])
    assert as_unitary_permutation(half) is None and not _preserves_norms(half, 1.5)
