import math

import numpy as np
import pytest

from opnorm.core import (
    INF,
    Exponent,
    adjoint,
    as_exponent,
    as_matrix,
    as_square,
    as_vector,
    dual_exponent,
    vec_norm,
)
from opnorm.estimator import analyze, ascent_lower_bound, eigen_lower_bound, oracle_search
from opnorm.exact import anchor_norms, norm_two
from opnorm.structured import (
    TensorRankOne,
    UnitaryPermutation,
    as_circulant,
    as_hankel,
    as_tensor_rank_one,
    as_unitary_permutation,
    direct_sum,
    doubly_balanced_norm,
    split_direct_sum,
)


def test_exponent_validation():
    with pytest.raises(ValueError):
        Exponent(0.5)
    with pytest.raises(ValueError):
        Exponent(0.999999)
    with pytest.raises(ValueError):
        Exponent(math.nan)
    assert Exponent(1.0).value == 1.0
    assert INF.is_inf and not Exponent(2.0).is_inf


def test_exponent_reciprocal_exact_endpoints():
    assert Exponent(1.0).reciprocal == 1.0
    assert INF.reciprocal == 0.0
    assert Exponent(2.0).reciprocal == 0.5
    assert Exponent(4.0).reciprocal == 0.25


def test_exponent_str():
    assert str(INF) == "inf"
    assert str(Exponent(1.0)) == "1"
    assert str(Exponent(1.25)) == "1.25"


def test_exponent_ordering():
    pts = [INF, Exponent(1.0), Exponent(2.0), Exponent(1.5)]
    assert [e.value for e in sorted(pts)] == [1.0, 1.5, 2.0, math.inf]


def test_as_exponent_forms():
    assert as_exponent("inf") is INF or as_exponent("inf").is_inf
    assert as_exponent(3) == Exponent(3.0)
    e = Exponent(1.5)
    assert as_exponent(e) is e
    with pytest.raises(ValueError):
        as_exponent(0)
    with pytest.raises(ValueError):
        as_exponent("two")


@pytest.mark.parametrize("p,q", [(1.0, math.inf), (2.0, 2.0), (1.25, 5.0), (4.0, 4.0 / 3.0)])
def test_dual_pairs(p, q):
    assert dual_exponent(p).value == pytest.approx(q, rel=1e-15)
    # involution, exactly at the special points
    assert dual_exponent(dual_exponent(p)).value == pytest.approx(p, rel=1e-15)


def test_dual_exact_special_points():
    assert dual_exponent(1.0).is_inf
    assert dual_exponent(INF).value == 1.0
    assert dual_exponent(2.0).value == 2.0


def test_as_vector_validates():
    v = as_vector([1, 2j])
    assert v.dtype == np.complex128 and v.shape == (2,)
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        as_vector([[1, 2]])
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([1.0, math.inf])
    with pytest.raises(ValueError):
        as_vector([1.0, math.nan])


def test_as_matrix_validates():
    M = as_matrix([[1, 2], [3, 4]])
    assert M.dtype == np.complex128 and M.shape == (2, 2)
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        as_matrix([1, 2])
    with pytest.raises(ValueError):
        as_matrix(np.empty((0, 3)))
    with pytest.raises(ValueError):
        as_matrix([[1.0, math.inf]])


def test_as_square_is_the_one_square_check():
    M = as_matrix([[1, 2], [3, 4]])
    assert as_square(M) is M
    wide = np.ones((2, 3))
    for call in (lambda: as_square(wide), lambda: analyze(wide),
                 lambda: ascent_lower_bound(wide, 3), lambda: norm_two(wide),
                 lambda: anchor_norms(wide), lambda: doubly_balanced_norm(wide),
                 lambda: split_direct_sum(wide), lambda: direct_sum([np.eye(2), wide]),
                 lambda: TensorRankOne([1.0], [1.0], wide),
                 lambda: eigen_lower_bound(wide, np.ones(2), UnitaryPermutation((0, 1), [1, 1]), 1.0),
                 lambda: oracle_search(wide, 3)):
        with pytest.raises(ValueError, match="^matrix must be square, got 2x3$"):
            call()
    # recognizers answer "not this structure" instead
    for recognize in (as_circulant, as_hankel, as_tensor_rank_one, as_unitary_permutation):
        assert recognize(wide) is None


def test_as_matrix_copies():
    src = np.array([[1.0 + 0j, 2.0], [3.0, 4.0]])
    M = as_matrix(src)
    src[0, 0] = 99.0
    assert M[0, 0] == 1.0


def test_vec_norm_frozen_values():
    assert vec_norm([3.0, 4.0], 2) == 5.0
    assert vec_norm([1, -2, 3j], 1) == 6.0
    assert vec_norm([1, -2, 3j], INF) == 3.0
    assert vec_norm([1, 1, 1, 1], 4) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert vec_norm(np.zeros(3), 7.5) == 0.0


def test_vec_norm_extreme_scales():
    # scaling by max keeps powers in range
    assert vec_norm([1e200, 1e200], 2) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-14)
    assert vec_norm([1e-200, 1e-200], 3) == pytest.approx(2.0 ** (1 / 3) * 1e-200, rel=1e-14)


def test_vec_norm_huge_p_is_max():
    assert vec_norm([2.0, 1.0, 1.5], 1e9) == 2.0


def test_vec_norm_monotone_in_p():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    ps = [1.0, 1.3, 2.0, 3.0, 10.0, math.inf]
    vals = [vec_norm(x, p) for p in ps]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_adjoint_involution_and_pairing_identity():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(adjoint(adjoint(A)), as_matrix(A))
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lhs = np.vdot(y, as_matrix(A) @ x)  # <A x, y>, conjugate in the second slot
    rhs = np.vdot(adjoint(A) @ y, x)
    assert lhs == pytest.approx(rhs, rel=1e-12)
