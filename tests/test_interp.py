import math

import numpy as np
import pytest
from conftest import random_complex

from opnorm.core import INF, Exponent, dual_exponent
from opnorm.estimator import analyze, certified_bound
from opnorm.exact import anchor_norms
from opnorm.interp import (
    NormBound,
    default_grid,
    is_log_affine,
    la_envelope,
    profile,
    riesz_thorin_bound,
    upper_bound,
    upper_bound_from_anchors,
)
from opnorm.structured import Circulant, HankelMod, TensorRankOne, densify, direct_sum, magic3


def test_riesz_thorin_frozen_values():
    # midpoint of (1, 16) and (inf, 12) in 1/p coordinates
    assert riesz_thorin_bound(2, 1, 16.0, INF, 12.0) == pytest.approx(math.sqrt(192.0), rel=1e-14)
    # theta = 2/3 between p=1 and p=inf
    assert riesz_thorin_bound(3, 1, 8.0, INF, 1.0) == pytest.approx(2.0, rel=1e-14)


def test_riesz_thorin_endpoints_exact():
    assert riesz_thorin_bound(1, 1, 7.0, 2, 3.0) == 7.0
    assert riesz_thorin_bound(2, 1, 7.0, 2, 3.0) == 3.0


def test_riesz_thorin_validation():
    with pytest.raises(ValueError):
        riesz_thorin_bound(4, 1, 5.0, 2, 3.0)  # 1/4 outside [1/2, 1]
    with pytest.raises(ValueError):
        riesz_thorin_bound(1.5, 1, -1.0, 2, 3.0)


def test_la_envelope_endpoints():
    a = anchor_norms([[1, 1], [0, 0]])  # anchors (1, sqrt2, 2)
    assert la_envelope(a, 1) == 1.0
    assert la_envelope(a, INF) == 2.0
    assert la_envelope(a, 2) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert la_envelope(a, 4) == pytest.approx(2.0 ** 0.75, rel=1e-15)


def test_la_report():
    assert is_log_affine([[1, 1], [0, 0]])
    rep = is_log_affine([[1, 2], [3, 4]])
    assert not rep and not rep.degenerate
    assert rep.ratio < 1.0
    zero = is_log_affine(np.zeros((3, 3)))
    assert zero and zero.degenerate and zero.ratio == 1.0


def test_upper_bound_anchor_exactness():
    A = [[1, 2], [3, 4]]
    a = anchor_norms(A)
    for p, want in ((1, a.n1), (2, a.n2), (INF, a.ninf)):
        est = upper_bound(A, p)
        assert est.value == want and est.provenance == "anchor"


def test_upper_bound_between_anchors():
    A = [[1, 2], [3, 4]]
    a = anchor_norms(A)
    est = upper_bound(A, 1.5)
    assert est.value <= la_envelope(a, 1.5) + 1e-12
    assert est.value <= a.n1 ** (1 / 3) * a.n2 ** (2 / 3) * (1 + 1e-12)  # segment (1, 2)
    assert est.provenance == "riesz-thorin"


def test_upper_bound_dominates_attained_values():
    from opnorm.estimator import ascent_lower_bound

    rng = np.random.default_rng(12)
    for _ in range(10):
        A = random_complex(rng, 4, 4)
        for p in (1.25, 1.5, 3.0, 8.0):
            lo = ascent_lower_bound(A, p).value
            up = upper_bound(A, p).value
            assert lo <= up * (1 + 1e-9)


def test_self_adjoint_tag():
    H = np.array([[1.0, 3.0], [3.0, 1.0]])
    est = upper_bound(H, 4)
    assert est.provenance == "riesz-thorin"
    # self-adjoint profile is symmetric under p <-> q, so both sides agree
    assert upper_bound(H, 4).value == pytest.approx(upper_bound(H, 4 / 3).value, rel=1e-12)


def test_default_grid_shape():
    grid = default_grid()
    vals = [e.value for e in grid]
    assert vals == sorted(vals)
    assert len(grid) == 11
    assert {1.0, 2.0, math.inf} <= set(vals)
    # closed under duality at working precision
    for e in grid:
        q = dual_exponent(e).value
        assert any(math.isclose(q, v, rel_tol=1e-12) for v in vals), q
    assert default_grid() is grid  # built once: a tuple of frozen exponents


def test_norm_bound_validation():
    NormBound(Exponent(2.0), 1.0, 2.0, "boyd", "riesz-thorin")
    with pytest.raises(ValueError):
        NormBound(Exponent(2.0), 3.0, 2.0, "boyd", "riesz-thorin")
    with pytest.raises(ValueError):
        NormBound(Exponent(2.0), 1.0, 2.0, "made-up", "riesz-thorin")
    with pytest.raises(ValueError):
        NormBound(Exponent(2.0), 1.0, 2.0, "boyd", "made-up")
    assert NormBound(Exponent(2.0), 1.0, 2.0, "boyd", "riesz-thorin").width == 1.0


def test_profile_diagonal_is_flat():
    prof = profile(np.diag([1.0, 2.0]))
    for b in prof.bounds:
        assert b.lower == pytest.approx(2.0, rel=1e-12)
        assert b.upper == pytest.approx(2.0, rel=1e-12)
    assert prof.log_convex and prof.unimodal


def test_profile_la_matrix_matches_envelope():
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    a = anchor_norms(A)
    prof = profile(A)
    for b in prof.bounds:
        assert b.lower == pytest.approx(la_envelope(a, b.p), rel=1e-9)
        assert b.upper == pytest.approx(la_envelope(a, b.p), rel=1e-9)
    assert prof.log_convex and prof.unimodal
    assert prof.p0_estimate.value == 1.0  # increasing profile, minimum at p = 1


def test_profile_self_adjoint_p0():
    prof = profile(np.array([[1.0, 3.0], [3.0, 1.0]]))
    assert prof.p0_estimate.value == 2.0
    lo, hi = prof.p0_interval
    assert lo.value <= 2.0 <= hi.value


def test_profile_validation():
    with pytest.raises(ValueError):
        profile(np.ones((2, 3)))
    with pytest.raises(ValueError):
        profile(np.eye(2), grid=[1.0, 2.0])  # no inf
    with pytest.raises(ValueError):
        profile(np.eye(2), grid=[1.0, 2.0, 1.5, math.inf])  # unsorted


_RNG = np.random.default_rng(60)
_FAMILIES = {
    "tensor": densify(TensorRankOne([1.0, -2.0], [1.0, 0.5], _RNG.standard_normal((3, 3)))),
    "circulant": densify(Circulant([1.0, 2.0, -0.5, 1j])),
    "hankel": densify(HankelMod([1.0, -2.0, 0.5, 3.0])),
    "direct-sum": direct_sum([_RNG.standard_normal((3, 3)), magic3()]),
    "balanced": magic3(),
}


@pytest.mark.parametrize("rule", sorted(_FAMILIES))
def test_profile_applies_the_structure_rules_of_certified_bound(rule):
    M = _FAMILIES[rule]
    assert analyze(M).rule == rule
    prof = profile(M)
    assert prof.analysis.rule == rule
    for p, b in zip(prof.grid, prof.bounds):
        assert b == certified_bound(M, p)


def test_profile_runs_one_ascent(ascent_calls):
    A = np.random.default_rng(67).standard_normal((6, 6))
    assert analyze(A).rule == "general"
    profile(A)
    assert len(ascent_calls) == 1
