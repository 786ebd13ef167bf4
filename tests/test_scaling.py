"""Scale invariance: every verdict and every bound follows the matrix's scale.

The recognizers' tolerances are relative to the largest modulus, and the
anchors, the ascent and the structure fits neither under- nor overflow, so
``s * A`` gets the rule of ``A`` and bounds ``s`` times those of ``A`` from
1e-300 up to 1e300.
"""

import numpy as np
import pytest
from conftest import random_complex

from opnorm.core import INF
from opnorm.estimator import analyze, certified_bound
from opnorm.exact import AnchorNorms
from opnorm.structured import Circulant, densify, magic3

_SCALES = (1e-300, 1e-150, 1e-13, 1.0, 1e150, 1e300)


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


def test_anchor_midpoint_at_extreme_scales():
    for v in (1e-200, 1e-160, 1e160, 1e200):
        assert AnchorNorms(v, v, v).geometric_midpoint == pytest.approx(v, rel=1e-15)
    assert AnchorNorms(15.0, 15.0, 15.0).geometric_midpoint == 15.0
