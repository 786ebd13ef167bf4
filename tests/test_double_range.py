"""Intervals across the whole double range, and their exact scale equivariance.

``analyze`` splits off the 1 x 1 case and the direct sum, then scales the
matrix once by a power of two and scales every end back by the same power,
so no rule meets an entry or a sum outside the normal range, and
``analyze(2^k M)`` returns 2^k times the ends of ``analyze(M)`` bit for bit.

The survey runs every structured family the other tests build, and random
nonnegative, signed and complex matrices, scaled so that max(n1, ninf) is
1e308, the top of the double range, or 2^-1030, below the normal range;
every warning is an error.  The property draws real and complex matrices,
structured ones and direct sums whose blocks lie about 2^1000 apart, and
every k that keeps all entries normal and max(n1, ninf) below 2^1023.
Ends that land below the normal range round outward, and an entry whose
modulus lies past the double range is a ValueError.
"""

import math

import numpy as np
import pytest
from conftest import random_complex
from hypothesis import given, settings
from hypothesis import strategies as st

from opnorm.estimator import analyze, certified_bound
from opnorm.exact import norm_two
from opnorm.structured import (Circulant, HankelMod, TensorRankOne, as_circulant, as_hankel,
                               as_tensor_rank_one, densify, direct_sum, doubly_balanced_norm,
                               magic3, magic4, random_unitary_permutation)


def _aligned(rng, n: int) -> np.ndarray:
    """Coefficients c_i = beta |c_i| w^-i, w an n-th root of unity."""
    omega = np.exp(-2j * np.pi * int(rng.integers(n)) / n)
    return np.exp(2j * np.pi * rng.uniform()) * rng.uniform(0.5, 2.0, n) * omega ** np.arange(n)


def _permutation_sum(rng, n: int) -> np.ndarray:
    eye = np.eye(n)
    return sum(w * eye[rng.permutation(n)] for w in rng.uniform(0.5, 2.0, 3))


_FAMILIES = {
    "magic3": lambda rng: magic3(),
    "magic4": lambda rng: magic4(),
    "permutation-sum": lambda rng: _permutation_sum(rng, 5),
    "aligned-circulant": lambda rng: densify(Circulant(_aligned(rng, 5))),
    "random-circulant": lambda rng: densify(Circulant(random_complex(rng, 6))),
    "aligned-hankel": lambda rng: densify(HankelMod(_aligned(rng, 5))),
    "random-hankel": lambda rng: densify(HankelMod(random_complex(rng, 6))),
    "tensor": lambda rng: densify(TensorRankOne(rng.uniform(0.5, 2, 2), rng.uniform(0.5, 2, 2),
                                                random_complex(rng, 3, 3))),
    "phased-permutation": lambda rng: random_unitary_permutation(6, int(rng.integers(100))).dense(),
    "direct-sum": lambda rng: direct_sum([rng.standard_normal((3, 3)), random_complex(rng, 4, 4)]),
    "direct-sum-mixed": lambda rng: direct_sum([magic3(), random_complex(rng, 4, 4),
                                                densify(Circulant(_aligned(rng, 3)))]),
    "nonnegative": lambda rng: np.abs(rng.standard_normal((6, 6))),
    "signed": lambda rng: rng.standard_normal((6, 6)),
    "complex": lambda rng: random_complex(rng, 6, 6),
}


def _n1_ninf(A: np.ndarray) -> float:
    a = np.abs(A)
    return max(float(a.sum(axis=0).max()), float(a.sum(axis=1).max()))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("top", [1e308, 2.0 ** -1030], ids=["top", "bottom"])
def test_every_family_gets_intervals_at_both_ends_of_the_range(family, top):
    rng = np.random.default_rng(90)
    for _ in range(3):
        A = np.asarray(_FAMILIES[family](rng), dtype=complex)
        s = top / _n1_ninf(A)
        M = s * A
        unit = analyze(A)
        scaled = analyze(M)
        assert scaled.rule == unit.rule
        for want, got in zip(unit.bounds((1.5, 3.0)), scaled.bounds((1.5, 3.0))):
            assert 0.0 <= got.lower <= got.upper < math.inf
            # the entries of M round to s A, at the bottom to about 44 bits,
            # which moves the norm by ~1e-13 relative: both intervals hold
            # it, so they meet (the ascent, and with it a Schur end or a
            # tag, may stop elsewhere)
            assert got.lower <= s * want.upper * (1 + 1e-9)
            assert s * want.lower <= got.upper * (1 + 1e-9)


def test_reproducers_at_the_top_of_the_range():
    for p in (1.0, 1.5, 3.0, math.inf):
        b = certified_bound(2.0 ** 1019 * magic3(), p)
        assert b.lower == b.upper == 2.0 ** 1019 * 15.0
    A = 1e307 * np.abs(np.random.default_rng(0).standard_normal((6, 6)))
    b = certified_bound(A, 3)
    assert (b.lower_provenance, b.upper_provenance) == ("boyd", "schur")
    assert 4.28014e307 < b.lower <= b.upper < 4.28015e307
    with pytest.raises(ValueError, match="finite"):
        certified_bound(np.full((4, 4), 1e308), 3)


def test_ends_below_the_normal_range_round_outward():
    # 2^-1060 M scales up to its unit-scale copy exactly, but its ends scale
    # back below the normal range, where a product rounds: each must still
    # hold the unit-scale copy's end, scaled back
    rng = np.random.default_rng(7)
    for _ in range(40):
        got = analyze(2.0 ** -1060 * np.abs(rng.standard_normal((4, 4))))
        assert got.rule == "general"
        for want, b in zip(analyze(got.unit).bounds((1.5, 3.0)), got.bounds((1.5, 3.0))):
            assert math.ldexp(b.lower, got.scale) <= want.lower
            assert want.upper <= math.ldexp(b.upper, got.scale)


_HUGE = 1.5e308 + 1.5e308j  # finite parts, modulus past the double range


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: analyze([[_HUGE, 1.0], [1.0, 1.0]]),
    lambda: analyze([[_HUGE]]).bounds((3.0,)),
    lambda: analyze([[_HUGE, 0.0], [0.0, 1.0]]).bounds((3.0,)),
    lambda: doubly_balanced_norm([[_HUGE, 1.0], [1.0, 1.0]]),
    lambda: norm_two([[_HUGE, 1.0], [1.0, 1.0]]),
], ids=["analyze", "scalar", "direct-sum", "doubly-balanced", "norm-two"])
def test_an_entry_whose_modulus_overflows_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("recognize", [as_circulant, as_hankel, doubly_balanced_norm,
                                       as_tensor_rank_one, analyze])
def test_every_recognizer_raises_on_an_overflowing_modulus(recognize):
    # no finite tolerance is relative to an infinite modulus
    with pytest.raises(ValueError, match="an entry's modulus lies past the double range"):
        recognize([[_HUGE, 1.0], [2.0, 3.0]])


# ---------------------------------------------------------------------------
# scale equivariance, bit for bit

_PS = (1.0, 1.25, 1.5, 2.0, 3.0, 8.0, math.inf)
_values = st.one_of(st.just(0.0), st.floats(0.25, 4.0), st.floats(-4.0, -0.25))


@st.composite
def _dense(draw, n: int) -> np.ndarray:
    re = np.array(draw(st.lists(_values, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        return re
    return re + 1j * np.array(draw(st.lists(_values, min_size=n * n,
                                             max_size=n * n))).reshape(n, n)


@st.composite
def _equivariance_inputs(draw) -> np.ndarray:
    kind = draw(st.sampled_from(["dense", "nonnegative", "circulant", "hankel", "tensor",
                                 "permutation-sum", "far-direct-sum"]))
    n = draw(st.integers(1, 5))
    if kind == "dense":
        return draw(_dense(n))
    if kind == "nonnegative":
        return np.abs(draw(_dense(n)).real)
    if kind in ("circulant", "hankel"):
        layout = Circulant if kind == "circulant" else HankelMod
        return densify(layout(draw(_dense(n))[0]))
    if kind == "tensor":
        core = draw(_dense(2))
        return densify(TensorRankOne(draw(_dense(2))[0], draw(_dense(2))[0], core))
    if kind == "permutation-sum":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        return _permutation_sum(rng, max(n, 2))
    # blocks about 2^1000 apart: a joint scaling would flush the small one
    far = draw(st.integers(995, 1005))
    parts = [draw(_dense(n)), 2.0 ** -far * draw(_dense(draw(st.integers(1, 3))))]
    return direct_sum(parts[::-1] if draw(st.booleans()) else parts)


def _k_range(M: np.ndarray) -> tuple[int, int]:
    """The k for which every nonzero part of 2^k M is normal and
    max(n1, ninf) of 2^k M lies below 2^1023."""
    parts = np.abs(np.concatenate([M.real.ravel(), M.imag.ravel()]))
    low = float(parts[parts > 0].min())
    return -1021 - math.frexp(low)[1], 1023 - math.frexp(_n1_ninf(M))[1]


def _ldexp(M: np.ndarray, k: int) -> np.ndarray:
    out = np.empty_like(M)
    out.real, out.imag = np.ldexp(M.real, k), np.ldexp(M.imag, k)
    return out


def _ends(b):
    return b.lower, b.upper, b.lower_provenance, b.upper_provenance


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_equivariance_inputs(), st.data())
def test_scaling_by_a_power_of_two_scales_every_end_bit_for_bit(M, data):
    M = np.asarray(M, dtype=complex)
    if not M.any():
        return
    lo, hi = _k_range(M)
    k = data.draw(st.one_of(st.sampled_from([lo, hi, 5, -7, 100]).filter(lambda v: lo <= v <= hi),
                            st.integers(lo, hi)))
    base, scaled = analyze(M), analyze(_ldexp(M, k))
    assert scaled.rule == base.rule
    assert [a.rule for a in scaled.parts] == [a.rule for a in base.parts]
    for want, got in zip(base.bounds(_PS), scaled.bounds(_PS)):
        w_lo, w_up, *tags = _ends(want)
        assert _ends(got) == (math.ldexp(w_lo, k), math.ldexp(w_up, k), *tags)
