"""p = 1 and inf come from the caller's line sums, by one path.

At those exponents every interval is the doubly balanced test's common line
sum where that test fires, else the largest column or row sum of |A| at its
unit scale, each line summed in ascending order.  So the ends are exact
invariants of row and column order, ``certified_bound`` answers them without
``analyze`` (no recognizer, no squaring), and ``Analysis.bounds`` and
``profile`` give the same bits and tags under every rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opnorm.estimator
import opnorm.exact
from conftest import random_complex
from opnorm import magic3, magic4
from opnorm.estimator import analyze, certified_bound
from opnorm.interp import profile
from opnorm.structured import (
    Circulant,
    HankelMod,
    TensorRankOne,
    densify,
    direct_sum,
    hankel_factor,
    random_unitary_permutation,
)

_ENDS = (1.0, math.inf)


def _key(b):
    return b.lower.hex(), b.upper.hex(), b.lower_provenance, b.upper_provenance


# ---------------------------------------------------------------------------
# order invariance

_parts = st.one_of(st.just(0.0), st.builds(lambda m, e, s: s * math.ldexp(m, e),
                                           st.floats(0.5, 1.0), st.integers(-60, 60),
                                           st.sampled_from([1.0, -1.0])))


@st.composite
def _permuted(draw):
    """A square complex A (exact zeros and entries over many binades) and
    row and column orders: A[rows][:, cols] is P A Q with P and Q phase-free
    permutations."""
    n = draw(st.integers(1, 12))
    re = draw(st.lists(_parts, min_size=n * n, max_size=n * n))
    im = draw(st.lists(_parts, min_size=n * n, max_size=n * n))
    A = (np.array(re) + 1j * np.array(im)).reshape(n, n) * draw(st.sampled_from([1.0, 2.0 ** -1000,
                                                                                  2.0 ** 900]))
    return A, draw(st.permutations(range(n))), draw(st.permutations(range(n)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_permuted())
def test_sum_ends_are_invariant_under_row_and_column_order(drawn):
    A, rows, cols = drawn
    PAQ = A[np.ix_(rows, cols)]
    for p in _ENDS:
        assert _key(certified_bound(PAQ, p)) == _key(certified_bound(A, p)), p


@pytest.mark.parametrize("n", range(2, 17))
def test_cyclic_hankel_sum_ends_match_the_circulant_factor(n):
    # complex and signed coefficients: a nonnegative layout is balanced, and
    # the balanced test's mean line sum is taken in index order
    rng = np.random.default_rng(n)
    signed = np.abs(rng.standard_normal(n)) * (-1.0) ** np.arange(n)
    for coeffs in (random_complex(rng, n), signed):
        h = HankelMod(coeffs)
        H, C = densify(h), densify(hankel_factor(h)[1])
        assert n == 2 or analyze(H).rule == "hankel"  # at n = 2, H = C
        for p in _ENDS:
            assert _key(certified_bound(H, p)) == _key(certified_bound(C, p))
            assert _key(analyze(H).bound(p)) == _key(analyze(C).bound(p))


# ---------------------------------------------------------------------------
# one path, and no structure search at the ends

_RNG = np.random.default_rng(29)
_ALIGNED = np.array([1.0, 2.0, 0.5, 3.0, 1.5]) * np.exp(-2j * np.pi * 2 * np.arange(5) / 5)
_FAMILIES = {
    # name: (matrix, the rule analyze finds)
    "balanced": (magic4(), "balanced"),
    "permutation-sum": (np.eye(5)[[2, 0, 4, 1, 3]] + 2.0 * np.eye(5)[[1, 3, 0, 4, 2]], "balanced"),
    "aligned-circulant": (densify(Circulant(_ALIGNED)), "circulant-la"),
    "circulant": (densify(Circulant(random_complex(_RNG, 6))), "circulant"),
    "hankel": (densify(HankelMod(random_complex(_RNG, 7))), "hankel"),
    "tensor": (densify(TensorRankOne([1.0, -2.0], [0.5j, 3.0 + 1.0j],
                                     _RNG.standard_normal((3, 3)))), "tensor"),
    "direct-sum-balanced-block": (direct_sum([magic3(), random_complex(_RNG, 3, 3)]), "direct-sum"),
    "phased-permutation": (densify(random_unitary_permutation(6, seed=3)), "log-affine"),
    "general": (random_complex(_RNG, 6, 6), "general"),
    "scalar": (np.array([[-2.5 + 1.0j]]), "scalar"),
}


@pytest.mark.parametrize("family", _FAMILIES)
def test_every_path_gives_the_sum_ends_the_same_bits_and_tags(family):
    A, rule = _FAMILIES[family]
    analysis = analyze(A)
    assert analysis.rule == rule
    mixed = dict(zip((1.0, 1.5, math.inf), analysis.bounds((1, 1.5, math.inf))))
    grid = {b.p.value: b for b in profile(A).bounds}
    for p in _ENDS:
        want = _key(certified_bound(A, p))
        assert _key(analysis.bound(p)) == want
        assert _key(mixed[p]) == want
        assert _key(grid[p]) == want


def test_sum_end_tags():
    # the balanced test's common line sum keeps its "ones-vector" tag; a
    # composite whose balanced part wins, but whose whole matrix is not
    # balanced, reads "anchor", and so does an aligned circulant
    tags = {name: certified_bound(_FAMILIES[name][0], 1).lower_provenance
            for name in ("balanced", "permutation-sum", "aligned-circulant",
                         "direct-sum-balanced-block")}
    assert tags == {"balanced": "ones-vector", "permutation-sum": "ones-vector",
                    "aligned-circulant": "anchor", "direct-sum-balanced-block": "anchor"}


_SEARCH = ("split_direct_sum", "as_circulant", "as_hankel", "as_tensor_rank_one",
           "classify_circulant_la")


@pytest.fixture
def searches(monkeypatch) -> list:
    """The name of each call of a recognizer through the estimator's binding,
    or of ``exact.norm_two`` through its module name."""
    calls = []

    def counted(module, name):
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or f(*a, **k))

    for name in _SEARCH:
        counted(opnorm.estimator, name)
    counted(opnorm.exact, "norm_two")
    return calls


@pytest.mark.parametrize("family", _FAMILIES)
def test_certified_bound_at_the_sum_ends_runs_no_structure_search(family, searches):
    A = _FAMILIES[family][0]
    for p in _ENDS:
        certified_bound(A, p)
    assert searches == []
    certified_bound(A, 1.5)
    made = list(searches)
    searches.clear()
    analyze(A).bound(1.5)
    assert made == searches
    if family != "scalar":
        assert "split_direct_sum" in made
