"""The anchor test runs its squaring two-norm only when an exponent needs it.

Past the recognizers, ``Analysis.rule`` and ``own_anchors`` are read on
first use; p = 1 and inf are the column and row sums, so a query made only
of those exponents, of a matrix, a direct-sum block or a tensor core, calls
``exact.norm_two`` not at all, and anything else calls it once per matrix
that reaches the anchor test.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opnorm.exact
from conftest import random_complex
from opnorm.estimator import analyze, certified_bound
from opnorm.exact import anchor_norms
from opnorm.interp import la_report_from_anchors
from opnorm.structured import TensorRankOne, densify, direct_sum, random_unitary_permutation

_RNG = np.random.default_rng(28)
_FAMILIES = {
    # name: (matrix, its analyses that reach the anchor test, their rule)
    "general": (random_complex(_RNG, 5, 5), 1, "general"),
    "phased-permutation": (densify(random_unitary_permutation(5, seed=0)), 1, "log-affine"),
    "direct-sum": (direct_sum([_RNG.standard_normal((3, 3)), random_complex(_RNG, 4, 4)]),
                   2, "direct-sum"),
    "tensor": (densify(TensorRankOne([1.0, -2.0], [0.5j, 3.0 + 1.0j],
                                     _RNG.standard_normal((3, 3)))), 1, "tensor"),
}


@pytest.fixture
def two_norms(monkeypatch) -> list:
    """One entry per call of ``exact.norm_two`` through its module name."""
    calls = []
    norm_two = opnorm.exact.norm_two
    monkeypatch.setattr(opnorm.exact, "norm_two", lambda M: calls.append(1) or norm_two(M))
    return calls


@pytest.mark.parametrize("family", _FAMILIES)
def test_anchor_exponents_run_no_squaring(family, two_norms):
    A, _, rule = _FAMILIES[family]
    certified_bound(A, 1)
    certified_bound(A, math.inf)
    analysis = analyze(A)
    analysis.bounds((1, math.inf))
    assert two_norms == []
    assert analysis.rule == rule


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("ps", [(2,), (1.5,), (1, 3, math.inf), (math.inf, 1.25, 2, 1)])
def test_an_exponent_off_the_sums_runs_one_squaring_per_tested_matrix(family, ps, two_norms):
    A, tested, _ = _FAMILIES[family]
    analysis = analyze(A)
    analysis.bounds(ps)
    analysis.bounds(ps)
    analysis.bounds((1, math.inf))
    assert len(two_norms) == tested


@pytest.mark.parametrize("read", ["rule", "own_anchors", "anchors"])
@pytest.mark.parametrize("family", ["general", "phased-permutation"])
def test_reading_the_verdict_or_anchors_runs_one_squaring(family, read, two_norms):
    analysis = analyze(_FAMILIES[family][0])
    for _ in range(3):
        getattr(analysis, read)
    analysis.rule, analysis.own_anchors, analysis.anchors, analysis.bounds((1, 1.5, 2, math.inf))
    assert len(two_norms) == 1


def test_composite_anchors_run_one_squaring_per_tested_matrix(two_norms):
    for family in ("direct-sum", "tensor"):
        two_norms.clear()
        analysis = analyze(_FAMILIES[family][0])
        analysis.anchors, analysis.anchors, analysis.bounds((1, 2, 3, math.inf))
        assert len(two_norms) == _FAMILIES[family][1]


def _eager(analysis):
    """``analysis`` with every anchor test decided up front from one
    ``anchor_norms`` call, so no exponent takes the column-and-row-sum path."""
    if analysis.parts:
        return dataclasses.replace(analysis, parts=tuple(map(_eager, analysis.parts)))
    if analysis._rule is not None:
        return analysis
    anchors = anchor_norms(analysis.unit)
    rule = "log-affine" if la_report_from_anchors(anchors).is_la else "general"
    return dataclasses.replace(analysis, _rule=rule, _anchors=anchors)


_entries = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


@st.composite
def _general(draw, n=None):
    n = draw(st.integers(2, 5)) if n is None else n
    parts = st.lists(_entries, min_size=n * n, max_size=n * n)
    A = np.array(draw(parts), dtype=complex).reshape(n, n)
    if draw(st.booleans()):
        A += 1j * np.array(draw(parts)).reshape(n, n)
    return A


@st.composite
def _families(draw):
    """A general matrix, a phased permutation, a direct sum of general
    blocks, or a rank-one block tensor with a general core."""
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    if family == "phased-permutation":
        n, seed = draw(st.integers(2, 6)), draw(st.integers(0, 99))
        return draw(st.floats(1e-3, 1e3)) * densify(random_unitary_permutation(n, seed=seed))
    if family == "direct-sum":
        return direct_sum([draw(_general()), draw(_general())])
    if family == "tensor":
        factor = st.lists(st.sampled_from([1.0, -2.0, 0.5j, 3.0 + 1j]), min_size=2, max_size=2)
        return densify(TensorRankOne(draw(factor), draw(factor), draw(_general(3))))
    return draw(_general())


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_families(), st.lists(st.sampled_from([1.0, math.inf]), min_size=1, max_size=3))
def test_sum_exponents_keep_the_bits_and_tags_of_the_eager_anchors(A, ps):
    analysis = analyze(A)
    got = analysis.bounds(ps)
    want = _eager(analysis).bounds(ps)
    assert [(b.lower.hex(), b.upper.hex(), b.lower_provenance, b.upper_provenance) for b in got] \
        == [(b.lower.hex(), b.upper.hex(), b.lower_provenance, b.upper_provenance) for b in want]
