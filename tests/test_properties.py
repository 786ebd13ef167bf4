"""Property tests: invariants every certified interval keeps, on generated input.

Hypothesis draws real n x n matrices (n <= 3) whose entries are zero or have
a modulus in [1e-3, 10], and exponents from [1, 1e4], with 1.001 and 1000
drawn often.  The nonnegative draws, which the Schur bound serves, also
zero a whole column now and then.  The batched-ascent property draws real
and complex matrices up to n = 6 with zero rows and columns, and tuples of
exponents that mix p < 2, p > 2, the anchors and repeats; the same
matrices serve the properties of the interpolation upper bound, of
``profile``'s convexity diagnostics, of phased-permutation invariance and
of direct sums.  Nearly log-affine draws (one dominant entry plus eps E)
serve, alone, in direct sums and as tensor cores, the property that every
rule is exact at p = 1, 2, inf.  ``derandomize=True`` makes every run
try the same examples.  Each property runs ``certified_bound`` and so also checks
that it does not raise.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import same_ascent

from opnorm.core import dual_exponent
from opnorm.estimator import analyze, ascent_lower_bound, certified_bound, oracle_norm
from opnorm.interp import la_envelope, profile
from opnorm.structured import (
    Circulant,
    TensorRankOne,
    densify,
    direct_sum,
    random_unitary_permutation,
)

_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)

_entries = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
_exponents = st.one_of(st.sampled_from([1.001, 1000.0]), st.floats(1.0, 1e4))
_interior_exponents = st.one_of(
    st.sampled_from([1.001, 1.5, 3.0, 1000.0]),
    st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    st.floats(2.0, 1e4, exclude_min=True),
)

#: Zero entries with p near 1 or large once made the ascent divide by
#: subnormal preimage entries and raise.
_SPARSE = [[0.3, 0.0, 1.5], [-0.5, 0.0, 0.0], [-0.2, -0.7, 0.0]]


@st.composite
def _matrices(draw):
    n = draw(st.integers(1, 3))
    return np.array(draw(st.lists(_entries, min_size=n * n, max_size=n * n))).reshape(n, n)


@st.composite
def _nonnegative_matrices(draw):
    n = draw(st.integers(2, 3))
    A = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.integers(0, 3)) == 0:
        A[:, draw(st.integers(0, n - 1))] = 0.0
    return A


@st.composite
def _ascent_matrices(draw):
    """Real or complex n x n, n <= 6, now and then with a zero row or column."""
    n = draw(st.integers(1, 6))
    parts = st.lists(_entries, min_size=n * n, max_size=n * n)
    A = np.array(draw(parts), dtype=complex).reshape(n, n)
    if draw(st.booleans()):
        A += 1j * np.array(draw(parts)).reshape(n, n)
    if draw(st.integers(0, 3)) == 0:
        A[draw(st.integers(0, n - 1)), :] = 0.0
    if draw(st.integers(0, 3)) == 0:
        A[:, draw(st.integers(0, n - 1))] = 0.0
    return A


#: Tuples mixing p < 2, p > 2, the anchors and repeats.
_exponent_tuples = st.lists(
    st.one_of(st.sampled_from([1.0, 2.0, math.inf, 1.5, 3.0]), _exponents),
    max_size=6,
).map(lambda ps: tuple(ps + ps[:1]))


#: Nearly log-affine: n1 = ninf = 1 + 1e-10 pass the anchor test, and the
#: envelope sqrt(n1 ninf) lies 1e-10 above ||A||_2 = 1 + 5e-21.
_NEAR_LA = [[1.0, 1e-10, 0.0], [0.0, 0.0, 1e-10], [1e-10, 0.0, 0.0]]
#: Nearly balanced: magic3 with +5e-9 at [0, 0] passes the balanced test at
#: 1e-9, while ||A||_1 = ||A||_inf = 15.000000005 lie above its mean line sum.
_NEAR_MAGIC3 = [[8.000000005, 1.0, 6.0], [3.0, 5.0, 7.0], [4.0, 9.0, 2.0]]


@st.composite
def _near_log_affine(draw):
    """Real or complex n x n, n <= 6: one dominant entry of modulus in
    [1, 10] plus eps E, log10(eps) in [-13, -8] and |E_ij| <= 1."""
    n = draw(st.integers(1, 6))
    parts = st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=n * n, max_size=n * n)
    E = np.array(draw(parts), dtype=complex).reshape(n, n)
    if draw(st.booleans()):
        E += 1j * np.array(draw(parts)).reshape(n, n)
    A = 10.0 ** draw(st.floats(-13.0, -8.0)) * E
    phase = np.exp(1j * draw(st.sampled_from([0.0, np.pi, 0.7])))
    A[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = phase * draw(st.floats(1.0, 10.0))
    return A


@st.composite
def _near_log_affine_builds(draw):
    """A near-log-affine draw alone, in a direct sum with another, or as
    the core of a rank-one block tensor with factors of length 2."""
    A = draw(_near_log_affine())
    build = draw(st.sampled_from(["alone", "direct-sum", "tensor"]))
    if build == "direct-sum":
        return direct_sum([A, draw(_near_log_affine())])
    if build == "tensor":
        factor = st.lists(st.sampled_from([1.0, -2.0, 0.5j, 3.0 + 1j]), min_size=2, max_size=2)
        return densify(TensorRankOne(draw(factor), draw(factor), A))
    return A


#: Coefficients 1, 2, 3 aligned but for a phase of 3e-9 on the last, so the
#: witness test misses by 2e-9 of the largest modulus: the rule is
#: "circulant", n2 rounds onto n1 = ninf = 6, and the envelope falls just
#: below the segment.
_NEAR_ALIGNED = densify(Circulant([1, 2, 3 * np.exp(3e-9j)]))


def _overlap(a, b) -> bool:
    return max(a.lower, b.lower) <= min(a.upper, b.upper) * (1 + 1e-12)


@_settings
@given(_matrices(), _exponents)
@example(_SPARSE, 1000.0)
@example(_SPARSE, 1.001)
def test_upper_bound_is_above_the_oracle(A, p):
    A = np.asarray(A)
    b = certified_bound(A, p)
    truth = abs(A[0, 0]) if A.shape == (1, 1) else oracle_norm(A, p)
    assert b.upper >= truth * (1 - 1e-12)


@_settings
@given(_nonnegative_matrices(), _exponents)
def test_nonnegative_upper_bound_is_above_the_oracle(A, p):
    assert certified_bound(A, p).upper >= oracle_norm(A, p) * (1 - 1e-12)


@_settings
@given(_matrices(), _exponents)
@example(_SPARSE, 1000.0)
def test_intervals_of_a_matrix_and_its_transpose_overlap(A, p):
    # ||A||_p = ||A^T||_q for real A
    A = np.asarray(A)
    assert _overlap(certified_bound(A, p), certified_bound(A.T, dual_exponent(p)))


@_settings
@given(_matrices(), _exponents, st.sampled_from([1e150, 1e-150]))
@example(_SPARSE, 1.001, 1e150)
def test_scaling_scales_the_bounds(A, p, s):
    A = np.asarray(A)
    base, scaled = certified_bound(A, p), certified_bound(s * A, p)
    assert math.isclose(scaled.lower, s * base.lower, rel_tol=1e-9)
    assert math.isclose(scaled.upper, s * base.upper, rel_tol=1e-9)


@_settings
@given(_matrices(), st.sampled_from([1.0, 2.0, math.inf]))
@example(_NEAR_LA, 2.0)
@example(_NEAR_MAGIC3, 1.0)
@example(_NEAR_MAGIC3, math.inf)
def test_anchor_intervals_contain_the_numpy_norm(A, p):
    A = np.asarray(A)
    b = certified_bound(A, p)
    ref = float(np.linalg.norm(A, ord=p))
    assert b.lower <= ref * (1 + 1e-12) and b.upper >= ref * (1 - 1e-12)


@_settings
@given(_near_log_affine_builds())
@example(np.array(_NEAR_LA))
@example(direct_sum([_NEAR_LA, 0.5 * np.eye(2)]))
def test_every_rule_is_exact_at_the_anchors(A):
    # whichever rule fires, its interval at p = 1, 2, inf is the anchor
    # norm itself, the same bits as ``anchors`` reports
    analysis = analyze(A)
    anchors = analysis.anchors
    for b, want, p in zip(analysis.bounds((1.0, 2.0, math.inf)),
                          (anchors.n1, anchors.n2, anchors.ninf), (1, 2, math.inf)):
        assert (b.lower, b.upper) == (want, want)
        assert math.isclose(want, float(np.linalg.norm(A, ord=p)), rel_tol=1e-12)


#: The climb exponents of the default profile grid.  3 and 1.5 take their
#: preimage power at 0.5, 4 and 4/3 their image power at 2: the rows that
#: np.power would take by np.sqrt and np.square.
_PROFILE_CLIMB = (3.0, 1.5, 4.0, 4.0 / 3.0, 5.0, 8.0, 8.0 / 7.0)
#: A real nonnegative and a complex matrix on which, at _PROFILE_CLIMB, a
#: block power that skipped the fast rows changes bits; on the first, and
#: on the third at (3, 5), the winning start of a run is its last live row
#: while another run still has several, and a product that took that row
#: with the other rows changes bits.
_FAST_NONNEGATIVE = [[1, 0, 0, 4, 4, 1], [2, 1, 0, 3, 3, 1], [3, 3, 3, 4, 1, 0],
                     [4, 2, 4, 0, 1, 2], [0, 3, 3, 1, 4, 3], [2, 3, 3, 1, 2, 1]]
_FAST_COMPLEX = [[-1.25 - 0.25j, -0.25 - 1j, 0.5 - 0.25j, 1.25 - 1.25j, 0],
                 [-0.5, -0.75 - 0.25j, 0.75 - 1j, 1.75 - 0.5j, 0.25 - 1j],
                 [-1.25 - 1.25j, -1 + 0.25j, 1.5 - 1j, 0.25 + 1.25j, -1.75 + 0.75j],
                 [-2j, -1.25 + 0.25j, -0.75 - 1j, -0.5, -0.75],
                 [0.5 - 2j, -0.25j, -0.5 - 0.25j, 0.5 + 1j, 0.75 - 1.25j]]
_LONE_ROW = [[4 - 4j, -3, -4 + 2j, 1 - 2j, -4 + 3j],
             [-2 + 4j, -2, 4 - 1j, 4, -1 - 3j],
             [3 - 4j, 4 - 1j, -1 - 1j, 4 + 2j, 3 - 3j],
             [1 + 2j, -2 - 3j, -2 - 4j, -1 + 4j, 4 + 4j],
             [-3 - 2j, -1 + 2j, 4 - 3j, 2 - 4j, 3 - 2j]]


@_settings
@given(_ascent_matrices(), _exponent_tuples)
@example(np.zeros((3, 3)), (3.0, 2.0, 1.5, 3.0))
@example(np.array(_SPARSE, dtype=complex), (1.001, 1000.0, 2.0, math.inf, 1.0))
@example(np.array(_FAST_NONNEGATIVE, dtype=float), _PROFILE_CLIMB)
@example(np.array(_FAST_COMPLEX), _PROFILE_CLIMB)
@example(np.array(_LONE_ROW), (3.0, 5.0))
def test_batched_ascent_matches_one_exponent_calls_bit_for_bit(A, ps):
    many = ascent_lower_bound(A, ps)
    assert len(many) == len(ps)
    for p, got in zip(ps, many):
        assert same_ascent(got, ascent_lower_bound(A, p))


@_settings
@given(_ascent_matrices(), _interior_exponents)
@example(_NEAR_ALIGNED, 1.5)
def test_upper_bound_is_below_the_envelope_and_the_scaled_two_norm(A, p):
    # the Riesz-Thorin segment through (2, n2) is the only interpolation
    # upper bound; neither of these two ever lies below it
    n = A.shape[0]
    anchors = analyze(A).anchors
    scaled = n ** abs(0.5 - 1.0 / p) * anchors.n2
    cap = min(la_envelope(anchors, p), scaled)
    assert certified_bound(A, p).upper <= (1 + 1e-15) * cap


@_settings
@given(_ascent_matrices())
@example(_NEAR_ALIGNED)
def test_profile_is_log_convex_and_unimodal_without_schur(A):
    # every upper end but "schur" is log-convex in 1/p
    prof = profile(A)
    assume(all(b.upper_provenance != "schur" for b in prof.bounds))
    assert prof.log_convex and prof.unimodal


@_settings
@given(_ascent_matrices(), _interior_exponents, st.integers(0, 2 ** 32 - 1),
       st.integers(0, 2 ** 32 - 1))
def test_phased_permutations_keep_the_interval(A, p, left, right):
    # phased permutations preserve every p-norm, so ||P A Q||_p = ||A||_p
    n = A.shape[0]
    P = densify(random_unitary_permutation(n, left))
    Q = densify(random_unitary_permutation(n, right))
    assert _overlap(certified_bound(A, p), certified_bound(P @ A @ Q, p))


@_settings
@given(_ascent_matrices(), _ascent_matrices(), _interior_exponents)
def test_direct_sum_takes_the_largest_ends_of_its_parts(A1, A2, p):
    # ||A1 (+) A2||_p = max(||A1||_p, ||A2||_p); the first part wins a tie
    whole = certified_bound(direct_sum([A1, A2]), p)
    parts = [certified_bound(A1, p), certified_bound(A2, p)]
    lo = max(parts, key=lambda b: b.lower)
    hi = max(parts, key=lambda b: b.upper)
    assert (whole.lower, whole.lower_provenance) == (lo.lower, lo.lower_provenance)
    assert (whole.upper, whole.upper_provenance) == (hi.upper, hi.upper_provenance)
