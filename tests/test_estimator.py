import math
import warnings
import zlib
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_complex, same_ascent, svd_norm

from opnorm import estimator
from opnorm.core import INF, Exponent, as_exponent, as_matrix, dual_exponent, vec_norm
from opnorm.estimator import (
    AscentResult,
    CertificateError,
    _ascent_starts,
    _random_starts,
    analyze,
    ascent_lower_bound,
    best_lower_bound,
    certified_bound,
    eigen_lower_bound,
    oracle_norm,
    oracle_search,
)
from opnorm.exact import anchor_norms
from opnorm.interp import (
    UpperEstimate,
    default_grid,
    profile,
    upper_bound,
    upper_bound_from_anchors,
)
from opnorm.structured import (
    Circulant,
    HankelMod,
    TensorRankOne,
    UnitaryPermutation,
    densify,
    direct_sum,
    magic3,
)

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


def test_ascent_never_lowers_its_objective(monkeypatch):
    # the value after c steps is the best start's objective after c steps;
    # each start's objective is nondecreasing, so is their maximum
    rng = np.random.default_rng(52)
    A = random_complex(rng, 6, 6)
    for p in (3.5, 1.3, 1.7):
        res = ascent_lower_bound(A, p)
        assert res.converged and res.iterations > 1
        capped = []
        for cap in range(1, res.iterations + 1):
            monkeypatch.setattr(estimator, "_ASCENT_MAX_ITER", cap)
            capped.append(ascent_lower_bound(A, p).value)
        monkeypatch.undo()
        assert all(b >= a * (1 - 1e-12) for a, b in zip(capped, capped[1:]))
        assert capped[-1] == res.value


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


@pytest.mark.parametrize("restarts", [2.5, "3", True, False, 1.0, 0, -1, None])
def test_bad_restarts_fail_before_any_ascent(restarts, monkeypatch):
    def no_ascent(runs):
        raise AssertionError("the ascent ran")

    monkeypatch.setattr(estimator, "_block_ascent", no_ascent)
    for p in (3.0, (3.0, 1.5), ()):
        with pytest.raises(ValueError, match="restarts must be a positive integer"):
            ascent_lower_bound(np.eye(3), p, restarts=restarts)


def test_numpy_integer_restarts():
    A = random_complex(np.random.default_rng(62), 4, 4)
    assert same_ascent(ascent_lower_bound(A, 3.0, restarts=np.int64(5)),
                       ascent_lower_bound(A, 3.0, restarts=5))


def test_ascent_validates_every_exponent_before_any_ascent(monkeypatch):
    def no_ascent(runs):
        raise AssertionError("the ascent ran")

    monkeypatch.setattr(estimator, "_block_ascent", no_ascent)
    for ps in ((3.0, 0.5), [1.5, "nan"], (3.0, -1.0, 4.0)):
        with pytest.raises(ValueError):
            ascent_lower_bound(np.eye(3), ps)


def test_ascent_sequence_keeps_order_and_duplicates():
    rng = np.random.default_rng(63)
    for A in (random_complex(rng, 5, 5), rng.standard_normal((4, 4))):
        ps = (3.0, 1.5, INF, 3.0, 1.0, 2.0, 1.5, "inf")
        many = ascent_lower_bound(A, ps)
        assert isinstance(many, tuple) and len(many) == len(ps)
        for p, got in zip(ps, many):
            assert same_ascent(got, ascent_lower_bound(A, p))
        assert same_ascent(many[0], many[3]) and same_ascent(many[1], many[6])
        assert many[0].maximizer is not many[3].maximizer
        assert ascent_lower_bound(A, ()) == () and ascent_lower_bound(A, []) == ()
        assert len(ascent_lower_bound(A, np.array([3.0, 1.5]))) == 2


def test_best_lower_bound_sequence_matches_one_exponent_calls():
    rng = np.random.default_rng(64)
    A = rng.standard_normal((5, 5))
    anchors = anchor_norms(A)
    ps = (1.0, 1.5, 2.0, 3.0, INF, 3.0)
    for kw in ({}, {"anchors": anchors}):
        many = best_lower_bound(A, ps, **kw)
        assert len(many) == len(ps)
        for p, (value, tag, x) in zip(ps, many):
            one = best_lower_bound(A, p, **kw)
            assert (value, tag) == one[:2]
            assert (x is None and one[2] is None) or np.array_equal(x, one[2])
    assert best_lower_bound(A, (), anchors=anchors) == ()


def test_ascent_zero_matrix():
    # at p = 2 a zero image row once made u / max|y| = 1 / 5e-324 overflow
    for p in (2.0, 2.5):
        res = ascent_lower_bound(np.zeros((3, 3)), p)
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
    holes = rng.standard_normal((6, 6))
    holes[2, :] = 0.0  # iterates M x get an exact zero entry
    holes[:, 4] = 0.0  # and so do M* d, the |z| = 0 branch
    cases = [A for n in (3, 5, 8) for A in (rng.standard_normal((n, n)), random_complex(rng, n, n))]
    for A in [*cases, holes, holes * (1.0 - 0.5j)]:
        for p in (2.0, 2.5, 4.0, 8.0):
            M = as_matrix(A)
            starts = _ascent_starts(M, np.abs(M), [as_exponent(p)], 8, 0)[0]
            want = max(_loop_ascent(A, p, x) for x in starts)
            assert ascent_lower_bound(A, p).value == pytest.approx(want, rel=1e-12)


def test_random_starts_are_cached_fresh_draws():
    for n, count, seed in ((4, 6, 0), (9, 3, 7), (5, 0, 1)):
        block = _random_starts(n, count, seed)
        assert block.shape == (n, count) and not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
        for k in range(count):
            rng = np.random.default_rng([seed, k])
            fresh = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.array_equal(block[:, k], fresh)
        assert _random_starts(n, count, seed) is block


def test_ascent_repeats_bit_for_bit_and_owns_its_maximizer():
    rng = np.random.default_rng(59)
    for A, p in ((random_complex(rng, 7, 7), 3.0), (rng.standard_normal((5, 5)), 1.4)):
        first = ascent_lower_bound(A, p, seed=3)
        kept = first.maximizer.copy()
        first.maximizer[:] = 0.0
        again = ascent_lower_bound(A, p, seed=3)
        assert np.array_equal(again.maximizer, kept)
        assert (again.value, again.iterations, again.converged) == (
            first.value, first.iterations, first.converged)


@pytest.mark.parametrize("seed", [-1, 1.5, "1", True, None])
def test_bad_seed_fails_at_every_exponent(seed):
    A = random_complex(np.random.default_rng(60), 4, 4)
    analysis = estimator.analyze(A)
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        for call in (lambda: certified_bound(A, p, seed=seed),
                     lambda: analysis.bound(p, seed=seed),
                     lambda: ascent_lower_bound(A, p, seed=seed),
                     lambda: best_lower_bound(A, p, seed=seed, anchors=analysis.anchors)):
            with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
                call()
    assert certified_bound(A, 3.0, seed=np.int64(2)) == certified_bound(A, 3.0, seed=2)


def test_ascent_capped_columns_report_their_last_step(monkeypatch):
    monkeypatch.setattr(estimator, "_ASCENT_MAX_ITER", 3)
    A = random_complex(np.random.default_rng(58), 6, 6)
    res = ascent_lower_bound(A, 3.0)
    assert (res.iterations, res.converged) == (3, False)
    assert res.value == pytest.approx(vec_norm(A @ res.maximizer, 3.0), rel=1e-12)


def test_ascent_nilpotent_column_freezes_at_zero():
    # A = u v^T with v orthogonal to u and to the ones vector: A^2 = 0 and
    # the ones start lands on a zero objective at once
    u = np.array([2.0, 1.0, 1.0, 2.0])
    v = np.array([1.0, -1.0, 1.0, -1.0])
    A = np.outer(u, v)
    only_ones = ascent_lower_bound(A, 3.0, restarts=1)
    assert only_ones.value == 0.0 and only_ones.converged and only_ones.iterations == 1
    for p in (1.5, 2.0, 3.0):
        want = vec_norm(u, p) * vec_norm(v, dual_exponent(p))
        assert ascent_lower_bound(A, p).value == pytest.approx(want, rel=1e-9)


def test_ascent_overflow_raises_without_warnings():
    # the ascent runs at modulus 1, so only a norm beyond the double range
    # overflows; ||[[1, 1], [1, -1]]||_3 = 2^(2/3) and ||[[1, 1], [1, 1]]||_p = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ascent_lower_bound([[1e308, 1e308], [1e308, -1e308]], 3)
        assert res.value == pytest.approx(2.0 ** (2.0 / 3.0) * 1e308, rel=1e-12)
        for p in (1.5, 3):
            with pytest.raises(ValueError, match="finite"):
                ascent_lower_bound([[1e308, 1e308], [1e308, 1e308]], p)


@pytest.mark.parametrize("p", [1.001, 1000.0])
def test_extreme_exponent_with_subnormal_preimages(p):
    # at q near 1, z v / |z| overflowed where the preimage z was subnormal
    A = [[0.3, 0, 1.5], [-0.5, 0, 0], [-0.2, -0.7, 0]]
    b = certified_bound(A, p)
    assert 0.0 < b.lower <= b.upper
    assert b.upper >= oracle_norm(A, p) * (1 - 1e-12)


def test_preimage_step_clamps_only_subnormal_moduli():
    # two rows of one group; the block holds its starts as rows
    Z = np.array([[1.0, 5e-320, 0.0, -3.0], [0.0, 2.0, 1e-300j, 1.0]], dtype=complex)
    a = np.abs(Z)
    normal = a >= np.finfo(float).tiny
    for q in (1.001, 1.5, 2.0):
        S, V = np.empty(Z.shape), np.empty(Z.shape)
        sums, X = estimator._preimage_step(Z, S, V, q - 1.0, [])
        nrm = sums ** ((q - 1.0) / q)
        assert np.isfinite(nrm).all() and np.isfinite(X).all()
        v = (a / a.max(axis=1)[:, None]) ** (q - 1.0)
        assert np.array_equal(X[normal], (Z * (v / np.where(normal, a, 1.0)))[normal])
        assert not X[a == 0.0].any()


def test_block_power_matches_scalar_powers_row_by_row():
    # one np.power with a full-shape exponent array, and np.sqrt and
    # np.square on the stretches of rows at 0.5 and 2, give every row the
    # bits of np.power at its own scalar exponent, zero and subnormal
    # entries included; rows that share one exponent take it as a scalar
    rng = np.random.default_rng(73)
    exps = [0.5, 2.0, 1.0, 3.0, 6.0, 1.0 / 3.0, 0.25, 1.0 / 7.0]
    for order, counts, shape in ((exps, [3, 2, 1, 4, 2, 3, 1, 2], (9,)),
                                 (exps[::-1], [2, 0, 3, 1, 1, 2, 4, 2], (9,)),
                                 ([0.5, 0.5, 2.0, 3.0, 2.0, 2.0], [2, 1, 3, 2, 0, 2], (9,)),
                                 ([0.5, 3.0, 2.0, 1.0 / 7.0], [1, 1, 1, 1], (4, 5)),
                                 ([3.0, 0.5], [0, 4], (9,)), ([2.0], [4], (9,))):
        S = rng.random((sum(counts), *shape))
        S[rng.random(S.shape) < 0.2] = 0.0
        S[rng.random(S.shape) < 0.2] = 5e-320
        S[:, 0] = 0.0
        S[:, -1] = 5e-320
        P = np.empty_like(S)
        estimator._group_powers(S, P, order, counts)
        e = np.repeat(order, counts)
        assert np.array_equal(P, [np.power(row, float(x)) for row, x in zip(S, e)])


def test_bounds_run_one_ascent_for_all_exponents(ascent_calls):
    A = np.random.default_rng(65).standard_normal((6, 6))
    analysis = analyze(A)
    ps = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, INF)
    many = analysis.bounds(ps)
    assert len(ascent_calls) == 1
    assert many == tuple(analysis.bound(p) for p in ps)
    assert analysis.bounds(()) == ()
    assert analysis.bounds([3.0]) == (certified_bound(A, 3.0),)


def test_engine_reaches_the_ascent_by_one_call_per_query(ascent_calls):
    # a lone climbing exponent goes bare, so the call returns one
    # AscentResult; the upper end and the floor go as sequences in step with
    # it, and only for signed and complex input, since a nonnegative ascent
    # climbs to its fixed point; the anchors take no ascent
    rng = np.random.default_rng(67)
    certified_bound(rng.standard_normal((6, 6)), 3.0)
    [(args, kwargs, result)] = ascent_calls
    assert isinstance(args[1], Exponent) and args[1].value == 3.0
    assert isinstance(result, AscentResult)
    assert len(kwargs["_uppers"]) == len(kwargs["_floors"]) == 1
    ascent_calls.clear()
    certified_bound(np.abs(rng.standard_normal((6, 6))), 3.0)
    [(args, kwargs, result)] = ascent_calls
    assert isinstance(args[1], Exponent) and isinstance(result, AscentResult)
    assert kwargs.get("_uppers") is None and kwargs.get("_floors") is None
    ascent_calls.clear()
    analysis = analyze(rng.standard_normal((6, 6)))
    assert analysis.rule == "general"
    analysis.bounds((1.0, 2.0, INF))
    assert not ascent_calls


def test_direct_sum_runs_one_ascent_per_unstructured_block(ascent_calls):
    rng = np.random.default_rng(66)
    M = direct_sum([rng.standard_normal((3, 3)), magic3() / 15, random_complex(rng, 4, 4)])
    analysis = analyze(M)
    assert [a.rule for a in analysis.parts] == ["general", "balanced", "general"]
    analysis.bounds((1.25, 2.0, 3.0, 8.0))
    assert len(ascent_calls) == 2


def _hex(b):
    return b.lower.hex(), b.upper.hex(), b.lower_provenance, b.upper_provenance


def test_nonnegative_bounds_keep_the_fixed_point_ascent():
    # a real nonnegative matrix climbs to the 1e-12 stop, where its Schur
    # upper end is tight: the interval of the public ascent with the Schur
    # test against the segment
    rng = np.random.default_rng(70)
    grid = default_grid()
    for n in range(4, 17):
        A = np.abs(rng.standard_normal((n, n)))
        analysis = analyze(A)
        assert analysis.rule == "general"
        anchors = analysis.anchors
        pinned = {1.0: anchors.n1, 2.0: anchors.n2, math.inf: anchors.ninf}
        for p, b in zip(grid, analysis.bounds(grid)):
            up = upper_bound_from_anchors(anchors, p)
            if p.value in pinned:
                lo, tag = pinned[p.value], "anchor"
            else:
                ascent = ascent_lower_bound(A, p)
                lo, tag = ascent.value, "boyd"
                schur = estimator._schur_upper(as_matrix(A), [(p, ascent.maximizer)])[0]
                if schur is not None and schur < up.value:
                    up = UpperEstimate(max(schur, lo), "schur")
            assert _hex(b) == (min(lo, up.value).hex(), up.value.hex(), tag, up.provenance)


def test_gap_stop_loses_little_of_the_signed_interval(monkeypatch):
    # signed and complex starts that trail stop once their gain is small
    # against the gap to the upper end: fewer block steps, and a lower end
    # that gives up at most 1e-4 of the interval against the 1e-12 stop.  At
    # p in {1, 2, inf} the lower end is the exact anchor and no ascent runs.
    steps = []
    image_step = estimator._image_step
    monkeypatch.setattr(estimator, "_image_step", lambda *a: steps.append(1) or image_step(*a))
    rng = np.random.default_rng(71)
    grid = [p for p in default_grid() if p.value not in (1.0, 2.0) and not p.is_inf]
    fine = gapped = 0
    for n in (4, 8, 16, 32, 48):
        for A in (rng.standard_normal((n, n)), random_complex(rng, n, n)):
            bounds = analyze(A).bounds(grid)
            steps.clear()
            full = ascent_lower_bound(A, grid)
            fine += len(steps)
            steps.clear()
            ascent_lower_bound(A, grid, _uppers=[b.upper for b in bounds])
            gapped += len(steps)
            for a, b in zip(full, bounds):
                assert b.lower >= a.value - 1e-4 * (b.upper - a.value)
    assert gapped < 0.8 * fine


def _count_block_steps(monkeypatch) -> list:
    """One entry per step of the block ascent (``_image_step`` call)."""
    steps = []
    image_step = estimator._image_step
    monkeypatch.setattr(estimator, "_image_step", lambda *a: steps.append(1) or image_step(*a))
    return steps


def test_direct_sum_block_below_an_exact_block_takes_no_ascent_step(monkeypatch):
    # magic3's lower end 15 needs no ascent, and it lies above the complex
    # or nonnegative block's Riesz-Thorin upper end at every exponent here:
    # that block's exponents are settled, so it builds no starts and takes
    # no step, and the interval is still the larger lower end and the larger
    # upper end of the parts' own intervals
    steps = _count_block_steps(monkeypatch)
    starts = []
    ascent_starts = estimator._ascent_starts
    monkeypatch.setattr(estimator, "_ascent_starts",
                        lambda *a: starts.append(1) or ascent_starts(*a))
    ps = (1.25, 1.5, 3.0, 4.0)
    for block in (random_complex(np.random.default_rng(75), 8, 8),
                  np.abs(np.random.default_rng(5).standard_normal((6, 6)))):
        analysis = analyze(direct_sum([magic3(), block]))
        assert [a.rule for a in analysis.parts] == ["balanced", "general"]
        steps.clear()
        got = analysis.bounds(ps)
        assert not steps and not starts
        for b, *parts in zip(got, *(a.bounds(ps) for a in analysis.parts)):
            lo = max(parts, key=lambda c: c.lower)
            up = max(parts, key=lambda c: c.upper)
            assert _hex(b) == (lo.lower.hex(), up.upper.hex(), lo.lower_provenance,
                               up.upper_provenance)
        assert steps and starts  # the block alone climbs
        starts.clear()


def test_eigen_certificate_floor_cuts_circulant_and_hankel_steps(monkeypatch):
    # a circulant's eigen certificate n2 is a floor of its own ascent, which
    # a Hankel layout reaches through its circulant factor: starts below it
    # stop on the gap test, so the ascent takes fewer block steps than with
    # the same upper ends alone
    steps = _count_block_steps(monkeypatch)
    rng = np.random.default_rng(76)
    grid = [p for p in default_grid() if p.value not in (1.0, 2.0) and not p.is_inf]
    floored = gapped = 0
    for n in range(3, 17):
        c = random_complex(rng, n)
        for M in (densify(Circulant(c)), densify(HankelMod(c))):
            analysis = analyze(M)
            factor = analysis.parts[0] if analysis.rule == "hankel" else analysis
            assert factor.rule == "circulant"
            steps.clear()
            bounds = analysis.bounds(grid)
            mine = len(steps)
            steps.clear()
            ascent_lower_bound(factor.matrix, grid, _uppers=[b.upper for b in bounds])
            assert mine <= len(steps)
            floored += mine
            gapped += len(steps)
    assert floored < gapped  # 2912 against 3242


def test_settled_circulant_exponents_keep_the_eigen_certificate():
    # coefficients 1, 2, 3 aligned but for a phase of 3e-9 on the last: the
    # rule is "circulant", and at some exponents n2 rounds above the
    # segment, which settles them with no ascent; the eigen certificate
    # stays their lower end, ahead of the ones vector's value
    analysis = analyze(densify(Circulant([1, 2, 3 * np.exp(3e-9j)])))
    assert analysis.rule == "circulant"
    grid = [p for p in default_grid() if p.value not in (1.0, 2.0) and not p.is_inf]
    anchors = analysis.anchors
    assert any(anchors.n2 > upper_bound_from_anchors(anchors, p).value for p in grid)
    assert [b.lower_provenance for b in analysis.bounds(grid)] == ["eigen-certificate"] * len(grid)


def test_gap_stop_known_saddle_loss_stays_pinned():
    # A known loss beyond the 1e-4 target: at p = 3 four of the eight starts
    # of this complex 16 x 16 sit at 11.1928 for ~250 steps, then climb past
    # the best start's 11.2167, and the gap test freezes them on the plateau.
    # The lower end is still attained, so the interval stays certified, only
    # looser; this pins the loss so that it cannot grow unseen.
    rng = np.random.default_rng(1)
    for n in (48,) + (16,) * 9:  # the tenth matrix of this stream
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = analyze(A).bounds((1, 1.25, 1.5, 2, 3, 4, INF))[4]
    fine = ascent_lower_bound(A, 3).value
    loss = (fine - b.lower) / (b.upper - fine)
    assert 1e-4 < loss < 4e-3
    assert b.lower == ascent_lower_bound(A, 3, _uppers=[b.upper]).value


_CLI_PS = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, INF)


def test_best_gap_stop_cuts_steps_and_keeps_lower_ends(monkeypatch):
    # once a run's best start has converged, its other starts stop once their
    # gain is small against the gap left to its value: fewer block steps, a
    # lower end within 1e-4 of its width of the gap stop alone, and no change
    # where the input is nonnegative, whose runs take no upper end
    steps = _count_block_steps(monkeypatch)
    default = estimator._BEST_GAP_TOL

    def bounds(A, tol):
        monkeypatch.setattr(estimator, "_BEST_GAP_TOL", tol)
        steps.clear()
        return analyze(A).bounds(_CLI_PS), len(steps)

    rng = np.random.default_rng(2301)
    cut = kept = 0
    for n in (4, 6, 8, 12, 16, 24, 32, 48) * 3:
        for A in (rng.standard_normal((n, n)), random_complex(rng, n, n)):
            (got, mine), (ref, theirs) = bounds(A, default), bounds(A, 0.0)
            cut += mine
            kept += theirs
            for b, r in zip(got, ref):
                assert b.upper == r.upper and b.lower_provenance == r.lower_provenance
                assert b.lower >= r.lower - 1e-4 * (r.upper - r.lower)
        A = np.abs(rng.standard_normal((n, n)))
        (got, mine), (ref, theirs) = bounds(A, default), bounds(A, 0.0)
        assert [_hex(b) for b in got] == [_hex(b) for b in ref] and mine == theirs
    assert cut < 0.9 * kept


def test_best_gap_stop_known_saddle_losses_stay_pinned():
    # Two known losses beyond the 1e-4 target, from the dense-anchor stream
    # at seed 3 (queries 205 and 199): a start that would escape a saddle and
    # overtake only after the run's best start has converged stops against
    # that best.  The lower ends are still attained, so the intervals stay
    # certified, only looser; this pins the losses so that they cannot grow
    # unseen.
    key = zlib.crc32(b"dense-anchor")
    real = np.random.default_rng([3, key, 0, 205]).standard_normal((40, 40))
    rng = np.random.default_rng([3, key, 0, 199])
    complex_ = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    for A, p, lo, hi in ((real, 1.25, 0.11, 0.13), (complex_, 4.0, 0.03, 0.04)):
        b = analyze(A).bound(p)
        fine = ascent_lower_bound(A, p).value
        loss = (fine - b.lower) / (b.upper - fine)
        assert lo < loss < hi
        assert b.lower == ascent_lower_bound(A, p, _uppers=[b.upper]).value


def test_signed_bounds_keep_their_bits_whichever_exponents_share_the_query():
    rng = np.random.default_rng(72)
    ps = (3.0, 1.5, 3.0, 1.25, 8.0, 2.0, 1.5, INF, 5.0, 4.0 / 3.0)
    # the circulant's ascent and the direct sum's complex block run with a
    # floor, which keeps their bits too
    for A in (random_complex(rng, 8, 8), random_complex(rng, 20, 20),
              densify(Circulant(random_complex(rng, 8))),
              direct_sum([magic3(), random_complex(rng, 5, 5)])):
        for i, b in enumerate(analyze(A).bounds(ps)):
            assert _hex(b) == _hex(analyze(A).bounds((ps[i],))[0])


def test_nonnegative_bounds_keep_their_bits_whichever_exponents_share_the_query():
    # the wrap-up and the Schur test take every exponent of a query in one
    # pass; each interval keeps the bits of the same exponent queried alone
    rng = np.random.default_rng(73)
    grid = [p.value for p in default_grid()]
    schur = 0
    for n in range(3, 17):
        A = np.abs(rng.standard_normal((n, n)))
        ps = list(rng.permutation(grid)) + list(rng.choice(grid, 4))
        analysis = analyze(A)
        for p, b in zip(ps, analysis.bounds(ps)):
            assert _hex(b) == _hex(analyze(A).bounds((p,))[0])
            schur += b.upper_provenance == "schur"
    assert schur > 100


def test_profile_points_keep_the_bits_of_lone_queries():
    rng = np.random.default_rng(74)
    for A in (np.abs(rng.standard_normal((7, 7))), rng.standard_normal((9, 9)),
              random_complex(rng, 6, 6), random_complex(rng, 12, 12)):
        prof = profile(A)
        for p, b in zip(prof.grid, prof.bounds):
            assert _hex(b) == _hex(certified_bound(A, p))


def test_inf_endpoint_of_a_subnormal_complex_matrix():
    # the phases of the attaining row are taken on the row scaled into the
    # normal range, where no complex quotient overflows
    for seed in range(20):
        B0 = random_complex(np.random.default_rng(seed), 3, 3)
        for k in (-1060, -1066, -1040):
            B = B0 * 2.0 ** k
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = ascent_lower_bound(B, INF)
            x = result.maximizer
            assert np.isfinite(x).all()
            assert np.abs(np.abs(x) - 1.0).max() <= 4e-16
            # ||B x||_inf / ||x||_inf, taken on B0 and scaled, up to the
            # subnormal rounding of the row sum
            quotient = math.ldexp(float(np.abs(B0 @ x).max() / np.abs(x).max()), k)
            assert result.value == pytest.approx(quotient, rel=1e-12, abs=16 * 2.0 ** -1074)


def test_public_ascent_keeps_the_fine_stop():
    # the public ascent takes no upper end, so it keeps the 1e-12 stop and
    # these bits
    A = random_complex(np.random.default_rng(2026), 8, 8)
    assert ascent_lower_bound(A, 3).value.hex() == "0x1.ee684fd72b752p+2"
    assert ascent_lower_bound(A, 1.5).value.hex() == "0x1.c78ba06116d29p+2"


def test_inf_endpoint_value_is_the_row_sum():
    # the p = inf endpoint returns the attaining row's sum, as p = 1 returns
    # the column's, so its value never lies above the computed anchor
    for seed in range(100, 130):
        rng = np.random.default_rng(seed)
        for n in (4, 8, 16, 32, 48):
            for A in (rng.standard_normal((n, n)), random_complex(rng, n, n)):
                assert ascent_lower_bound(A, INF).value == anchor_norms(A).ninf


def _fourth_powers(v) -> Fraction:
    """The exact sum of |v_i|^4 over a vector of complex Fractions (re, im)."""
    return sum((re * re + im * im) ** 2 for re, im in v)


def test_engine_lower_end_holds_in_exact_arithmetic():
    # with an upper end the ascent's value is rounded down, so the engine's
    # lower end L and its maximizer x satisfy L^4 sum |x_i|^4 <= sum |(M x)_i|^4
    # exactly: the rounding of M x and of the norms cannot lift L above the
    # quotient that x attains
    for i in range(200):
        n = 3 + i % 6
        A = np.random.default_rng(i).standard_normal((n, n))
        U = upper_bound_from_anchors(anchor_norms(A), as_exponent(4)).value
        ascent = ascent_lower_bound(A, 4, _uppers=[U])
        L, x = ascent.value, ascent.maximizer
        F = [[Fraction(float(a)) for a in row] for row in A]
        X = [(Fraction(float(v.real)), Fraction(float(v.imag))) for v in x]
        MX = [(sum(F[r][j] * X[j][0] for j in range(n)), sum(F[r][j] * X[j][1] for j in range(n)))
              for r in range(n)]
        assert Fraction(L) ** 4 * _fourth_powers(X) <= _fourth_powers(MX)


def test_extrapolation_does_not_freeze_rows_early():
    # the extrapolated signed ascent ends within 1e-6 of its interval's width
    # of the plain 1e-12 ascent, which never extrapolates
    rng = np.random.default_rng(2210)
    ps = (1.25, 1.5, 3.0, 4.0, 8.0)
    for i, n in enumerate((16,) * 20 + (32,) * 10):
        A = random_complex(rng, n, n) if i % 2 == 0 else rng.standard_normal((n, n))
        for b, fine in zip(analyze(A).bounds(ps), ascent_lower_bound(A, ps)):
            assert b.lower_provenance == "boyd"
            assert fine.value - b.lower <= 1e-6 * (b.upper - b.lower)


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


class _GridBuilt(Exception):
    pass


@pytest.mark.parametrize("n, resolution, allowed", [
    (3, 1024, True), (3, 1025, False), (3, 100000, False), (2, 2 ** 20, True),
    (2, 2 ** 20 + 1, False), (2, 359, False), (3, 400.0, False), (3, "400", False),
    (3, True, False), (2, np.int64(400), True),
])
def test_oracle_checks_its_resolution_before_building_a_grid(monkeypatch, n, resolution, allowed):
    # the grid constructors fail if reached, so no large grid is ever built
    def built(*args, **kwargs):
        raise _GridBuilt

    monkeypatch.setattr(np, "linspace", built)
    monkeypatch.setattr(np, "meshgrid", built)
    with pytest.raises(_GridBuilt if allowed else ValueError):
        oracle_search(np.eye(n), 2.5, resolution=resolution)


@pytest.mark.parametrize("flag", [True, np.True_])
def test_bool_exponents_are_rejected(flag):
    # a bool is no exponent, though float(True) == 1.0
    A = [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ValueError, match="exponent must be a number"):
        as_exponent(flag)
    with pytest.raises(ValueError, match="exponent must be a number"):
        certified_bound(A, flag)
    with pytest.raises(ValueError, match="exponent must be a number"):
        profile(A, grid=(flag, 2.0, INF))
    with pytest.raises(ValueError, match="exponent must be a number"):
        ascent_lower_bound(A, flag)
    with pytest.raises(ValueError, match="exponent must be a number"):
        ascent_lower_bound(A, (1.5, flag))


def test_best_lower_bound_prefers_anchor_tag_on_tie():
    v, tag, x = best_lower_bound(magic3(), 1, anchors=anchor_norms(magic3()))
    assert v == 15.0 and tag == "anchor" and x is None
    v, tag, x = best_lower_bound([[1, 2], [3, 4]], 1.5)
    assert tag == "boyd" and v > 0
    assert v == pytest.approx(vec_norm(np.array([[1, 2], [3, 4]]) @ x, 1.5), rel=1e-15)


def test_best_lower_bound_rejects_a_nonsquare_matrix_at_every_exponent():
    # an anchor exponent takes no ascent, which checks the shape elsewhere
    for p in (1.0, 1.5, 2.0, INF, (1.0, INF), ()):
        with pytest.raises(ValueError, match="matrix must be square"):
            best_lower_bound(np.ones((2, 3)), p, anchors=anchor_norms(magic3()))


def test_certified_bound_exact_cases():
    for p in (1, 1.5, 2, 4, INF):
        b = certified_bound(np.diag([1.0, 2.0]), p)
        assert (b.lower, b.upper) == (2.0, 2.0)
        m = certified_bound(magic3(), p)
        assert m.lower == pytest.approx(15.0, rel=1e-12)
        assert m.upper == pytest.approx(15.0, rel=1e-12)
        assert m.lower_provenance == ("anchor" if p in (1, INF) else "ones-vector")
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


def test_circulant_lower_end_is_the_larger_of_certificate_and_ascent():
    # the eigen certificate n2 is the first lower candidate at a non-anchor
    # exponent, so it wins a tie with the ascent; at the anchors the anchor
    # norm is the only one
    rng = np.random.default_rng(73)
    grid = default_grid()
    tags = set()
    for n in range(3, 17):
        analysis = analyze(densify(Circulant(random_complex(rng, n))))
        assert analysis.rule == "circulant"
        an = analysis.anchors
        pinned = {1.0: an.n1, 2.0: an.n2, math.inf: an.ninf}
        off = [p for p in grid if p.value not in pinned]
        ascents = iter(ascent_lower_bound(analysis.matrix, off, _uppers=[
            upper_bound_from_anchors(an, p).value for p in off]))
        lows = [(pinned[p.value], "anchor") if p.value in pinned else (next(ascents).value, "boyd")
                for p in grid]
        for p, b, (value, tag) in zip(grid, analysis.bounds(grid), lows):
            if p.value in (1.0, 2.0) or p.is_inf:
                assert (b.lower, b.lower_provenance, tag) == (value, "anchor", "anchor")
                continue
            assert b.lower.hex() == max(an.n2, value).hex()
            assert b.lower_provenance == ("eigen-certificate" if an.n2 >= value else "boyd")
            tags.add(b.lower_provenance)
    assert tags == {"eigen-certificate", "boyd"}


def test_every_rule_raises_on_a_lower_end_above_its_upper_end(monkeypatch):
    # with the segment halved off the anchors, the ascent's attained value
    # lies above the upper end; the one combine step catches it for the
    # matrix alone, as one block of a direct sum and as a tensor core
    segment = estimator.upper_bound_from_anchors

    def halved(anchors, p):
        up = segment(anchors, p)
        return up if up.provenance == "anchor" else up._replace(value=up.value / 2.0)

    monkeypatch.setattr(estimator, "upper_bound_from_anchors", halved)
    A = np.random.default_rng(74).standard_normal((6, 6))
    for M, rule in ((A, "general"), (direct_sum([A, [[1.0]]]), "direct-sum"),
                    (densify(TensorRankOne([1.0, -2.0], [1.0, 0.5], A)), "tensor")):
        analysis = analyze(M)
        assert analysis.rule == rule
        with pytest.raises(RuntimeError, match="bound inconsistency"):
            analysis.bounds((3,))


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


def _exact_schur_cube(A, x) -> Fraction:
    """max_j (A^T y^2)_j / x_j^2 with y = A x, in exact rationals."""
    n = len(x)
    F = [[Fraction(float(a)) for a in row] for row in A]
    X = [Fraction(float(v)) for v in x]
    y = [sum(F[i][j] * X[j] for j in range(n)) for i in range(n)]
    return max(sum(F[i][j] * y[i] ** 2 for i in range(n)) / X[j] ** 2 for j in range(n))


def test_schur_upper_holds_in_exact_arithmetic():
    # the Schur test at the ascent's own maximizer x, checked with fractions
    # from the float x: the returned upper end u has u^3 >= the exact value
    rng = np.random.default_rng(80)
    for _ in range(40):
        A = rng.integers(0, 10, (3, 3)).astype(float)
        b = certified_bound(A, 3)
        assert b.upper_provenance == "schur"
        x = np.abs(ascent_lower_bound(A, 3).maximizer)
        assert Fraction(b.upper) ** 3 >= _exact_schur_cube(A, x)
        assert b.lower <= b.upper <= upper_bound(A, 3).value


def test_schur_needs_a_positive_maximizer_and_a_nonnegative_matrix():
    B = np.array([[1.0, 2.0, 4.0], [3.0, 1.0, 1.0], [2.0, 5.0, 1.0]])
    zero_column = B.copy()
    zero_column[:, 2] = 0.0  # the maximizer's last entry is zero
    signed = B.copy()
    signed[0, 1] = -2.0
    complex_entry = B.astype(complex)
    complex_entry[0, 1] = 2j
    for p in (1.1, 1.5, 3.0, 7.0):
        assert certified_bound(B, p).upper_provenance == "schur"
        assert certified_bound(zero_column, p).upper_provenance == "riesz-thorin"
        for M in (signed, complex_entry):
            assert certified_bound(M, p).upper_provenance != "schur"
    assert analyze(B).nonnegative
    assert not analyze(signed).nonnegative and not analyze(complex_entry).nonnegative


def test_certified_bound_zero_matrix():
    b = certified_bound(np.zeros((3, 3)), 2.5)
    assert (b.lower, b.upper) == (0.0, 0.0)


def test_certified_bound_validation():
    with pytest.raises(ValueError):
        certified_bound(np.ones((2, 3)), 2)
