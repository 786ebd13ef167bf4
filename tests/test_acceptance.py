"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each criterion is a single test whose name describes the guarantee.
"""

import math
import time

import numpy as np
from conftest import random_complex

from opnorm.core import INF, as_exponent, dual_exponent, vec_norm
from opnorm.estimator import ascent_lower_bound, certified_bound, oracle_norm
from opnorm.exact import norm_inf, norm_one, norm_two
from opnorm.interp import default_grid, profile, upper_bound
from opnorm.structured import (
    Circulant,
    HankelMod,
    as_unitary_permutation,
    block_grid_bound,
    circulant_two_norm,
    classify_circulant_la,
    densify,
    direct_sum,
    hankel_factor,
    magic3,
    magic4,
    random_unitary_permutation,
)

_GRID7 = (1.0, 1.25, 1.5, 2.0, 3.0, 8.0, INF)


def _criterion(num: int, label: str, fn) -> None:
    try:
        ok = bool(fn())
    except Exception:
        print(f"FAIL criterion {num:02d}: {label} (exception)")
        raise
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {label}")
    assert ok, f"criterion {num:02d}: {label}"


def test_criterion_01_balanced_squares_exact_at_all_exponents():
    def run():
        t0 = time.perf_counter()
        for M, want in ((magic3(), 15.0), (magic4(), 34.0)):
            for p in _GRID7:
                b = certified_bound(M, p)
                assert abs(b.lower - want) <= 1e-9 * want, (p, b.lower)
                assert abs(b.upper - want) <= 1e-9 * want, (p, b.upper)
                assert b.width <= 1e-9 * want
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        return True

    _criterion(1, "balanced line sums give exact norms at every exponent", run)


def test_criterion_02_block_tensor_with_zero_factor_entry():
    def run():
        alpha = np.array([1.0, 1j, 0.0])
        beta = np.array([1.0, -1.0, 1j])
        core = np.array([[1.0, 3.0], [3.0, 1.0]])
        M = np.kron(np.outer(alpha, np.conj(beta)), core)
        for p in (1.0, 2.0, 4.0, INF):
            t = as_exponent(p).reciprocal
            want = 4.0 * 2.0 ** t * 3.0 ** (1.0 - t)
            b = certified_bound(M, p)
            assert abs(b.lower - want) <= 1e-6 * want, (p, b.lower, want)
            assert abs(b.upper - want) <= 1e-6 * want, (p, b.upper, want)
        return True

    _criterion(2, "6x6 block tensor matches 4 * 2^(1/p) * 3^(1-1/p)", run)


def test_criterion_03_sign_block_tensor_anchors_and_two_norm():
    def run():
        M = np.array([[1, 3, 2, 6], [3, 1, 6, 2],
                      [-1, -3, -2, -6], [-3, -1, -6, -2]], dtype=float)
        assert norm_one(M) == 16.0
        assert norm_inf(M) == 12.0
        want2 = 4.0 * math.sqrt(10.0)
        assert abs(ascent_lower_bound(M, 2).value - want2) <= 1e-4

        # a nearby closed form with the dual exponent misplaced in the second
        # factor must NOT reproduce the certified values
        def misplaced(p: float) -> float:
            return 4.0 * 2.0 ** (1 / p) * (1.0 + 2.0 ** (1 - 1 / p)) ** (1 - 1 / p)

        for p in (1.0, 2.0):
            assert abs(certified_bound(M, p).lower - misplaced(p)) > 1e-3
        return True

    _criterion(3, "4x4 sign tensor: anchors 16/12, two-norm 4*sqrt(10), "
                  "misplaced-exponent form rejected", run)


def test_criterion_04_circulant_spectrum_matches_dense_two_norm():
    def run():
        rng = np.random.default_rng(40)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            c = Circulant(random_complex(rng, n))
            fast = circulant_two_norm(c)
            dense = norm_two(densify(c))
            assert abs(fast - dense) <= 1e-9 * max(1.0, dense), (n, fast, dense)
        return True

    _criterion(4, "circulant spectral values match the dense two-norm solver", run)


def test_criterion_05_circulant_alignment_classification():
    def run():
        rng = np.random.default_rng(50)
        for _ in range(100):  # aligned by construction
            n = int(rng.integers(2, 9))
            k = int(rng.integers(n))
            omega = np.exp(-2j * np.pi * k / n)
            beta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            mods = rng.uniform(0.1, 3.0, n)
            c = Circulant(beta * mods * omega ** np.arange(n))
            w = classify_circulant_la(c)
            assert w.is_la
            assert abs(w.norm - mods.sum()) <= 1e-9 * mods.sum()
            resid = np.abs(c.coeffs * w.omega ** np.arange(n)
                           - w.beta * np.abs(c.coeffs)).max()
            assert resid <= 1e-9 * mods.max()
            assert abs(circulant_two_norm(c) - mods.sum()) <= 1e-9 * mods.sum()

        rng = np.random.default_rng(51)
        for _ in range(100):  # generic: strictly below the coefficient sum
            n = int(rng.integers(2, 9))
            c = Circulant(random_complex(rng, n))
            assert not classify_circulant_la(c).is_la
            assert circulant_two_norm(c) < float(np.abs(c.coeffs).sum())
        return True

    _criterion(5, "aligned circulants classified with witnesses, generic ones rejected", run)


def test_criterion_06_ascent_between_oracle_and_upper_bound():
    def run():
        t0 = time.perf_counter()
        rng = np.random.default_rng(60)
        for n, count in ((2, 50), (3, 20)):
            for _ in range(count):
                A = rng.standard_normal((n, n))
                for p in (1.3, 2.0, 2.7, 5.0):
                    lo = ascent_lower_bound(A, p).value
                    up = upper_bound(A, p).value
                    orc = oracle_norm(A, p)
                    assert lo >= orc * (1.0 - 1e-4), (n, p, lo, orc)
                    assert lo <= up * (1.0 + 1e-9), (n, p, lo, up)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        return True

    _criterion(6, "ascent reaches the brute-force oracle and stays under the "
                  "upper bound on real 2x2/3x3", run)


def test_criterion_07_cyclic_hankel_shares_norms_with_circulant_factor():
    def run():
        rng = np.random.default_rng(70)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            h = HankelMod(random_complex(rng, n))
            perm, circ = hankel_factor(h)
            assert np.array_equal(densify(h), densify(perm) @ densify(circ))
            for p in default_grid():
                bh = certified_bound(densify(h), p)
                bc = certified_bound(densify(circ), p)
                assert (bh.lower, bh.upper) == (bc.lower, bc.upper), (n, p)
        return True

    _criterion(7, "cyclic Hankel layouts certify identically to their circulant factor", run)


def test_criterion_08_profiles_convex_unimodal_symmetric_minimum_at_two():
    def run():
        rng = np.random.default_rng(80)
        mats = [
            magic3(),
            np.array([[1.0, 1.0], [0.0, 0.0]]),
            densify(Circulant([1.0, 1j, 0.5])),
            np.array([[1, 3, 2, 6], [3, 1, 6, 2],
                      [-1, -3, -2, -6], [-3, -1, -6, -2]], dtype=float),
            random_complex(rng, 3, 3),
            random_complex(rng, 4, 4),
        ]
        for M in mats:
            prof = profile(M)
            assert prof.log_convex, "chord test failed"
            assert prof.unimodal, "upper envelope not unimodal"

        S = np.random.default_rng(81).standard_normal((4, 4))
        S = S + S.T
        prof = profile(S)
        uppers = [b.upper for b in prof.bounds]
        raw = min(range(len(uppers)), key=uppers.__getitem__)
        assert prof.grid[raw].value == 2.0, "raw grid argmin away from p=2"
        assert prof.p0_estimate.value == 2.0
        return True

    _criterion(8, "profiles pass convexity/unimodality; symmetric minimum sits at p=2", run)


def test_criterion_09_phased_permutations_preserve_norms_detector_strict():
    def run():
        rng = np.random.default_rng(90)
        for trial in range(50):
            S = random_unitary_permutation(int(rng.integers(2, 8)), seed=90 + trial)
            D = densify(S)
            assert as_unitary_permutation(D) is not None
            for _ in range(10):
                x = random_complex(rng, S.n)
                for p in (1.0, 1.5, 2.0, 4.0, INF):
                    a, b = vec_norm(D @ x, p), vec_norm(x, p)
                    assert abs(a - b) <= 1e-12 * max(1.0, b), (p, a, b)
            bad = D.copy()
            i = int(np.argmax(np.abs(bad).sum(axis=1)))
            bad[i, :] *= 1.001
            assert as_unitary_permutation(bad) is None
        return True

    _criterion(9, "phased permutations preserve every p-norm; detector rejects "
                  "off-modulus copies", run)


def test_criterion_10_direct_sums_and_block_grid_domination():
    def run():
        rng = np.random.default_rng(100)
        for _ in range(20):
            parts = [random_complex(rng, 2, 2), random_complex(rng, 3, 3)]
            M = direct_sum(parts)
            for p in (1.5, 3.0):
                b = certified_bound(M, p)
                sub = [certified_bound(P, p) for P in parts]
                assert b.lower == max(s.lower for s in sub), p
                assert b.upper == max(s.upper for s in sub), p

        for _ in range(20):
            blocks = [[random_complex(rng, 2, 2) for _ in range(2)] for _ in range(2)]
            M = np.block(blocks)
            for p in (1.5, 3.0):
                grid = [[certified_bound(blocks[i][j], p).upper for j in range(2)]
                        for i in range(2)]
                assert block_grid_bound(grid, p) >= ascent_lower_bound(M, p).value * (1 - 1e-9)
        return True

    _criterion(10, "direct sums certify as the max over parts; block grid "
                   "bound dominates the ascent value", run)
