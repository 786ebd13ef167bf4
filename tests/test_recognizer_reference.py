"""The array-pass recognizers against the per-cut, per-root and per-divisor
loops they replace.

The loops below are kept as reference implementations.  Hypothesis draws
block-sparse matrices with exact zeros (``-0.0`` and ``0j`` among them),
aligned circulants perturbed by eps * _LA_ALIGN_TOL and exact or nearly
exact rank-one block tensors perturbed by eps * REL_TOL (eps in [0.1, 10]),
real and complex, at scales from 1e-310 to 1e300, and requires the same
verdict and the same bits.  A subnormal circulant overflowed the loop's
witness phase, so the root search is compared with the loop on the same
coefficients brought to modulus [0.5, 1) by an exact power of two, and, at
scales where no product of the loop leaves the normal range, on the
coefficients themselves.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnorm.core import REL_TOL, as_matrix
from opnorm.structured import (
    _LA_ALIGN_TOL,
    Circulant,
    HankelMod,
    _common_multiple,
    _fourier_grid,
    _root_powers,
    as_tensor_rank_one,
    circulant_two_norm,
    classify_circulant_la,
    split_direct_sum,
)

_settings = settings(derandomize=True, database=None, deadline=None, max_examples=150)


# ---------------------------------------------------------------------------
# reference implementations: the loops the recognizers replaced

def split_reference(A) -> list:
    M = as_matrix(A)
    n = M.shape[0]
    cuts = [k for k in range(1, n)
            if not M[:k, k:].any() and not M[k:, :k].any()]
    edges = [0, *cuts, n]
    return [M[a:b, a:b] for a, b in zip(edges[:-1], edges[1:])]


def la_reference(coeffs) -> tuple:
    """(is_la, beta, omega, norm) of the per-root loop."""
    a = np.asarray(coeffs, dtype=complex)
    n = a.size
    mods = np.abs(a)
    scale = float(mods.max())
    if scale == 0.0:
        return True, 1.0 + 0.0j, 1.0 + 0.0j, 0.0
    i0 = int(np.argmax(mods > 0.0))
    idx = np.arange(n)
    bound = _LA_ALIGN_TOL * scale
    for k in range(n):
        omega_pows = np.exp(2j * np.pi * k * idx / n)
        beta = a[i0] * omega_pows[i0] / mods[i0]
        if float(np.abs(a * omega_pows - beta * mods).max()) <= bound:
            return True, complex(beta), complex(np.exp(2j * np.pi * k / n)), float(mods.sum())
    return False, None, None, None


def two_norm_reference(coeffs) -> float:
    n = coeffs.size
    grid = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    return float(np.abs(grid @ coeffs).max())


def tensor_reference(A):
    """(alpha, beta, core) of the per-divisor scan, or None."""
    M = as_matrix(A)
    n_total = M.shape[0]
    if n_total < 2 or not np.any(M):
        return None
    for nb in range(2, n_total + 1):
        if n_total % nb:
            continue
        m = n_total // nb
        blocks = M.reshape(nb, m, nb, m).swapaxes(1, 2)
        fit = _common_multiple(blocks.reshape(nb * nb, m * m))
        if fit is None:
            continue
        coef, ref = fit
        C = coef.reshape(nb, nb)
        i0, j0 = np.unravel_index(int(np.argmax(np.abs(C))), C.shape)
        pivot = C[i0, j0]
        u = C[:, j0]
        v = C[i0, :] / pivot
        if float(np.abs(C - np.outer(u, v)).max()) > REL_TOL * float(np.abs(C).max()):
            continue
        return u, np.conj(v), ref.reshape(m, m)
    return None


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


def _unit(x: np.ndarray) -> np.ndarray:
    """x times the power of two that brings its largest modulus into [0.5, 1)."""
    k = -math.frexp(float(np.abs(x).max()))[1]
    return np.ldexp(x.real, k) + 1j * np.ldexp(x.imag, k)


# ---------------------------------------------------------------------------
# draws

_scales = st.floats(-310.0, 300.0).map(lambda e: 10.0 ** e)
_zeros = st.sampled_from([0.0, -0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0)])


def _values(draw, shape, complex_entries: bool) -> np.ndarray:
    count = int(np.prod(shape))
    re = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=count, max_size=count)))
    out = re.astype(complex)
    if complex_entries:
        out += 1j * np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=count,
                                           max_size=count)))
    return out.reshape(shape)


@st.composite
def _block_sparse(draw):
    """Blocks along the diagonal, exact zeros elsewhere, now and then a
    stray off-block entry, a zero row or a zero column."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = sum(sizes)
    cplx = draw(st.booleans())
    A = np.empty((n, n), dtype=object)
    zeros = draw(st.lists(_zeros, min_size=n * n, max_size=n * n))
    for k in range(n * n):
        A.flat[k] = zeros[k]
    at = 0
    for k in sizes:
        block = _values(draw, (k, k), cplx)
        A[at:at + k, at:at + k] = block
        at += k
    if draw(st.integers(0, 2)) == 0:
        A[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = 1.0
    if draw(st.integers(0, 3)) == 0:
        A[draw(st.integers(0, n - 1)), :] = -0.0
    if draw(st.integers(0, 3)) == 0:
        A[:, draw(st.integers(0, n - 1))] = 0j
    return np.array(A.tolist(), dtype=complex) * draw(_scales)


@st.composite
def _aligned_circulants(draw):
    """c_i = beta |c_i| w^-i, w an n-th root of unity, some |c_i| zero, with
    one or all coefficients moved by eps * _LA_ALIGN_TOL * max |c|."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n - 1))
    mods = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.5, 2.0)),
                                  min_size=n, max_size=n)))
    beta = np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))
    c = beta * mods * np.exp(-2j * np.pi * k * np.arange(n) / n)
    if draw(st.booleans()):
        eps = draw(st.floats(0.1, 10.0))
        theta = draw(st.floats(0.0, 2 * np.pi))
        where = slice(None) if draw(st.booleans()) else draw(st.integers(0, n - 1))
        c[where] += eps * _LA_ALIGN_TOL * max(float(mods.max()), 1.0) * np.exp(1j * theta)
    if draw(st.booleans()):
        c = c.real.astype(complex)
    return c * draw(_scales)


@st.composite
def _tensors(draw):
    """kron(outer(alpha, conj beta), core) with n = nb * m having several
    divisors (m = 1 gives outer products), exact or with one entry or all
    entries moved by eps * REL_TOL * max |A|, zero factor entries allowed."""
    nb, m = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 3), (6, 1), (12, 1),
                                  (2, 6), (3, 4), (4, 1), (8, 1), (2, 4)]))
    cplx = draw(st.booleans())
    factor = st.one_of(st.just(0.0), st.floats(0.5, 2.0), st.floats(-2.0, -0.5))
    a = np.array(draw(st.lists(factor, min_size=nb, max_size=nb)), dtype=complex)
    b = np.array(draw(st.lists(factor, min_size=nb, max_size=nb)), dtype=complex)
    if cplx:
        a = a * np.exp(1j * np.array(draw(st.lists(st.floats(0, 6.3), min_size=nb,
                                                     max_size=nb))))
    A = np.kron(np.outer(a, np.conj(b)), _values(draw, (m, m), cplx))
    if draw(st.booleans()):
        n = nb * m
        eps = draw(st.floats(0.1, 10.0)) * REL_TOL * max(float(np.abs(A).max()), 1e-300)
        if draw(st.booleans()):
            A[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += eps
        else:
            A = A + eps * _values(draw, (n, n), cplx) / 2.0
    return A * draw(_scales)


# ---------------------------------------------------------------------------
# properties

@_settings
@given(_block_sparse())
def test_split_matches_the_per_cut_scan(A):
    got, want = split_direct_sum(A), split_reference(A)
    assert isinstance(got, list)
    assert [_bits(B) for B in got] == [_bits(B) for B in want]


@_settings
@given(_aligned_circulants())
def test_root_search_matches_the_per_root_loop(c):
    w = classify_circulant_la(Circulant(c))
    got = (w.is_la, w.beta, w.omega, w.norm)
    if not np.any(c):
        assert got == la_reference(c) and w.degenerate
        return
    want = la_reference(_unit(c))
    assert got[:3] == want[:3]
    if w.is_la:
        assert w.norm == float(np.abs(c).sum())
    if 1e-250 <= float(np.abs(c).max()) <= 1e250:
        assert got == la_reference(c)
        assert circulant_two_norm(Circulant(c)) == two_norm_reference(c)


def _same_tensor(A) -> None:
    t, want = as_tensor_rank_one(A), tensor_reference(A)
    assert (t is None) == (want is None)
    if t is not None:
        assert [_bits(x) for x in (t.alpha, t.beta, t.core)] == [_bits(x) for x in want]


@settings(_settings, max_examples=300)
@given(st.one_of(_tensors(), _block_sparse()))
def test_tensor_scan_matches_the_per_divisor_scan(A):
    _same_tensor(A)


def test_tensor_scan_matches_below_the_drawn_scales():
    # deep in the subnormal range the full fit's own rounding exceeds
    # REL_TOL * max|A|, and the screen must still pass what it accepts
    rng = np.random.default_rng(5)
    for trial in range(400):
        nb, m = [(2, 2), (2, 3), (3, 2), (4, 1), (2, 1)][trial % 5]
        core = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) * (trial % 2)
        A = np.kron(np.outer(rng.uniform(0.5, 2, nb), rng.uniform(0.5, 2, nb)), core)
        A = A * 10.0 ** rng.uniform(-323.5, -311.0)
        if A.any():
            _same_tensor(A)


# ---------------------------------------------------------------------------
# the per-size tables

@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_root_table_rows_are_the_loop_rows(n):
    table = _root_powers(n)
    assert not table.flags.writeable
    for k in range(n):
        assert _bits(table[k]) == _bits(np.exp(2j * np.pi * k * np.arange(n) / n))


@pytest.mark.parametrize("n", [1, 3, 8])
def test_size_tables_are_read_only_and_cached(n):
    for table in (_root_powers, _fourier_grid, Circulant._index, HankelMod._index):
        assert table(n) is table(n)
        assert not table(n).flags.writeable
    assert not np.array_equal(Circulant._index(3), HankelMod._index(3))
    for cached in (_root_powers, _fourier_grid, Circulant._index):
        assert cached.cache_info().maxsize is not None


@pytest.mark.parametrize("s", [1e-310, 1e-320, 1e300])
def test_circulant_two_norm_follows_the_scale(s):
    c = np.array([1.0, 2.0 - 1.0j, 0.5j, -3.0])
    want = two_norm_reference(c)
    rel = 1e-3 if s < 1e-315 else 1e-12  # 1e-320 keeps about four digits
    assert circulant_two_norm(Circulant(s * c)) == pytest.approx(s * want, rel=rel)

