"""The array-pass recognizers against the per-cut, per-root and per-divisor
loops they replace, and the early-rejecting recognizers against the full
tests they put a screen in front of.

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

Each recognizer that ``analyze`` runs first tests a necessary condition of
its full test on a few rows (a "screen").  The full tests as they stood
before the screens are kept below as references: the doubly balanced test,
the cyclic layouts, the tensor's block-size scan and the root search over
the whole n x n block.  Hypothesis draws exactly structured matrices and
ones with one entry moved by eps times the test's tolerance (eps in
[0.1, 10]), in a row the screen reads and in one it does not, real and
complex, at scales from 1e-310 to 1e300, and requires the same verdict and
the same bits.  A move outside the screened rows by more than the
tolerance passes the screen and fails the full test.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opnorm.core import REL_TOL, _unit_scale, as_matrix, as_square
from opnorm.structured import (
    _LA_ALIGN_TOL,
    _SHIFT_SLACK,
    _SHIFT_SUBNORMAL_ULPS,
    Circulant,
    HankelMod,
    _block_sizes_fit,
    _common_multiple,
    _fourier_grid,
    _root_powers,
    as_circulant,
    as_hankel,
    as_tensor_rank_one,
    circulant_two_norm,
    classify_circulant_la,
    densify,
    doubly_balanced_norm,
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


# ---------------------------------------------------------------------------
# reference implementations: the full tests without their screens

def balanced_reference(A):
    M = as_square(A)
    top = float(np.abs(M).max())
    tol = 1e-12 * top
    if float(np.abs(M.imag).max()) > tol:
        return None
    if float(M.real.min()) < -tol:
        return None
    R, k = _unit_scale(np.maximum(M.real, 0.0), top)
    rows = R.sum(axis=1)
    cols = R.sum(axis=0)
    alpha = math.fsum(rows.tolist()) / len(rows)
    if alpha == 0.0:
        return 0.0
    dev = max(float(np.abs(rows - alpha).max()), float(np.abs(cols - alpha).max()))
    if dev <= 1e-9 * alpha:
        return alpha * 2.0 ** -k
    return None


def cyclic_reference(A, kind):
    M = as_matrix(A)
    n, m = M.shape
    if n != m:
        return None
    coeffs = M[0, :]
    with np.errstate(over="ignore"):
        if float(np.abs(M - coeffs[kind._index(n)]).max()) <= REL_TOL * float(np.abs(M).max()):
            return kind(coeffs)
    return None


def block_sizes_reference(M, sizes) -> list:
    n = M.shape[0]
    mags = np.abs(M)
    r0, c0 = divmod(int(np.argmax(mags)), n)
    top = float(mags[r0, c0])
    rows, k = _unit_scale(M[(r0 + np.array([0, *sizes])) % n], top)
    x, Y = rows[0], rows[1:]
    resid = np.abs(Y - (Y[:, c0] / x[c0])[:, None] * x).max(axis=1)
    tol = _SHIFT_SLACK * REL_TOL * math.ldexp(top, k) + math.ldexp(_SHIFT_SUBNORMAL_ULPS, k - 1074)
    fits = []
    for m, r in zip(sizes, resid.tolist()):
        if r > tol:
            continue
        if m > 1:
            segments = x.reshape(-1, m)
            j0, t0 = divmod(c0, m)
            ref = segments[j0]
            if float(np.abs(segments - (segments[:, t0] / ref[t0])[:, None] * ref).max()) > tol:
                continue
        fits.append(m)
    return fits


def la_block_reference(coeffs) -> tuple:
    """(is_la, beta, omega, norm, degenerate) of the search over the whole
    n x n block."""
    c = Circulant(coeffs)
    a = _unit_scale(c.coeffs)[0]
    amods = np.abs(a)
    top = float(amods.max())
    if top == 0.0:
        return True, 1.0 + 0.0j, 1.0 + 0.0j, 0.0, True
    i0 = int(np.argmax(amods > 0.0))
    e = -math.frexp(float(amods[i0]))[1]
    pivot = complex(math.ldexp(a[i0].real, e), math.ldexp(a[i0].imag, e))
    pmod = math.ldexp(float(amods[i0]), e)
    bound = _LA_ALIGN_TOL * top
    table = _root_powers(c.n)
    betas = pivot * table[:, i0] / pmod
    resid = np.abs(a * table - betas[:, None] * amods).max(axis=1)
    for k in np.flatnonzero(resid <= 2.0 * bound).tolist():
        omega_pows = table[k]
        beta = pivot * omega_pows[i0] / pmod
        if float(np.abs(a * omega_pows - beta * amods).max()) <= bound:
            omega = complex(np.exp(2j * np.pi * k / c.n))
            return True, complex(beta), omega, float(np.abs(c.coeffs).sum()), False
    return False, None, None, None, False


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


def _site(draw, n: int, screened: tuple) -> tuple[int, int]:
    """An entry in a row the screen reads, or in a row it does not."""
    rest = [i for i in range(n) if i not in screened]
    rows = rest if rest and draw(st.booleans()) else sorted(set(screened))
    return draw(st.sampled_from(rows)), draw(st.integers(0, n - 1))


@st.composite
def _balanced(draw):
    """Weighted sums of permutation matrices, whose line sums all agree, or
    generic matrices; exact, or with one entry moved by eps times the
    tolerance of the imaginary-part, sign or line-sum test, in row 0 (the
    screened row) or below it."""
    n = draw(st.integers(1, 6))
    cplx = draw(st.booleans())
    if draw(st.integers(0, 3)) == 0:
        A = _values(draw, (n, n), cplx)
    else:
        A = np.zeros((n, n), dtype=complex)
        for _ in range(draw(st.integers(1, 3))):
            A[np.arange(n), draw(st.permutations(range(n)))] += draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        eps = draw(st.floats(0.1, 10.0))
        i, j = _site(draw, n, (0,))
        test = draw(st.sampled_from(["imaginary", "sign", "sum"]))
        if test == "imaginary":
            A[i, j] += 1j * eps * 1e-12 * float(np.abs(A).max())
        elif test == "sign":
            A[i, j] = -eps * 1e-12 * float(np.abs(A).max())
        else:
            A[i, j] += eps * 1e-9 * float(np.abs(A[0]).sum())
    return (A if cplx or A.imag.any() else A.real) * draw(_scales)


@st.composite
def _layouts(draw):
    """Circulant and cyclic Hankel layouts, exact or with one entry moved by
    eps * REL_TOL * max|A| in row 0 or n - 1 (the rows the screen reads) or
    in another row, or generic matrices."""
    n = draw(st.integers(1, 8))
    cplx = draw(st.booleans())
    if draw(st.integers(0, 3)) == 0:
        A = _values(draw, (n, n), cplx)
    else:
        A = densify(draw(st.sampled_from([Circulant, HankelMod]))(_values(draw, (n,), cplx)))
    if draw(st.booleans()):
        eps = draw(st.floats(0.1, 10.0))
        i, j = _site(draw, n, (0, n - 1))
        theta = draw(st.floats(0.0, 2 * np.pi))
        A[i, j] += eps * REL_TOL * float(np.abs(A).max()) * np.exp(1j * theta)
    return A * draw(_scales)


@st.composite
def _generic_coeffs(draw):
    n = draw(st.integers(1, 12))
    return _values(draw, (n,), draw(st.booleans())) * draw(_scales)


def _moved(A, i: int, j: int, by: complex) -> np.ndarray:
    A = np.array(A, dtype=complex)
    A[i, j] += by
    return A


_C4 = densify(Circulant([1.0, 2.0 - 1.0j, 0.5j, -3.0]))
_M4 = np.array([[1, 2, 15, 16], [13, 14, 3, 4], [12, 7, 10, 5], [8, 11, 6, 9]], dtype=float)
_ALIGNED5 = 1.5 * np.exp(-2j * np.pi * 2 * np.arange(5) / 5)  # log-affine at the root k = 2


# ---------------------------------------------------------------------------
# properties

# each pair of examples below moves one entry by five times the tolerance:
# in a row the screen reads, which the screen rejects, and outside them,
# which passes the screen and fails the full test
@_settings
@given(_balanced())
@example(_M4)
@example(_moved(_M4, 0, 1, 5e-12j * 16))
@example(_moved(_M4, 2, 1, 5e-12j * 16))
# row 0's sum moved off column 0's by 1.2e-9 and 1.99e-9 of the line sum:
# the full test accepts both, so the sum screen must pass them
@example(_moved(_M4, 0, 1, 1.2e-9 * 34))
@example(_moved([[1.0, 2.0], [2.0, 1.0]], 0, 1, 1.99e-9 * 3))
def test_balanced_screen_keeps_the_full_test(A):
    got, want = doubly_balanced_norm(A), balanced_reference(A)
    assert (got is None) == (want is None)
    if got is not None:
        assert _bits(got) == _bits(want)


def test_balanced_screen_keeps_the_full_test_on_nonnegative_draws():
    # real nonnegative matrices that are not balanced pass the sign test
    # and are rejected by the sums, now from row 0 and column 0
    for n in range(2, 65):
        A = np.abs(np.random.default_rng(n).standard_normal((n, n)))
        assert doubly_balanced_norm(A) is None and balanced_reference(A) is None, n


@_settings
@given(_layouts())
@example(_C4)
@example(_moved(_C4, 3, 2, 5e-12 * 3.0))
@example(_moved(_C4, 1, 2, 5e-12 * 3.0))
def test_layout_screen_keeps_the_full_test(A):
    for kind, recognize in ((Circulant, as_circulant), (HankelMod, as_hankel)):
        got, want = recognize(A), cyclic_reference(A, kind)
        assert (got is None) == (want is None)
        if got is not None:
            assert type(got) is kind and _bits(got.coeffs) == _bits(want.coeffs)


def _witness_bits(w: tuple) -> list:
    return [x if isinstance(x, bool) or x is None else _bits(x) for x in w]


# the screened column of an aligned coefficient vector is the one after the
# pivot: a move there is rejected by the column, a move at index 3 passes
# the column and fails the lone row
@_settings
@given(st.one_of(_aligned_circulants(), _generic_coeffs()))
@example(_ALIGNED5)
@example(_ALIGNED5 + np.array([0, 7.5e-9, 0, 0, 0]))
@example(_ALIGNED5 + np.array([0, 0, 0, 7.5e-9, 0]))
def test_root_search_keeps_the_block_search(c):
    w = classify_circulant_la(Circulant(c))
    got = (w.is_la, w.beta, w.omega, w.norm, w.degenerate)
    assert _witness_bits(got) == _witness_bits(la_block_reference(c))


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
    M = as_matrix(A)
    n = M.shape[0]
    if n > 1:
        sizes = [n // nb for nb in range(2, n + 1) if n % nb == 0]
        want_sizes = block_sizes_reference(M, sizes) if M.any() else []
        assert list(_block_sizes_fit(M, sizes)) == want_sizes
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

