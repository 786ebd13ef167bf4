"""Structured matrix families with exact or certified p-norm rules.

Conventions (all indices 0-based, cyclic arithmetic mod n):

* ``UnitaryPermutation``: row i carries the unimodular entry phases[i] in
  column sigma[i].  These preserve every vector p-norm.
* ``Circulant``: dense entry (i, j) is coeffs[(j - i) mod n]; equivalently
  sum_i coeffs[i] * S^i for the cyclic shift S.  Its spectrum is the
  coefficient polynomial evaluated at the n-th roots of unity.
* ``HankelMod``: dense entry (i, j) is coeffs[(i + j) mod n]; it factors as
  a phase-free unitary permutation times the circulant with the same
  coefficients, so the two share every operator p-norm.  The two layouts
  differ only in the sign of i, and share one index map and one recognizer.
* ``TensorRankOne``: block (i, j) is alpha[i] * conj(beta[j]) * core; its
  p-norm is ||alpha||_p * ||beta||_q * ||core||_p with q the dual exponent.

A circulant is *logarithmic affine* exactly when one global phase beta and
one n-th root of unity omega align every coefficient: coeffs[i] * omega^i =
beta * |coeffs[i]|; its norm is then sum |coeffs[i]| for every p.

Each recognizer that ``analyze`` runs rejects most matrices early: after at
most one modulus pass, it tests a necessary condition of its full test on a
few rows (one coefficient column for the root search), with the full test's
own elementwise expressions, and runs the full test only when that passes.
A verdict and a witness are those of the full test alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .core import (REL_TOL, _check_seed, _unit_scale, as_exponent, as_matrix, as_square,
                   as_vector, dual_exponent, vec_norm)

__all__ = [
    "Circulant",
    "HankelMod",
    "LAWitness",
    "TensorRankOne",
    "UnitaryPermutation",
    "as_circulant",
    "as_hankel",
    "as_tensor_rank_one",
    "as_unitary_permutation",
    "block_grid_bound",
    "circulant_two_norm",
    "classify_circulant_la",
    "column_embed",
    "densify",
    "direct_sum",
    "doubly_balanced_norm",
    "hankel_factor",
    "magic3",
    "magic4",
    "random_unitary_permutation",
    "row_embed",
    "split_direct_sum",
    "tensor_norm",
]

#: Alignment tolerance of the circulant log-affine witness, relative to the
#: largest coefficient modulus.
_LA_ALIGN_TOL = 1e-9

#: Slack of the block-size screen in ``as_tensor_rank_one``, in units of
#: REL_TOL * top (top = max|A|).  A matrix that passes both REL_TOL tests of
#: the full fit (each block within REL_TOL top of its multiple of the
#: reference block; the scalar grid, whose entries are at most 1 + REL_TOL,
#: within REL_TOL of its rank-one part) lies entrywise within
#: d = (2 + REL_TOL) REL_TOL top of an exact tensor.  Rows r0 and r0 + m of
#: that tensor are proportional, and so are the m-segments of row r0; with
#: row r0 holding top, a ratio read at top's column leaves a residual of at
#: most 4 d / (1 - d / top), below 8.0001 REL_TOL top.  9 leaves room for
#: the rounding of both fits.
_SHIFT_SLACK = 9.0
#: Absolute allowance, in units of the smallest subnormal, for the rounding
#: of the full fit's products when the matrix itself is subnormal.
_SHIFT_SUBNORMAL_ULPS = 32


@dataclass(frozen=True, eq=False)
class UnitaryPermutation:
    """Phased permutation: row i has the entry phases[i] in column sigma[i]."""

    sigma: tuple[int, ...]
    phases: np.ndarray

    def __post_init__(self) -> None:
        sig = tuple(int(s) for s in self.sigma)
        n = len(sig)
        if sorted(sig) != list(range(n)):
            raise ValueError("sigma must be a permutation of 0..n-1")
        ph = as_vector(self.phases)
        if ph.size != n:
            raise ValueError("phases length must match sigma")
        if np.abs(np.abs(ph) - 1.0).max() > REL_TOL:
            raise ValueError("phases must have modulus 1")
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "phases", ph)

    @property
    def n(self) -> int:
        return len(self.sigma)

    def dense(self) -> np.ndarray:
        M = np.zeros((self.n, self.n), dtype=np.complex128)
        M[np.arange(self.n), list(self.sigma)] = self.phases
        return M


@dataclass(frozen=True, eq=False)
class _CyclicLayout:
    """Coefficients laid out cyclically: dense entry (i, j) is
    coeffs[(j + sign * i) mod n], with the sign fixed by the subclass."""

    coeffs: np.ndarray
    _sign: ClassVar[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", as_vector(self.coeffs))

    @property
    def n(self) -> int:
        return self.coeffs.size

    @classmethod
    @lru_cache(maxsize=32)  # bounded: one n x n table per (layout, n)
    def _index(cls, n: int) -> np.ndarray:
        """Read-only n x n array of the coefficient index at each dense entry."""
        index = (np.arange(n)[None, :] + cls._sign * np.arange(n)[:, None]) % n
        index.flags.writeable = False
        return index

    def dense(self) -> np.ndarray:
        return np.ascontiguousarray(self.coeffs[self._index(self.n)])


@dataclass(frozen=True, eq=False)
class Circulant(_CyclicLayout):
    """Coefficients (a_0 .. a_{n-1}) of sum_i a_i S^i, S the cyclic shift:
    dense entry (i, j) is coeffs[(j - i) mod n]."""

    _sign = -1


@dataclass(frozen=True, eq=False)
class HankelMod(_CyclicLayout):
    """Cyclic Hankel form: dense entry (i, j) is coeffs[(i + j) mod n]."""

    _sign = 1


@dataclass(frozen=True, eq=False)
class TensorRankOne:
    """Block matrix whose (i, j) block is alpha[i] * conj(beta[j]) * core."""

    alpha: np.ndarray
    beta: np.ndarray
    core: np.ndarray

    def __post_init__(self) -> None:
        a = as_vector(self.alpha)
        b = as_vector(self.beta)
        if a.size != b.size:
            raise ValueError("alpha and beta must have the same length")
        core = as_square(self.core)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "core", core)

    def dense(self) -> np.ndarray:
        return np.kron(np.outer(self.alpha, np.conj(self.beta)), self.core)


@dataclass(frozen=True)
class LAWitness:
    """Outcome of the circulant logarithmic-affine test.

    When ``is_la`` holds, beta (unimodular) and omega (an n-th root of unity)
    witness coeffs[i] * omega^i = beta * |coeffs[i]| for all i, and ``norm``
    is the exact operator norm sum |coeffs[i]|, valid at every exponent.
    The all-zero coefficient vector is degenerately LA with norm 0.
    """

    is_la: bool
    beta: complex | None = None
    omega: complex | None = None
    norm: float | None = None
    degenerate: bool = False

    def __bool__(self) -> bool:
        return self.is_la


def densify(x) -> np.ndarray:
    """Dense complex matrix of any structured value above."""
    if isinstance(x, (UnitaryPermutation, Circulant, HankelMod, TensorRankOne)):
        return x.dense()
    raise TypeError(f"not a structured matrix: {type(x).__name__}")


# ---------------------------------------------------------------------------
# structural recognizers (tight tolerance: these drive exactness claims).
# Every tolerance is relative to the largest modulus it tests, so a verdict
# does not change when the matrix is scaled.

def _peak(x: np.ndarray) -> float:
    """``float(x.max())`` of a nonempty real array: the same entry, read at
    ``x.argmax()``, which skips the Python layer of ``ndarray.max``."""
    return x.item(x.argmax())


def _as_cyclic(A, kind: type[_CyclicLayout]) -> _CyclicLayout | None:
    """The ``kind`` read off the first row, if every entry matches it to
    REL_TOL max|A|.

    The last row is compared first, with the same differences and the same
    tolerance, so most matrices are rejected after one modulus pass and one
    row; the whole layout is compared only when that row matches.  A
    modulus past the double range, which leaves no finite tolerance, raises
    ValueError.
    """
    M = as_matrix(A)
    n, m = M.shape
    if n != m:
        return None
    coeffs = M[0, :]
    index = kind._index(n)
    top = _peak(np.abs(M))
    if top == math.inf:
        raise ValueError("an entry's modulus lies past the double range")
    tol = REL_TOL * top
    # below 2^1021 no difference overflows, and only there is the row read first
    if top < 2.0 ** 1021 and _peak(np.abs(M[-1] - coeffs[index[-1]])) > tol:
        return None
    with np.errstate(over="ignore"):  # a difference past the range is a mismatch
        if _peak(np.abs(M - coeffs[index])) <= tol:
            return kind(coeffs)
    return None


def as_circulant(A) -> Circulant | None:
    """Recognise a circulant from its dense entries; None when not one."""
    return _as_cyclic(A, Circulant)


def as_hankel(A) -> HankelMod | None:
    """Recognise the cyclic Hankel layout from dense entries; None otherwise."""
    return _as_cyclic(A, HankelMod)


def as_unitary_permutation(A) -> UnitaryPermutation | None:
    """Recognise a phased permutation matrix; None when the structure fails."""
    M = as_matrix(A)
    n, m = M.shape
    if n != m:
        return None
    a = np.abs(M)
    nz = a > REL_TOL
    if not (np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)):
        return None
    if np.abs(a[nz] - 1.0).max() > REL_TOL:
        return None
    cols = np.argmax(nz, axis=1)
    return UnitaryPermutation(tuple(int(c) for c in cols), M[np.arange(n), cols])


def as_tensor_rank_one(A) -> TensorRankOne | None:
    """Recognise a rank-one block structure alpha_i conj(beta_j) * core.

    Scans the divisors of the matrix size for a block partition in which all
    blocks are scalar multiples of a common core and the scalar grid has rank
    one.  Only the block sizes that pass ``_block_sizes_fit`` get the full
    fit, so a matrix with no such size is rejected from one modulus pass and
    one row per divisor, and a size whose row passes costs one segment test
    of one row more.  The segment test of a size runs only once every larger
    size has failed.  Returns None for the zero matrix (every partition is
    degenerate).
    """
    M = as_matrix(A)
    n_total, m_total = M.shape
    if n_total != m_total or n_total < 2:
        return None
    sizes = [n_total // nb for nb in range(2, n_total + 1) if n_total % nb == 0]
    for m in _block_sizes_fit(M, sizes):
        nb = n_total // m
        blocks = M.reshape(nb, m, nb, m).swapaxes(1, 2)  # [i, j, m, m]
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
        return TensorRankOne(u, np.conj(v), ref.reshape(m, m))
    return None


def _block_sizes_fit(M: np.ndarray, sizes: list[int]):
    """Yield the block sizes m, in the given order, at which rows r0 and
    r0 + m (mod n) are proportional, and so are the m-segments of row r0,
    each to within ``_SHIFT_SLACK`` REL_TOL max|M|.

    Row r0 holds the largest modulus, at column c0, and every ratio is read
    at c0: against row r0 for row r0 + m, and against the segment holding
    c0, at c0's place within it, for each segment.  In a rank-one block
    tensor with m x m blocks, row r0 + m is row r0 times
    alpha[i + 1] / alpha[i], and segment j of row r0 is the segment holding
    c0 times conj(beta[j] / beta[j0]), so every size the full fit accepts
    passes both tests.  An outer product u v* passes the first at every
    size, the second only where the segments of v are proportional.  The
    rows are scaled by the power of two that brings the largest modulus into
    [1, 2), so neither the ratio nor the residual under- or overflows.
    """
    n = M.shape[0]
    mags = np.abs(M)
    r0, c0 = divmod(int(mags.argmax()), n)
    top = mags.item(r0, c0)
    if top == 0.0:
        return  # the zero matrix: every partition is degenerate
    rows, k = _unit_scale(M.take([r0 + m for m in (0, *sizes)], axis=0, mode="wrap"), top)
    x, Y = rows[0], rows[1:]
    resid = np.abs(Y - (Y[:, c0] / x[c0])[:, None] * x).max(axis=1)
    tol = _SHIFT_SLACK * REL_TOL * math.ldexp(top, k) + math.ldexp(_SHIFT_SUBNORMAL_ULPS, k - 1074)
    for m, r in zip(sizes, resid.tolist()):
        if r > tol:
            continue
        if m > 1:  # segments of length 1 are always proportional
            segments = x.reshape(-1, m)
            j0, t0 = divmod(c0, m)
            ref = segments[j0]
            if float(np.abs(segments - (segments[:, t0] / ref[t0])[:, None] * ref).max()) > tol:
                continue
        yield m


# ---------------------------------------------------------------------------
# exact norm rules

def doubly_balanced_norm(A) -> float | None:
    """Shared row/column sum of a nonnegative doubly balanced matrix, or None.

    Entries must be real and nonnegative up to 1e-12 of the largest modulus
    (tiny negatives are clamped to 0) and all row and column sums must agree
    to 1e-9 relative; the common sum is then the operator norm at every
    exponent.  The first two tests run on row 0 before the whole matrix,
    with the same tolerance, and between the two passes row 0's sum is
    compared with column 0's, so most matrices are rejected after one
    modulus pass and two lines.  The sums are taken on the clamped matrix
    brought to modulus [1, 2) by a power of two, so they do not overflow,
    and the common sum is scaled back exactly; it is inf only where it lies
    past the double range.
    """
    M = as_square(A)
    top = _peak(np.abs(M))
    tol = 1e-12 * top
    if _peak(np.abs(M[0].imag)) > tol or float(M[0].real.min()) < -tol:
        return None  # row 0 first: most matrices fail there
    # where the full test passes, row 0 and column 0 sum to within 1e-9 alpha
    # of the mean row sum alpha, so to within 2e-9 alpha <= 2e-9 / (1 - 1e-9)
    # of the larger of them of each other; the slack 4e-9 also covers the
    # rounding of these sums of n <= 10^6 quotients by top, which keep them
    # in range, and of the full test's sums
    lines = np.maximum(np.array((M[0].real, M[:, 0].real)), 0.0) / (top or 1.0)
    r0, c0 = lines.sum(axis=1).tolist()
    if abs(r0 - c0) > 4e-9 * max(r0, c0):
        return None
    if _peak(np.abs(M.imag)) > tol or float(M.real.min()) < -tol:
        return None
    # the clamped matrix's largest entry is top, to the rounding of a modulus
    R, k = _unit_scale(np.maximum(M.real, 0.0), top)
    rows = R.sum(axis=1)
    cols = R.sum(axis=0)
    alpha = float(rows.sum()) / len(rows)  # the bits of rows.mean(), in fewer calls
    if alpha == 0.0:
        return 0.0  # all entries clamped to zero
    dev = max(float(np.abs(rows - alpha).max()), float(np.abs(cols - alpha).max()))
    if dev <= 1e-9 * alpha:
        return alpha * 2.0 ** -k  # a Python float: inf past the range, no warning
    return None


@lru_cache(maxsize=16)  # bounded: one n x n table per size
def _fourier_grid(n: int) -> np.ndarray:
    """Read-only n x n table exp(2 pi i k j / n) of ``circulant_two_norm``."""
    grid = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=16)  # bounded: one n x n table per size
def _root_powers(n: int) -> np.ndarray:
    """Read-only n x n table whose row k holds the powers omega_k^i,
    i = 0..n-1, of the root omega_k = exp(2 pi i k / n); each row is the
    expression ``classify_circulant_la`` tests it with, evaluated alone."""
    idx = np.arange(n)
    table = np.empty((n, n), dtype=np.complex128)
    for k in range(n):
        table[k] = np.exp(2j * np.pi * k * idx / n)
    table.flags.writeable = False
    return table


def circulant_two_norm(c: Circulant) -> float:
    """Spectral norm: max over n-th roots of unity w of |sum_i coeffs[i] w^i|.

    Evaluated on the coefficients scaled by a power of two, so the sums
    neither under- nor overflow, and scaled back exactly.
    """
    unit, k = _unit_scale(c.coeffs)
    return math.ldexp(float(np.abs(_fourier_grid(c.n) @ unit).max()), -k)


def classify_circulant_la(c: Circulant) -> LAWitness:
    """Search the n-th roots of unity for a logarithmic-affine witness.

    The roots are tested on the coefficients scaled by a power of two.  All
    n roots are first tested at one coefficient column, the next nonzero one
    after the pivot, with the expression of an n x n evaluation; there an
    aligned or generic circulant leaves few roots, often one.  Each root
    that passes is then checked alone with its whole row, in order, and the
    first that passes is the witness returned.
    """
    a = _unit_scale(c.coeffs)[0]
    amods = np.abs(a)
    top = _peak(amods)
    if top == 0.0:
        return LAWitness(True, 1.0 + 0.0j, 1.0 + 0.0j, 0.0, degenerate=True)
    nonzero = np.flatnonzero(amods)
    i0 = int(nonzero[0])  # first nonzero coefficient
    j = int(nonzero[1]) if nonzero.size > 1 else i0
    # the pivot and its modulus scaled by the pivot's own power of two, which
    # leaves every quotient's bits as they are, but keeps a subnormal pivot
    # from overflowing the reciprocal that a complex division forms
    e = -math.frexp(float(amods[i0]))[1]
    pivot = complex(math.ldexp(a[i0].real, e), math.ldexp(a[i0].imag, e))
    pmod = math.ldexp(float(amods[i0]), e)
    bound = _LA_ALIGN_TOL * top
    table = _root_powers(c.n)
    betas = pivot * table[:, i0] / pmod
    # the column and the lone row round alike up to a few ulps; the doubled
    # bound only lets the lone row decide near the edge
    column = np.abs(a[j] * table[:, j] - betas * amods[j])
    for k in np.flatnonzero(column <= 2.0 * bound).tolist():
        omega_pows = table[k]
        beta = pivot * omega_pows[i0] / pmod
        if float(np.abs(a * omega_pows - beta * amods).max()) <= bound:
            omega = complex(np.exp(2j * np.pi * k / c.n))
            return LAWitness(True, complex(beta), omega, float(np.abs(c.coeffs).sum()))
    return LAWitness(False)


def hankel_factor(h: HankelMod) -> tuple[UnitaryPermutation, Circulant]:
    """Exact factorization H = P * C with P the phase-free row flip i -> -i mod n.

    C has the layout's coefficients, the first row of H, as its first row:
    ``analyze`` builds C from that row directly, without P.
    """
    n = h.n
    sigma = tuple((n - i) % n for i in range(n))
    perm = UnitaryPermutation(sigma, np.ones(n))
    return perm, Circulant(h.coeffs)


# ---------------------------------------------------------------------------
# embeddings, direct sums, the block-grid bound

def direct_sum(parts) -> np.ndarray:
    """Block-diagonal matrix with the given square parts on the diagonal."""
    mats = [as_square(P) for P in parts]
    if not mats:
        raise ValueError("direct_sum needs at least one part")
    n = sum(M.shape[0] for M in mats)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for M in mats:
        k = M.shape[0]
        out[at:at + k, at:at + k] = M
        at += k
    return out


def split_direct_sum(A) -> list[np.ndarray]:
    """Maximal block-diagonal decomposition along exactly-zero off blocks.

    k is a cut when no nonzero entry (i, j) has min(i, j) < k <= max(i, j).
    With reach[t] the largest index that row t or column t touches with a
    nonzero entry (-1 for none), that holds exactly when max(reach[:k]) < k.
    """
    M = as_square(A)
    if M[0, -1] != 0 or M[-1, 0] != 0:
        return [M]  # a nonzero corner entry crosses every cut
    n = M.shape[0]
    nz = M != 0
    reach = np.where(nz | nz.T, np.arange(n), -1).max(axis=1)
    cuts = np.flatnonzero(np.maximum.accumulate(reach[:-1]) < np.arange(1, n)) + 1
    edges = [0, *cuts.tolist(), n]
    return [M[a:b, a:b] for a, b in zip(edges[:-1], edges[1:])]


def block_grid_bound(block_norms, p) -> float:
    """Upper bound for a full k x l block partition from its block norm grid.

    Takes the smaller of the row-combined and column-combined mixed sums:
    min( (sum_i (sum_j v_ij^q)^(p/q))^(1/p), (sum_j (sum_i v_ij^p)^(q/p))^(1/q) ).
    """
    G = np.asarray(block_norms, dtype=np.float64)
    if G.ndim != 2 or G.size == 0:
        raise ValueError("block norm grid must be a nonempty 2-D array")
    if G.min() < 0.0:
        raise ValueError("block norms must be nonnegative")
    p = as_exponent(p)
    q = dual_exponent(p)
    row_form = vec_norm([vec_norm(row, q) for row in G], p)
    col_form = vec_norm([vec_norm(col, p) for col in G.T], q)
    return min(row_form, col_form)


def _common_multiple(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(coef, ref) with every row stack[k] = coef[k] * ref, or None.

    ``ref`` is the row holding the largest entry; the fit is checked to the
    structural tolerance.  The fit runs on the stack scaled by the power of
    two that brings the largest modulus into [1, 2): that is exact down to
    the subnormal range, so coef and the verdict are those of the stack, and
    neither the projections, their common divisor ||unit||^2, which lies
    between 1 and 4 times the row length, nor the residual under- or
    overflow.
    """
    scaled = _unit_scale(stack)[0]
    mags = np.abs(scaled)
    i = int(np.argmax(mags.max(axis=1)))
    unit = scaled[i]
    # unit holds the largest entry, so a zero unit means an all-zero stack,
    # which fits with zero coefficients
    coef = (scaled @ np.conj(unit)) / (np.vdot(unit, unit).real or 1.0)
    if float(np.abs(scaled - coef[:, None] * unit[None, :]).max()) > REL_TOL * float(mags[i].max()):
        return None
    return coef, stack[i]


def column_embed(xi) -> np.ndarray:
    """Square matrix with xi as its first column and zeros elsewhere.

    Its operator p-norm is ||xi||_p; ``analyze`` reads it as a rank-one
    tensor with a 1 x 1 core and certifies that value exactly.
    """
    x = as_vector(xi)
    M = np.zeros((x.size, x.size), dtype=np.complex128)
    M[:, 0] = x
    return M


def row_embed(xi) -> np.ndarray:
    """Square matrix with conj(xi) as its first row and zeros elsewhere.

    Its operator p-norm is ||xi||_q with q dual to p, certified exactly by
    ``analyze`` through the rank-one tensor rule.
    """
    x = as_vector(xi)
    M = np.zeros((x.size, x.size), dtype=np.complex128)
    M[0, :] = np.conj(x)
    return M


def tensor_norm(t: TensorRankOne, p, core_norm: float) -> float:
    """Exact factor rule ||alpha||_p * ||beta||_q * core_norm."""
    p = as_exponent(p)
    return vec_norm(t.alpha, p) * vec_norm(t.beta, dual_exponent(p)) * float(core_norm)


# ---------------------------------------------------------------------------
# ready-made instances

def magic3() -> np.ndarray:
    """The classical 3 x 3 magic square (all line sums 15)."""
    return as_matrix([[8, 1, 6], [3, 5, 7], [4, 9, 2]])


def magic4() -> np.ndarray:
    """A 4 x 4 magic square with all line sums 34."""
    return as_matrix([[1, 2, 15, 16], [13, 14, 3, 4], [12, 7, 10, 5], [8, 11, 6, 9]])


def random_unitary_permutation(n: int, seed: int = 0) -> UnitaryPermutation:
    """Seeded random phased permutation of size n; ``seed`` must be a
    nonnegative integer."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(_check_seed(seed))
    sigma = tuple(int(i) for i in rng.permutation(n))
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    return UnitaryPermutation(sigma, phases)
