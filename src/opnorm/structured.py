"""Structured matrix families with exact or certified p-norm rules.

Conventions (all indices 0-based, cyclic arithmetic mod n):

* ``UnitaryPermutation``: row i carries the unimodular entry phases[i] in
  column sigma[i].  These preserve every vector p-norm.
* ``Circulant``: dense entry (i, j) is coeffs[(j - i) mod n]; equivalently
  sum_i coeffs[i] * S^i for the cyclic shift S.  Its spectrum is the
  coefficient polynomial evaluated at the n-th roots of unity.
* ``HankelMod``: dense entry (i, j) is coeffs[(i + j) mod n]; it factors as
  a phase-free unitary permutation times the circulant with the same
  coefficients, so the two share every operator p-norm.
* ``TensorRankOne``: block (i, j) is alpha[i] * conj(beta[j]) * core; its
  p-norm is ||alpha||_p * ||beta||_q * ||core||_p with q the dual exponent.

A circulant is *logarithmic affine* exactly when one global phase beta and
one n-th root of unity omega align every coefficient: coeffs[i] * omega^i =
beta * |coeffs[i]|; its norm is then sum |coeffs[i]| for every p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import REL_TOL, as_exponent, as_matrix, as_vector, dual_exponent, vec_norm

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
    "blocks_pairwise_proportional",
    "circulant_two_norm",
    "classify_circulant_la",
    "column_embed",
    "densify",
    "direct_sum",
    "doubly_balanced_norm",
    "hankel_factor",
    "magic3",
    "magic4",
    "pad_embed",
    "random_unitary_permutation",
    "row_embed",
    "split_direct_sum",
    "tensor_norm",
]

#: Alignment tolerance of the circulant log-affine witness, relative to the
#: largest coefficient modulus.
_LA_ALIGN_TOL = 1e-9


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
class Circulant:
    """Coefficients (a_0 .. a_{n-1}) of sum_i a_i S^i, S the cyclic shift."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", as_vector(self.coeffs))

    @property
    def n(self) -> int:
        return self.coeffs.size

    def dense(self) -> np.ndarray:
        n = self.n
        idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        return np.ascontiguousarray(self.coeffs[idx])


@dataclass(frozen=True, eq=False)
class HankelMod:
    """Cyclic Hankel form: dense entry (i, j) is coeffs[(i + j) mod n]."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", as_vector(self.coeffs))

    @property
    def n(self) -> int:
        return self.coeffs.size

    def dense(self) -> np.ndarray:
        n = self.n
        idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
        return np.ascontiguousarray(self.coeffs[idx])


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
        core = as_matrix(self.core)
        if core.shape[0] != core.shape[1]:
            raise ValueError("core must be square")
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

def _struct_tol(M: np.ndarray) -> float:
    return REL_TOL * float(np.abs(M).max())


def as_circulant(A) -> Circulant | None:
    """Recognise a circulant from its dense entries; None when not one."""
    M = as_matrix(A)
    n, m = M.shape
    if n != m:
        return None
    coeffs = M[0, :]
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    if float(np.abs(M - coeffs[idx]).max()) <= _struct_tol(M):
        return Circulant(coeffs)
    return None


def as_hankel(A) -> HankelMod | None:
    """Recognise the cyclic Hankel layout from dense entries; None otherwise."""
    M = as_matrix(A)
    n, m = M.shape
    if n != m:
        return None
    coeffs = M[0, :]
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    if float(np.abs(M - coeffs[idx]).max()) <= _struct_tol(M):
        return HankelMod(coeffs)
    return None


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
    one.  Returns None for the zero matrix (every partition is degenerate).
    """
    M = as_matrix(A)
    n_total, m_total = M.shape
    if n_total != m_total or n_total < 2 or not np.any(M):
        return None
    for nb in range(2, n_total + 1):
        if n_total % nb:
            continue
        m = n_total // nb
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


# ---------------------------------------------------------------------------
# exact norm rules

def doubly_balanced_norm(A) -> float | None:
    """Shared row/column sum of a nonnegative doubly balanced matrix, or None.

    Entries must be real and nonnegative up to 1e-12 of the largest modulus
    (tiny negatives are clamped to 0) and all row and column sums must agree
    to 1e-9 relative; the common sum is then the operator norm at every
    exponent.
    """
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError("doubly_balanced_norm requires a square matrix")
    tol = 1e-12 * float(np.abs(M).max())
    if float(np.abs(M.imag).max()) > tol:
        return None
    R = M.real.copy()
    if float(R.min()) < -tol:
        return None
    np.clip(R, 0.0, None, out=R)
    rows = R.sum(axis=1)
    cols = R.sum(axis=0)
    alpha = float(rows.mean())
    if alpha == 0.0:
        return 0.0  # all entries clamped to zero
    dev = max(float(np.abs(rows - alpha).max()), float(np.abs(cols - alpha).max()))
    if dev <= 1e-9 * alpha:
        return alpha
    return None


def circulant_two_norm(c: Circulant) -> float:
    """Spectral norm: max over n-th roots of unity w of |sum_i coeffs[i] w^i|."""
    n = c.n
    grid = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    return float(np.abs(grid @ c.coeffs).max())


def classify_circulant_la(c: Circulant) -> LAWitness:
    """Search the n-th roots of unity for a logarithmic-affine witness."""
    a = c.coeffs
    n = c.n
    mods = np.abs(a)
    scale = float(mods.max())
    if scale == 0.0:
        return LAWitness(True, 1.0 + 0.0j, 1.0 + 0.0j, 0.0, degenerate=True)
    i0 = int(np.argmax(mods > 0.0))  # first nonzero coefficient
    idx = np.arange(n)
    bound = _LA_ALIGN_TOL * scale
    for k in range(n):
        omega_pows = np.exp(2j * np.pi * k * idx / n)
        beta = a[i0] * omega_pows[i0] / mods[i0]
        if float(np.abs(a * omega_pows - beta * mods).max()) <= bound:
            omega = complex(np.exp(2j * np.pi * k / n))
            return LAWitness(True, complex(beta), omega, float(mods.sum()))
    return LAWitness(False)


def hankel_factor(h: HankelMod) -> tuple[UnitaryPermutation, Circulant]:
    """Exact factorization H = P * C with P the phase-free row flip i -> -i mod n."""
    n = h.n
    sigma = tuple((n - i) % n for i in range(n))
    perm = UnitaryPermutation(sigma, np.ones(n))
    return perm, Circulant(h.coeffs)


# ---------------------------------------------------------------------------
# embeddings, direct sums, the block-grid bound

def pad_embed(A, m: int) -> np.ndarray:
    """Zero-pad A into the top-left corner of an m x m matrix (norm preserving)."""
    M = as_matrix(A)
    r, cdim = M.shape
    if m < max(r, cdim):
        raise ValueError(f"target size {m} smaller than input {M.shape}")
    out = np.zeros((m, m), dtype=np.complex128)
    out[:r, :cdim] = M
    return out


def direct_sum(parts) -> np.ndarray:
    """Block-diagonal matrix with the given square parts on the diagonal."""
    mats = [as_matrix(P) for P in parts]
    if not mats:
        raise ValueError("direct_sum needs at least one part")
    for M in mats:
        if M.shape[0] != M.shape[1]:
            raise ValueError("direct_sum parts must be square")
    n = sum(M.shape[0] for M in mats)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for M in mats:
        k = M.shape[0]
        out[at:at + k, at:at + k] = M
        at += k
    return out


def split_direct_sum(A) -> list[np.ndarray]:
    """Maximal block-diagonal decomposition along exactly-zero off blocks."""
    M = as_matrix(A)
    n, m = M.shape
    if n != m:
        raise ValueError("split_direct_sum requires a square matrix")
    cuts = [k for k in range(1, n)
            if not M[:k, k:].any() and not M[k:, :k].any()]
    edges = [0, *cuts, n]
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


def blocks_pairwise_proportional(blocks) -> bool:
    """Whether every block is a scalar multiple of one common matrix.

    This is the automatically checkable sufficient condition for the
    one-column and one-row cases of ``block_grid_bound`` to hold with
    equality (shared maximizer).
    """
    mats = [as_matrix(B) for B in blocks]
    if not mats:
        raise ValueError("need at least one block")
    shape = mats[0].shape
    if any(M.shape != shape for M in mats):
        return False
    return _common_multiple(np.stack(mats).reshape(len(mats), -1)) is not None


def _common_multiple(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(coef, ref) with every row stack[k] = coef[k] * ref, or None.

    ``ref`` is the row holding the largest entry; the fit is checked to the
    structural tolerance.  The projections pair each row with ref scaled by
    the power of two that brings its largest modulus into [0.5, 1): that is
    exact, so coef is unchanged, and no product of two entries under- or
    overflows.
    """
    mags = np.abs(stack)
    i = int(np.argmax(mags.max(axis=1)))
    top = float(mags[i].max())
    ref = stack[i]
    unit = ref * math.ldexp(1.0, min(-math.frexp(top)[1], 1023))
    # ref holds the largest entry, so a zero ref means an all-zero stack,
    # which fits with zero coefficients
    coef = (stack @ np.conj(unit)) / (np.vdot(unit, ref).real or 1.0)
    if float(np.abs(stack - coef[:, None] * ref[None, :]).max()) > REL_TOL * top:
        return None
    return coef, ref


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


def tensor_norm(t: TensorRankOne, p, core_norm):
    """Exact factor rule ||alpha||_p * ||beta||_q * core_norm.

    ``core_norm`` may be a plain value or a (lower, upper) interval; either
    way it is scaled by the vector-norm factor.
    """
    p = as_exponent(p)
    fac = vec_norm(t.alpha, p) * vec_norm(t.beta, dual_exponent(p))
    if isinstance(core_norm, tuple):
        lo, hi = core_norm
        return fac * float(lo), fac * float(hi)
    return fac * float(core_norm)


# ---------------------------------------------------------------------------
# ready-made instances

def magic3() -> np.ndarray:
    """The classical 3 x 3 magic square (all line sums 15)."""
    return as_matrix([[8, 1, 6], [3, 5, 7], [4, 9, 2]])


def magic4() -> np.ndarray:
    """A 4 x 4 magic square with all line sums 34."""
    return as_matrix([[1, 2, 15, 16], [13, 14, 3, 4], [12, 7, 10, 5], [8, 11, 6, 9]])


def random_unitary_permutation(n: int, seed: int = 0) -> UnitaryPermutation:
    """Seeded random phased permutation of size n."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    sigma = tuple(int(i) for i in rng.permutation(n))
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    return UnitaryPermutation(sigma, phases)
