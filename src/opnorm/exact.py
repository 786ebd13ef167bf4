"""Exact operator norms at the anchor exponents p = 1, 2, inf.

The p = 1 and p = inf operator norms are the maximum absolute column and row
sums.  The p = 2 norm is the largest singular value, computed by a
self-contained Brent–Luk round-robin Jacobi eigensolver on the (scaled) Gram
matrix A*A, which stops on the off-diagonal mass summed directly over the
off-diagonal entries; the achieved relative accuracy sits well inside the
1e-10 contract.
``is_p_isometry`` recognises phased permutation matrices, which preserve
every p-norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import REL_TOL, as_exponent, as_matrix, vec_norm
from .structured import as_unitary_permutation

__all__ = [
    "AnchorNorms",
    "anchor_norms",
    "is_p_isometry",
    "norm_inf",
    "norm_inf_attained",
    "norm_one",
    "norm_one_attained",
    "norm_two",
]

_JACOBI_MAX_SWEEPS = 60
_JACOBI_OFF_TOL = 1e-14


@dataclass(frozen=True)
class AnchorNorms:
    """Operator norms at the three anchor exponents p = 1, 2, inf.

    The two-norm never exceeds the geometric mean of the other two (up to a
    1e-9 relative allowance for the eigensolver); construction enforces that.
    """

    n1: float
    n2: float
    ninf: float

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "ninf"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, v)
        if self.n2 > self.geometric_midpoint * (1.0 + 1e-9):
            raise ValueError("n2 exceeds the geometric mean of n1 and ninf")

    @property
    def geometric_midpoint(self) -> float:
        """sqrt(n1 * ninf), the interpolated value at p = 2."""
        return math.sqrt(self.n1 * self.ninf)


def norm_one_attained(A) -> tuple[float, int]:
    """Max absolute column sum and the attaining column (smallest on ties)."""
    M = as_matrix(A)
    sums = np.abs(M).sum(axis=0)
    j = int(np.argmax(sums))
    return float(sums[j]), j


def norm_one(A) -> float:
    """Operator norm at p = 1: the maximum absolute column sum."""
    return norm_one_attained(A)[0]


def norm_inf_attained(A) -> tuple[float, int]:
    """Max absolute row sum and the attaining row (smallest on ties)."""
    M = as_matrix(A)
    sums = np.abs(M).sum(axis=1)
    i = int(np.argmax(sums))
    return float(sums[i]), i


def norm_inf(A) -> float:
    """Operator norm at p = inf: the maximum absolute row sum."""
    return norm_inf_attained(A)[0]


@functools.lru_cache(maxsize=64)
def _round_robin(n: int) -> np.ndarray:
    """The Brent–Luk round-robin move for an even order n.

    Each round rotates the n/2 disjoint pairs of positions (2k, 2k+1); then
    rows and columns are both gathered by this permutation.  Position 0 stays
    and the other indices advance one place around the circle
    0, 2, 4, ..., n-2, n-1, n-3, ..., 3, 1, so that over n - 1 rounds every
    pair of indices meets exactly once and the order returns to the identity.
    """
    m = n // 2
    circle = np.concatenate((np.arange(0, n, 2), np.arange(n - 1, 0, -2)))
    moved = np.concatenate((circle[:1], circle[-1:], circle[1:-1]))
    perm = np.empty(n, dtype=np.intp)
    perm[0::2] = moved[:m]
    perm[1::2] = moved[::-1][:m]
    perm.flags.writeable = False
    return perm


def _max_eig_hermitian(H: np.ndarray) -> tuple[float, int]:
    """Largest eigenvalue of a Hermitian matrix, and the Jacobi sweeps it took.

    Brent–Luk round-robin Jacobi: a sweep is n - 1 rounds, and each round
    rotates n/2 disjoint pairs at once with whole-array updates (odd n is
    padded with a zero row and column, which no rotation touches).  Each
    rotation phase-aligns its pivot and is the classical symmetric Schur
    rotation; a pivot below 1e-17 of its two diagonal entries, or below
    1e-290, is left unrotated.  Sweeps stop when the off-diagonal Frobenius
    mass, summed over the off-diagonal entries themselves, falls to 1e-14
    times the diagonal mass, or after 60 sweeps; a count of 60 means the
    mass never fell that far.  Real input stays real.
    """
    n0 = H.shape[0]
    n = n0 + n0 % 2
    m = n // 2
    perm = _round_robin(n)
    G = np.zeros((n, n), dtype=H.dtype)
    G[:n0, :n0] = H
    U = np.empty((m, 2, 2), dtype=H.dtype)  # per pair [[w c, w s], [-s, c]]
    Ut = U.transpose(0, 2, 1)
    sweeps = 0
    while sweeps < _JACOBI_MAX_SWEEPS:
        # the off-diagonal entries as one strided view: after the first
        # entry, rows of n + 1 entries each end on the next diagonal entry
        off = G.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]
        off_mass = math.sqrt(float(np.sum(np.abs(off) ** 2)))
        diag = G.diagonal().real
        if off_mass <= _JACOBI_OFF_TOL * math.sqrt(float(diag @ diag)):
            break
        for _ in range(n - 1):
            flat = G.reshape(-1)
            hpq = flat[1 :: 2 * (n + 1)]  # G[2k, 2k+1]
            diag = flat[:: n + 1].real
            app, aqq = diag[0::2], diag[1::2]
            absd = np.abs(diag)
            b = np.abs(hpq)
            # pivots this small sit below the termination threshold and
            # would only stir rounding noise (or overflow on subnormals)
            rotate = (b > 1e-17 * (absd[0::2] + absd[1::2])) & (b >= 1e-290)
            if np.count_nonzero(rotate):
                b = np.where(rotate, b, 1.0)
                w = np.where(rotate, hpq / b, 1.0)  # unimodular phase of the pivot
                tau = (aqq - app) / (2.0 * b)
                t = 1.0 / (np.abs(tau) + np.hypot(1.0, tau))
                t = np.where(tau >= 0.0, t, -t) * rotate
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                U[:, 0, 0] = w * c
                U[:, 0, 1] = w * s
                U[:, 1, 0] = -s
                U[:, 1, 1] = c
                # rows: X = U* G; columns: (X U)^T = U^T X^T, whose pairs of
                # rows are pairs of columns of X.  The result is the transpose
                # of U* G U, i.e. its complex conjugate: the same eigenvalues,
                # with no transposed copy.
                X = Ut.conj() @ G.reshape(m, 2, n)
                G = (Ut @ X.reshape(n, m, 2).transpose(1, 2, 0)).reshape(n, n)
                flat = G.reshape(-1)
                flat[1 :: 2 * (n + 1)][rotate] = 0.0
                flat[n :: 2 * (n + 1)][rotate] = 0.0
                flat[:: n + 1] = flat[:: n + 1].real
            G = G.take(perm, axis=0).take(perm, axis=1)
        sweeps += 1
    # every sweep ends in the original order, so the padding is the last row
    return float(np.max(G.diagonal()[:n0].real)), sweeps


def norm_two(A) -> float:
    """Largest singular value (the p = 2 operator norm), to 1e-10 relative."""
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError("norm_two requires a square matrix")
    if not M.imag.any():
        M = M.real
    top = float(np.abs(M).max())
    if top == 0.0:
        return 0.0
    scaled = M / top
    gram = np.conj(scaled.T) @ scaled
    lam = max(_max_eig_hermitian(gram)[0], 0.0)
    return top * math.sqrt(lam)


def anchor_norms(A) -> AnchorNorms:
    """All three anchor norms of a square matrix, via the operations above."""
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError("anchor_norms requires a square matrix")
    return AnchorNorms(norm_one(M), norm_two(M), norm_inf(M))


def is_p_isometry(S, p, trials: int = 8, seed: int = 0) -> bool:
    """Whether S is a phased permutation: one unimodular entry per row/column.

    These are exactly the matrices preserving the p-norm of every vector for
    p != 2; the same structural test (``as_unitary_permutation``) is applied
    at p = 2, so unitaries that are not phased permutations are rejected
    there as well.  After the structural pass, ``trials`` seeded random
    vectors self-check norm preservation at the given p to REL_TOL.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    p = as_exponent(p)
    M = as_matrix(S)
    if as_unitary_permutation(M) is None:
        return False
    rng = np.random.default_rng(seed)
    n = M.shape[0]
    for _ in range(trials):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = vec_norm(x, p)
        if abs(vec_norm(M @ x, p) - ref) > REL_TOL * ref:
            return False
    return True
