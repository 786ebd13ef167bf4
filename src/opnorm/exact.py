"""Exact operator norms at the anchor exponents p = 1, 2, inf.

The p = 1 and p = inf operator norms are the maximum absolute column and row
sums.  The p = 2 norm is the largest singular value, computed by a
self-contained cyclic Jacobi eigensolver on the (scaled) Gram matrix A*A;
the achieved relative accuracy sits well inside the 1e-10 contract.
``is_p_isometry`` recognises phased permutation matrices, which preserve
every p-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import REL_TOL, adjoint, as_exponent, as_matrix, vec_norm
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


def _max_eig_hermitian(H: np.ndarray) -> float:
    """Largest eigenvalue of a Hermitian matrix by cyclic Jacobi rotations.

    Each rotation phase-aligns the pivot entry and applies the classical
    symmetric Schur rotation; sweeps stop when the off-diagonal Frobenius
    mass falls below 1e-14 times the diagonal mass (at most 60 sweeps).
    """
    H = np.array(H, dtype=np.complex128)
    n = H.shape[0]
    if n == 1:
        return float(H[0, 0].real)
    for _ in range(_JACOBI_MAX_SWEEPS):
        diag = H.diagonal().real
        off_sq = float(np.sum(np.abs(H) ** 2)) - float(np.sum(np.abs(H.diagonal()) ** 2))
        dmass = math.sqrt(float(np.sum(diag * diag)))
        if math.sqrt(max(off_sq, 0.0)) <= _JACOBI_OFF_TOL * dmass:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                hpq = H[p, q]
                b = abs(hpq)
                app = H[p, p].real
                aqq = H[q, q].real
                # pivots this small sit below the termination threshold and
                # would only stir rounding noise (or overflow on subnormals)
                if b <= 1e-17 * (abs(app) + abs(aqq)) or b < 1e-290:
                    continue
                w = hpq / b  # unimodular phase of the pivot
                tau = (aqq - app) / (2.0 * b)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # two-sided update U* H U with U acting on columns p, q as
                # [[w c, w s], [-s, c]]
                cp = H[:, p].copy()
                cq = H[:, q].copy()
                H[:, p] = w * c * cp - s * cq
                H[:, q] = w * s * cp + c * cq
                rp = H[p, :].copy()
                rq = H[q, :].copy()
                H[p, :] = np.conj(w) * c * rp - s * rq
                H[q, :] = np.conj(w) * s * rp + c * rq
                H[p, q] = 0.0
                H[q, p] = 0.0
                H[p, p] = H[p, p].real
                H[q, q] = H[q, q].real
    return float(np.max(H.diagonal().real))


def norm_two(A) -> float:
    """Largest singular value (the p = 2 operator norm), to 1e-10 relative."""
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError("norm_two requires a square matrix")
    top = float(np.abs(M).max())
    if top == 0.0:
        return 0.0
    scaled = M / top
    gram = adjoint(scaled) @ scaled
    lam = max(_max_eig_hermitian(gram), 0.0)
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
