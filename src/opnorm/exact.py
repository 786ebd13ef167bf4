"""Exact operator norms at the anchor exponents p = 1, 2, inf.

The p = 1 and p = inf operator norms are the maximum absolute column and row
sums.  The p = 2 norm is the largest singular value: repeated squaring of the
(scaled) Gram matrix A*A gives a top right singular vector x, and the value
returned is ||A x||_2 / ||x||_2, attained by that vector.  Matmuls only, no
LAPACK; the achieved relative accuracy sits well inside the 1e-10 contract.
``anchor_norms`` collects the three values of a square matrix.  Phased
permutations, which keep every p-norm, are recognised in ``structured``
(``as_unitary_permutation``), not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _unit_scale, as_matrix, as_square

__all__ = [
    "AnchorNorms",
    "anchor_norms",
    "norm_inf",
    "norm_inf_attained",
    "norm_one",
    "norm_one_attained",
    "norm_two",
]

_SQUARING_CAP = 64
_SQUARING_TOL = 1e-14


@dataclass(frozen=True)
class AnchorNorms:
    """Operator norms at the three anchor exponents p = 1, 2, inf.

    The two-norm never exceeds the geometric mean of the other two (up to a
    1e-9 relative allowance for rounding); construction enforces that.
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
        """sqrt(n1 * ninf), the interpolated value at p = 2.

        The product is formed on the mantissas, so it neither under- nor
        overflows, and the result has the bits of sqrt(n1 * ninf) wherever
        that product is in range.
        """
        m1, e1 = math.frexp(self.n1)
        m2, e2 = math.frexp(self.ninf)
        e = e1 + e2
        return math.ldexp(math.sqrt(math.ldexp(m1 * m2, e % 2)), e // 2)


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


def _top_direction(G: np.ndarray) -> tuple[np.ndarray, int]:
    """A top eigenvector of a nonzero positive semidefinite Hermitian matrix.

    Repeated squaring X <- X^2 / tr X^2 from X = G / tr G forms
    G^m / tr G^m for m = 2, 4, 8, ..., which tends to the projector onto the
    top eigenspace divided by its dimension.  Squaring stops when one step
    moves X by at most 1e-14 of its Frobenius norm, or after 64 squarings;
    a count of 64 means X never settled that far.  Returns the column of X
    with the largest diagonal entry and the number of squarings.  Matmuls
    only: real input stays real.
    """
    X = G / G.trace().real
    for squarings in range(1, _SQUARING_CAP + 1):
        Y = X @ X
        Y /= Y.trace().real
        settled = np.linalg.norm(Y - X) <= _SQUARING_TOL * np.linalg.norm(Y)
        X = Y
        if settled:
            break
    return X[:, int(np.argmax(X.diagonal().real))], squarings


def norm_two(A) -> float:
    """Largest singular value (the p = 2 operator norm), to 1e-10 relative.

    The value is ||A x||_2 / ||x||_2 at the top eigenvector x of the scaled
    Gram matrix that ``_top_direction`` returns, so a vector attains it even
    where the squaring stopped at its cap.
    """
    M = as_square(A)
    # exact power of two: a subnormal top neither over- nor underflows.  The
    # real part is copied, since a matmul rounds a strided view differently
    B, k = _unit_scale(M.real.copy() if not M.imag.any() else M)
    if not B.any():
        return 0.0
    x = _top_direction(np.conj(B.T) @ B)[0]
    return math.ldexp(float(np.linalg.norm(B @ x) / np.linalg.norm(x)), -k)


def anchor_norms(A) -> AnchorNorms:
    """All three anchor norms of a square matrix, via the operations above."""
    M = as_square(A)
    return AnchorNorms(norm_one(M), norm_two(M), norm_inf(M))

