"""Complex vector/matrix primitives and extended norm exponents.

All numerical values flow through numpy complex128 arrays.  ``as_vector`` and
``as_matrix`` validate shape, finiteness and nonemptiness and return read-only
copies, so constructed values behave as immutable and every operation here is
a pure function.  ``as_matrix`` hands an array it returned back as is, so a
matrix passed down through the recognizers, anchors and ascent is validated
once; ``as_square`` adds the one square-shape check every n x n entry point
uses.  ``Exponent`` keeps p = inf exact (no large-float stand-in),
which makes the endpoint identities dual(1) = inf and dual(inf) = 1 hold
without rounding.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "INF",
    "REL_TOL",
    "Exponent",
    "adjoint",
    "as_exponent",
    "as_matrix",
    "as_square",
    "as_vector",
    "dual_exponent",
    "vec_norm",
]

#: Default relative tolerance for scalar identities throughout the package.
REL_TOL = 1e-12


@dataclass(frozen=True, order=True)
class Exponent:
    """A norm exponent p in [1, inf]; infinity is represented exactly."""

    value: float

    def __post_init__(self) -> None:
        if isinstance(self.value, (bool, np.bool_)):
            raise ValueError(f"exponent must be a number, got {self.value!r}")
        v = float(self.value)
        if math.isnan(v) or v < 1.0:
            raise ValueError(f"exponent must lie in [1, inf], got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @property
    def reciprocal(self) -> float:
        """1/p in [0, 1]; exactly 0.0 for p = inf and 1.0 for p = 1."""
        if self.is_inf:
            return 0.0
        if self.value == 1.0:
            return 1.0
        return 1.0 / self.value

    def __str__(self) -> str:
        if self.is_inf:
            return "inf"
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


INF = Exponent(math.inf)


def as_exponent(p) -> Exponent:
    """Coerce a number, the token "inf", or an Exponent to an Exponent."""
    if isinstance(p, Exponent):
        return p
    if isinstance(p, str):
        tok = p.strip().lower()
        if tok == "inf":
            return INF
        return Exponent(float(tok))
    return Exponent(p)


def dual_exponent(p) -> Exponent:
    """Hoelder conjugate: dual(1) = inf, dual(inf) = 1, dual(2) = 2, all exact."""
    p = as_exponent(p)
    if p.value == 1.0:
        return INF
    if p.is_inf:
        return Exponent(1.0)
    if p.value == 2.0:
        return Exponent(2.0)
    return Exponent(p.value / (p.value - 1.0))


def as_vector(entries) -> np.ndarray:
    """Validate and freeze a nonempty 1-D complex128 array."""
    arr = np.array(entries, dtype=np.complex128, order="C")
    if arr.ndim != 1:
        raise ValueError(f"vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("vector must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    arr.setflags(write=False)
    return arr


#: The arrays ``as_matrix`` returned, by id, for as long as they live.
_VALIDATED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def as_matrix(entries) -> np.ndarray:
    """Validate and freeze a nonempty 2-D complex128 array (row-major).

    An array this function returned earlier is returned as is; anything else
    is copied and checked.  The result is a view of the read-only copy, so
    it cannot be made writeable again and its checked entries stay as they
    are.
    """
    if _VALIDATED.get(id(entries)) is entries:
        return entries
    arr = np.array(entries, dtype=np.complex128, order="C")
    if arr.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError("matrix must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    arr.setflags(write=False)
    arr = arr.view()
    _VALIDATED[id(arr)] = arr
    return arr


def as_square(entries) -> np.ndarray:
    """``as_matrix`` for an n x n matrix; ValueError for any other shape."""
    M = as_matrix(entries)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got {M.shape[0]}x{M.shape[1]}")
    return M


def _ldexp(z: np.ndarray, k: int) -> np.ndarray:
    """z * 2**k for an array z and an integer k >= -1074 that keeps z * 2**k
    finite, one rounding per part: exact unless an entry lands in the
    subnormal range.

    k may exceed 1023, where 2**k is no double, as it must to bring a
    subnormal-scale matrix to modulus 1; z is then subnormal, so z * 2**1023
    is exact.
    """
    if k > 1023:
        return z * 2.0 ** 1023 * math.ldexp(1.0, k - 1023)
    return z * math.ldexp(1.0, k)


def _check_seed(seed) -> int:
    """A seed as an int; ValueError unless it is a nonnegative integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return int(seed)


def vec_norm(xi, p) -> float:
    """Vector p-norm: (sum |x_i|^p)^(1/p) for finite p, max |x_i| at p = inf.

    Powers are taken on |x_i| / max|x_i|, so large exponents neither overflow
    nor underflow the result.
    """
    x = as_vector(xi)
    p = as_exponent(p)
    a = np.abs(x)
    top = float(a.max())
    if top == 0.0:
        return 0.0
    if p.is_inf:
        return top
    pv = p.value
    if pv == 1.0:
        return float(a.sum())
    if pv == 2.0:
        r = a / top
        return top * float(np.sqrt(np.sum(r * r)))
    s = float(np.sum((a / top) ** pv))
    return top * s ** (1.0 / pv)


def adjoint(A) -> np.ndarray:
    """Conjugate transpose; an exact involution."""
    M = as_matrix(A)
    return np.ascontiguousarray(np.conj(M.T))

