"""Reference checks for returned intervals, computed with numpy only.

An interval ``[lower, upper]`` at exponent ``p`` for matrix ``A`` fails when

* it is not finite, ``lower < 0`` or ``lower > upper``;
* at ``p`` in {1, 2, inf} it excludes ``np.linalg.norm(A, p)`` (LAPACK);
* it excludes the exact norm the generator knows for a structured family;
* ``lower`` exceeds the Riesz-Thorin bound interpolated between the LAPACK
  anchors (the smaller of the 1-inf envelope and the segment through p = 2);
* ``upper`` is below ``||A x||_p / ||x||_p`` for one of a few probe vectors.

``REL_TOL`` is relative to the value compared against.  It is loose enough
for the Jacobi two-norm (within 1.4e-14 of LAPACK on random n <= 96) and
tight enough for the two near-structure reproducers of ROADMAP item 4, whose
certified values sit 2.2e-10 and 7.5e-13 below the true 1-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

REL_TOL = 1e-13
INF = math.inf


@dataclass(frozen=True)
class Reference:
    """What the checker holds an interval at one exponent against."""

    p: float
    anchor: float | None  # LAPACK value when p is 1, 2 or inf
    known: float | None  # exact value from the generator's construction
    rt_upper: float  # Riesz-Thorin bound from the LAPACK anchors
    probe_lower: float  # best attained ratio over the probe vectors


def _ratio(A: np.ndarray, x: np.ndarray, p: float) -> float:
    return float(np.linalg.norm(A @ x, ord=p) / np.linalg.norm(x, ord=p))


def _riesz_thorin(p: float, n1: float, n2: float, ninf: float) -> float:
    t = 1.0 / p
    envelope = n1 ** t * ninf ** (1.0 - t)
    if t >= 0.5:  # segment through (1, n1) and (2, n2)
        theta = 2.0 * t - 1.0
        segment = n2 ** (1.0 - theta) * n1 ** theta
    else:  # segment through (2, n2) and (inf, ninf)
        theta = 1.0 - 2.0 * t
        segment = n2 ** (1.0 - theta) * ninf ** theta
    return min(envelope, segment)


class MatrixReference:
    """LAPACK anchors and probe vectors of one matrix, reused across exponents."""

    def __init__(self, A: np.ndarray, known=None) -> None:
        self.A = np.asarray(A, dtype=complex)
        self.known = known
        _, s, vh = np.linalg.svd(self.A)
        self.n1 = float(np.linalg.norm(self.A, 1))
        self.n2 = float(s[0])  # what np.linalg.norm(A, 2) returns
        self.ninf = float(np.linalg.norm(self.A, INF))
        n = self.A.shape[1]
        rng = np.random.default_rng(0)
        # the top right singular vector attains the 2-norm and is close to
        # the maximizer at nearby exponents
        self.probes = [np.ones(n), rng.standard_normal(n) + 1j * rng.standard_normal(n),
                       rng.standard_normal(n), vh[0].conj()]
        self._cache: dict[float, Reference] = {}

    def at(self, p: float) -> Reference:
        ref = self._cache.get(p)
        if ref is None:
            anchor = {1.0: self.n1, 2.0: self.n2, INF: self.ninf}.get(p)
            cols = np.linalg.norm(self.A, ord=p, axis=0)
            e = np.zeros(self.A.shape[1])
            e[int(np.argmax(cols))] = 1.0
            probe = max(_ratio(self.A, x, p) for x in [e, *self.probes])
            known = None if self.known is None else float(self.known(p))
            ref = Reference(p, anchor, known,
                            _riesz_thorin(p, self.n1, self.n2, self.ninf), probe)
            self._cache[p] = ref
        return ref


class Failure(NamedTuple):
    """One failed check: the exponent (None when the query gave no interval),
    which check failed, such as "upper below lapack", and a readable message."""

    p: float | None
    check: str
    message: str


def check_interval(ref: Reference, lower: float, upper: float) -> list[Failure]:
    """Every reference check the interval fails."""
    p = ref.p
    if not (math.isfinite(lower) and math.isfinite(upper)):
        return [Failure(p, "non-finite", f"p={p}: non-finite interval [{lower}, {upper}]")]
    bad = []
    if lower < 0.0 or lower > upper:
        bad.append(Failure(p, "malformed", f"p={p}: malformed interval [{lower!r}, {upper!r}]"))

    def fail(side, value, name, ref_value):
        rel = "above" if side == "lower" else "below"
        bad.append(Failure(p, f"{side} {rel} {name}",
                           f"p={p}: {side} {value!r} {rel} {name} {ref_value!r}"))

    for name, value in (("lapack", ref.anchor), ("known", ref.known)):
        if value is None:
            continue
        if lower > value * (1.0 + REL_TOL):
            fail("lower", lower, name, value)
        if upper < value * (1.0 - REL_TOL):
            fail("upper", upper, name, value)
    if lower > ref.rt_upper * (1.0 + REL_TOL):
        fail("lower", lower, "riesz-thorin", ref.rt_upper)
    if upper < ref.probe_lower * (1.0 - REL_TOL):
        fail("upper", upper, "probe", ref.probe_lower)
    return bad
