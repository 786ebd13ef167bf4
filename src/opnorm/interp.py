"""Interpolation bounds, the log-affine envelope, and p-norm profiles.

Write f(p) for the operator p-norm of a fixed square matrix.  Then
g(t) = log f(1/t) is convex on t in [0, 1], so f is continuous, unimodal in
1/p, and everywhere below the *envelope* n1^(1/p) * ninf^(1-1/p) built from
the anchor norms.  A matrix is **logarithmic affine (LA)** when f equals
that envelope for every p; equality at one interior exponent (tested at
p = 2, where the envelope is sqrt(n1*ninf)) already certifies it globally.

``upper_bound`` is the Riesz-Thorin interpolation between the anchors: the
segment through (1, n1), (2, n2) for p < 2 and through (2, n2), (inf, ninf)
for p > 2.  Since n2 <= sqrt(n1 * ninf), the segment lies under the envelope
up to rounding.  For a real entrywise nonnegative matrix, ``Analysis.bounds``
in ``estimator`` replaces that bound by the Schur test at the ascent's
maximizer where it is smaller (tag "schur").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .core import INF, Exponent, adjoint, as_exponent, dual_exponent
from .exact import AnchorNorms, anchor_norms

if TYPE_CHECKING:
    from .estimator import Analysis

__all__ = [
    "LOWER_PROVENANCES",
    "UPPER_PROVENANCES",
    "LogAffineReport",
    "NormBound",
    "PNormProfile",
    "UpperEstimate",
    "default_grid",
    "is_log_affine",
    "la_envelope",
    "la_report_from_anchors",
    "profile",
    "riesz_thorin_bound",
    "upper_bound",
    "upper_bound_from_anchors",
]

#: How each side of a NormBound was certified.
LOWER_PROVENANCES = ("ones-vector", "eigen-certificate", "boyd", "anchor")
UPPER_PROVENANCES = ("anchor", "riesz-thorin", "schur")

#: How far n2 / sqrt(n1 * ninf) may fall below 1 for the anchors to count as
#: log-affine.
_LA_RATIO_TOL = 1e-9


@dataclass(frozen=True)
class NormBound:
    """Certified interval lower <= f(p) <= upper with provenance tags.

    Lower tags: "ones-vector" (balanced row/column sums), "eigen-certificate"
    (eigenvector through a phased permutation), "boyd" (iterative ascent),
    "anchor" (exact value at p in {1, 2, inf}, also
    used when an anchor equality certifies the whole envelope).  Upper tags:
    "anchor", "riesz-thorin" (the log-affine envelope of an exact rule, or
    the two-segment interpolation), "schur" (Schur test at the ascent's
    maximizer, for real nonnegative matrices, rounded outward).
    """

    p: Exponent
    lower: float
    upper: float
    lower_provenance: str
    upper_provenance: str

    def __post_init__(self) -> None:
        if self.lower_provenance not in LOWER_PROVENANCES:
            raise ValueError(f"unknown lower provenance {self.lower_provenance!r}")
        if self.upper_provenance not in UPPER_PROVENANCES:
            raise ValueError(f"unknown upper provenance {self.upper_provenance!r}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"bounds must be finite, got [{self.lower}, {self.upper}]")
        if self.lower < 0.0:
            raise ValueError("lower bound must be nonnegative")
        if self.lower > self.upper * (1.0 + 1e-9):
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower


class UpperEstimate(NamedTuple):
    value: float
    provenance: str


def riesz_thorin_bound(p, p1, v1, p2, v2) -> float:
    """Interpolated bound v1^(1-theta) * v2^theta, theta in 1/p coordinates.

    Requires 1/p to lie between 1/p1 and 1/p2 (inclusive, either order);
    the endpoints return v1 or v2 exactly.
    """
    p, p1, p2 = as_exponent(p), as_exponent(p1), as_exponent(p2)
    v1, v2 = float(v1), float(v2)
    if v1 < 0.0 or v2 < 0.0:
        raise ValueError("interpolation endpoints must be nonnegative")
    t, t1, t2 = p.reciprocal, p1.reciprocal, p2.reciprocal
    if t == t1:
        return v1
    if t == t2:
        return v2
    if not (min(t1, t2) < t < max(t1, t2)):
        raise ValueError(f"p={p} outside the interpolation range [{p1}, {p2}]")
    theta = (t - t1) / (t2 - t1)
    return v1 ** (1.0 - theta) * v2 ** theta


def la_envelope(anchors: AnchorNorms, p) -> float:
    """Envelope value n1^(1/p) * ninf^(1-1/p); exact at the endpoints."""
    p = as_exponent(p)
    t = p.reciprocal
    if t == 1.0:
        return anchors.n1
    if t == 0.0:
        return anchors.ninf
    return anchors.n1 ** t * anchors.ninf ** (1.0 - t)


def _is_self_adjoint(M: np.ndarray) -> bool:
    return M.shape[0] == M.shape[1] and bool(np.array_equal(M, adjoint(M)))


def upper_bound_from_anchors(anchors: AnchorNorms, p) -> UpperEstimate:
    """Certified upper bound at p from the anchor norms of a square matrix.

    Exact (tag "anchor") at p in {1, 2, inf}; otherwise the Riesz-Thorin
    segment through (1, n1), (2, n2) for p < 2 or (2, n2), (inf, ninf) for
    p > 2.  ``AnchorNorms`` keeps n2 <= sqrt(n1 * ninf), so the segment lies
    under the envelope n1^(1/p) * ninf^(1-1/p) up to rounding; since
    ||A||_1 and ||A||_inf are at most sqrt(n) * ||A||_2, it also lies under
    the scaled two-norm n^|1/2 - 1/p| * n2.
    """
    p = as_exponent(p)
    t = p.reciprocal
    if t == 1.0:
        return UpperEstimate(anchors.n1, "anchor")
    if t == 0.0:
        return UpperEstimate(anchors.ninf, "anchor")
    if p.value == 2.0:
        return UpperEstimate(anchors.n2, "anchor")
    if p.value < 2.0:
        seg = riesz_thorin_bound(p, Exponent(1.0), anchors.n1, Exponent(2.0), anchors.n2)
    else:
        seg = riesz_thorin_bound(p, Exponent(2.0), anchors.n2, INF, anchors.ninf)
    return UpperEstimate(seg, "riesz-thorin")


def upper_bound(A, p) -> UpperEstimate:
    """Best certified upper bound for the operator p-norm of a square matrix."""
    return upper_bound_from_anchors(anchor_norms(A), p)


@dataclass(frozen=True)
class LogAffineReport:
    """LA verdict with the anchor evidence; truthy iff LA.

    ``ratio`` is n2 / sqrt(n1 * ninf) (1.0 exactly for the degenerate zero
    matrix); LA holds when the ratio reaches 1 within the tolerance.
    """

    is_la: bool
    ratio: float
    degenerate: bool = False

    def __bool__(self) -> bool:
        return self.is_la


def la_report_from_anchors(anchors: AnchorNorms) -> LogAffineReport:
    mid = anchors.geometric_midpoint
    if mid == 0.0:
        return LogAffineReport(True, 1.0, degenerate=True)
    ratio = anchors.n2 / mid
    return LogAffineReport(ratio >= 1.0 - _LA_RATIO_TOL, ratio)


def is_log_affine(A) -> LogAffineReport:
    """Test the norm profile for log-affinity via anchor equality at p = 2."""
    return la_report_from_anchors(anchor_norms(A))


def default_grid() -> tuple[Exponent, ...]:
    """Sorted default exponent grid, closed under duality and anchored.

    {1, 1.25, 1.5, 2, 3, 4, 8, inf} plus the duals of the finite points:
    1, 8/7, 1.25, 4/3, 1.5, 2, 3, 4, 5, 8, inf.
    """
    base = [Exponent(v) for v in (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0)]
    pts = set(base) | {dual_exponent(e) for e in base} | {INF}
    return tuple(sorted(pts))


@dataclass(frozen=True)
class PNormProfile:
    """Certified bounds over an exponent grid with convexity diagnostics.

    ``g_values`` pairs (1/p, log upper) in grid order; ``log_convex`` is the
    discrete chord test on them, ``unimodal`` checks the upper envelope has
    a single descent/ascent, and ``p0_estimate`` locates the grid minimum
    (bracketed by ``p0_interval``).  Self-adjoint inputs report p0 = 2.
    ``analysis`` is the one structure analysis every grid point queried.

    Every upper end but "schur" is log-convex in 1/p: the interpolation is
    two log-linear pieces that meet at p = 2, convex because
    n2^2 <= n1 * ninf; an exact rule is constant or log-linear; and the
    tensor and direct-sum rules keep convexity.  So ``log_convex`` and
    ``unimodal`` can read False only where a "schur" upper end enters.
    """

    grid: tuple[Exponent, ...]
    bounds: tuple[NormBound, ...]
    g_values: tuple[tuple[float, float], ...]
    log_convex: bool
    unimodal: bool
    p0_estimate: Exponent
    p0_interval: tuple[Exponent, Exponent]
    analysis: Analysis


def _chord_convex(g_values) -> bool:
    if any(not math.isfinite(g) for _, g in g_values):
        return True  # zero norms: degenerate profile
    for (t0, g0), (t1, g1), (t2, g2) in zip(g_values, g_values[1:], g_values[2:]):
        chord = g0 + (g2 - g0) * (t1 - t0) / (t2 - t0)
        if g1 > chord + 1e-9:
            return False
    return True


def _unimodal(uppers) -> bool:
    tol = 1e-9 * max(uppers)
    m = min(range(len(uppers)), key=uppers.__getitem__)
    head_ok = all(uppers[i] >= uppers[i + 1] - tol for i in range(m))
    tail_ok = all(uppers[i + 1] >= uppers[i] - tol for i in range(m, len(uppers) - 1))
    return head_ok and tail_ok


def profile(A, grid=None, seed: int = 0) -> PNormProfile:
    """Certified bounds over a sorted exponent grid containing 1, 2, and inf.

    The matrix is analyzed once and every grid point is the same query as
    ``certified_bound``, so structure rules apply at every exponent; one
    ``Analysis.bounds`` call answers the whole grid, with one ascent.
    """
    from . import estimator  # deferred: estimator builds on this module

    pts = default_grid() if grid is None else tuple(as_exponent(g) for g in grid)
    if any(b.value <= a.value for a, b in zip(pts, pts[1:])):
        raise ValueError("grid must be sorted strictly increasing")
    have = {e.value for e in pts}
    if not {1.0, 2.0, math.inf} <= have:
        raise ValueError("grid must contain 1, 2, and inf")
    analysis = estimator.analyze(A)
    bounds = analysis.bounds(pts, seed=seed)
    uppers = [b.upper for b in bounds]
    g_values = tuple(
        (p.reciprocal, math.log(u) if u > 0.0 else -math.inf)
        for p, u in zip(pts, uppers)
    )
    if analysis.self_adjoint:
        m = next(i for i, p in enumerate(pts) if p.value == 2.0)
    else:
        m = min(range(len(uppers)), key=uppers.__getitem__)
    return PNormProfile(
        grid=pts,
        bounds=bounds,
        g_values=g_values,
        log_convex=_chord_convex(g_values),
        unimodal=_unimodal(uppers),
        p0_estimate=pts[m],
        p0_interval=(pts[max(m - 1, 0)], pts[min(m + 1, len(pts) - 1)]),
        analysis=analysis,
    )
