"""Lower bounds, a brute-force oracle, and the certified bound combiner.

``ascent_lower_bound`` runs the classical fixed-point ascent for the operator
p-norm: xi <- Phi_q(A* Phi_p(A xi)) with Phi_r(z) = |z|^(r-1) sign(z); the
objective ||A xi||_p / ||xi||_p is nondecreasing along the iteration and the
returned value is always recomputed from the returned maximizer, so it is a
true attained lower bound regardless of convergence.  All starts run as the
columns of one n x k block, one matmul per side and step, each column
freezing on its own stopping test; there is no early stop across starts.
For 1 < p < 2 the iteration runs on (A*, q) and maps the maximizer back
through the duality relation ||A||_p = ||A*||_q, which keeps the working
exponent >= 2.

``analyze`` runs the structural recognizers (block-diagonal splits, doubly
balanced matrices, circulants, cyclic Hankel forms, rank-one block tensors,
the log-affine anchor test) once per matrix; ``Analysis.bound`` then combines
what they found with interpolation upper bounds and the best available lower
bound into one interval with provenance tags at each exponent.
``certified_bound`` is one such query.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from .core import (
    INF,
    Exponent,
    adjoint,
    as_exponent,
    as_matrix,
    as_vector,
    dual_exponent,
    vec_norm,
)
from .exact import (
    AnchorNorms,
    anchor_norms,
    norm_inf_attained,
    norm_one_attained,
)
from .interp import (
    NormBound,
    _is_self_adjoint,
    la_envelope,
    la_report_from_anchors,
    upper_bound_from_anchors,
)
from .structured import (
    TensorRankOne,
    UnitaryPermutation,
    as_circulant,
    as_hankel,
    as_tensor_rank_one,
    circulant_two_norm,
    classify_circulant_la,
    densify,
    doubly_balanced_norm,
    hankel_factor,
    split_direct_sum,
    tensor_norm,
)

__all__ = [
    "Analysis",
    "AscentResult",
    "CertificateError",
    "analyze",
    "ascent_lower_bound",
    "best_lower_bound",
    "certified_bound",
    "eigen_lower_bound",
    "oracle_norm",
    "oracle_search",
]


class CertificateError(ValueError):
    """An eigen certificate failed its residual check."""


@dataclass(frozen=True)
class AscentResult:
    """Attained lower bound: value = ||A maximizer||_p / ||maximizer||_p.

    The value is recomputed from the maximizer before returning, so the
    self-certification identity holds to working precision by construction.
    ``iterations``, ``converged`` and ``objective_trace`` describe the
    winning start; the trace is nondecreasing up to rounding and ends at
    ``value``.
    """

    value: float
    maximizer: np.ndarray
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...]


def eigen_lower_bound(A, xi, S, lam) -> float:
    """Certified lower bound |lam| valid at every exponent.

    Verifies A xi = lam * densify(S) * xi to 1e-9 relative (2-norm residual);
    S must be a phased permutation, which preserves every p-norm, so the
    eigen relation pins ||A||_p >= |lam| for all p.
    """
    M = as_matrix(A)
    x = as_vector(xi)
    if not isinstance(S, UnitaryPermutation):
        raise CertificateError("certificate requires a phased permutation")
    if M.shape[0] != M.shape[1] or M.shape[0] != x.size or S.n != x.size:
        raise ValueError("certificate shapes do not match")
    if not np.any(x):
        raise CertificateError("certificate vector is zero")
    lam = complex(lam)
    lhs = M @ x
    rhs = lam * (densify(S) @ x)
    scale = max(vec_norm(lhs, 2), vec_norm(rhs, 2)) if (np.any(lhs) or np.any(rhs)) else 0.0
    resid = vec_norm(lhs - rhs, 2)
    if resid > 1e-9 * max(scale, 1e-300):
        raise CertificateError(
            f"eigen certificate rejected: residual {resid:.3e} against scale {scale:.3e}")
    return abs(lam)


#: Smallest positive double.  ``np.maximum(top, _TINY)`` keeps every nonzero
#: column maximum and makes a zero one a divisor that maps its column to zeros.
_TINY = 5e-324


def _col_pnorms(Y: np.ndarray, p: Exponent) -> np.ndarray:
    """p-norm of every column, with powers taken on |y| / max|y| per column."""
    a = np.abs(Y)
    top = a.max(axis=0)
    if p.is_inf:
        return top
    s = ((a / np.maximum(top, _TINY)) ** p.value).sum(axis=0)
    return top * s ** (1.0 / p.value)


def _dual_direction(Z: np.ndarray, r: float) -> np.ndarray:
    """Direction of Phi_r(z) = |z|^(r-1) sign(z) for every column z of Z,
    scaled by the column's largest modulus to avoid overflow; zero columns
    stay zero."""
    a = np.abs(Z)
    scaled = a / np.maximum(a.max(axis=0), _TINY)
    sign = np.divide(Z, a, out=np.zeros(Z.shape, dtype=Z.dtype), where=a > 0.0)
    return scaled ** (r - 1.0) * sign


def _finite(v: np.ndarray) -> np.ndarray:
    if not np.isfinite(v).all():
        raise ValueError("ascent iterates must be finite")
    return v


#: Iteration cap of every ascent column, and the relative objective gain
#: below which the column counts as converged.
_ASCENT_MAX_ITER = 500
_ASCENT_GAIN_TOL = 1e-12


def _ascent_starts(M: np.ndarray, r: Exponent, restarts: int, seed: int) -> np.ndarray:
    """Start vectors as the columns of one n x k block.

    Deterministic: the ones vector, the unit vector of the largest-r-norm
    column, and — for real matrices of size <= 4 — one seed per sign orthant,
    since a real matrix attains its norm at a real vector and the ascent
    rarely crosses orthants.  Then restarts-2 seeded complex random starts.
    """
    n = M.shape[1]
    starts = [np.ones(n, dtype=np.complex128)]
    if restarts >= 2:
        e = np.zeros(n, dtype=np.complex128)
        e[int(np.argmax(_col_pnorms(M, r)))] = 1.0
        starts.append(e)
        if n <= 4 and float(np.abs(M.imag).max()) == 0.0:
            for bits in range(1, 2 ** (n - 1)):  # skip all-plus: already seeded
                signs = [1.0] + [-1.0 if bits >> k & 1 else 1.0 for k in range(n - 1)]
                starts.append(np.array(signs, dtype=np.complex128))
        for k in range(restarts - 2):
            rng = np.random.default_rng([seed, k])
            starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return np.stack(starts, axis=1)


def _block_ascent(M: np.ndarray, r: Exponent, X: np.ndarray) -> AscentResult:
    """Run the ascent from every column of X at once; the first column with
    the largest final objective wins.

    Each step is X <- Phi_q(M* Phi_r(M X)) with per-column normalisation.  A
    column freezes when its objective is zero, gains less than 1e-12
    relative, or its next direction is zero; the others go on, up to 500
    steps.  An overflow in either product makes a column norm nonfinite,
    which raises ValueError.
    """
    rv = r.value
    qv = dual_exponent(r).value
    Mh = np.conj(M.T)
    k = X.shape[1]
    X = X / _col_pnorms(X, r)
    objs = np.empty((_ASCENT_MAX_ITER, k))
    iters = np.full(k, _ASCENT_MAX_ITER)
    converged = np.zeros(k, dtype=bool)
    live = np.arange(k)  # the columns still iterating, held in Xl
    Xl = X
    prev = None
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports both
        for step in range(_ASCENT_MAX_ITER):
            Y = M @ Xl
            obj = _finite(_col_pnorms(Y, r))
            objs[step, live] = obj
            done = obj == 0.0
            if prev is not None:
                done |= obj - prev <= _ASCENT_GAIN_TOL * prev
            Xn = _dual_direction(Mh @ _dual_direction(Y, rv), qv)
            nrm = _finite(_col_pnorms(Xn, r))
            stop = done | (nrm == 0.0)
            if stop.any():
                iters[live[stop]] = step + 1
                converged[live[done]] = True
                X[:, live[stop]] = Xl[:, stop]
                keep = ~stop
                live, Xn, nrm, obj = live[keep], Xn[:, keep], nrm[keep], obj[keep]
                if not live.size:
                    break
            Xl, prev = Xn / nrm, obj
        else:
            X[:, live] = Xl  # these columns moved on after their last objective
        w = int(np.argmax(_finite(_col_pnorms(M @ X, r))))
    x = X[:, w]
    value = vec_norm(M @ x, r)
    # a frozen column's last objective is that of x, which value replaces;
    # a capped column moved on after its last one
    recorded = iters[w] if w in live else iters[w] - 1
    return AscentResult(value, x, int(iters[w]), bool(converged[w]),
                        tuple(objs[:recorded, w].tolist()) + (value,))


def ascent_lower_bound(A, p, restarts: int = 8, seed: int = 0) -> AscentResult:
    """Iterative ascent lower bound for the operator p-norm.

    All starts run together as the columns of one n x k block: the ones
    vector, the unit vector of the largest-norm column, sign-orthant seeds
    for small real matrices, and restarts-2 seeded random complex vectors.
    Each step is one matmul per side for the whole block; a column freezes
    once its relative objective gain drops below 1e-12 (at most 500 steps),
    and the first column with the largest objective wins.  Every start runs
    to its own stop; there is no early stop across starts.  At p in {1, inf}
    the exact attaining coordinate formulas are used directly.
    """
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError("ascent_lower_bound requires a square matrix")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    p = as_exponent(p)
    n = M.shape[0]

    if p.value == 1.0:
        value, j = norm_one_attained(M)
        x = np.zeros(n, dtype=np.complex128)
        x[j] = 1.0
        return AscentResult(value, x, 0, True, (value,))
    if p.is_inf:
        value, i = norm_inf_attained(M)
        x = _dual_direction(np.conj(M[i, :, None]), 1.0)[:, 0]  # the phases of row i
        if not np.any(x):
            x = np.zeros(n, dtype=np.complex128)
            x[0] = 1.0
        return AscentResult(vec_norm(M @ x, INF) / vec_norm(x, INF), x, 0, True, (value,))

    dual_run = p.value < 2.0
    work = adjoint(M) if dual_run else M
    r = dual_exponent(p) if dual_run else p
    best = _block_ascent(work, r, _ascent_starts(work, r, restarts, seed))
    if not dual_run:
        return best

    # map the dual maximizer eta back: xi = Phi_q(A* eta) attains at least
    # the dual objective, by the Hoelder equality of the duality map
    xi = _dual_direction((work @ best.maximizer)[:, None], r.value)[:, 0]
    if not np.any(xi):
        xi = np.ones(n, dtype=np.complex128)
    xi = xi / vec_norm(xi, p)
    value = vec_norm(M @ xi, p)
    return AscentResult(value, xi, best.iterations, best.converged,
                        best.objective_trace + (value,))


def best_lower_bound(A, p, seed: int = 0, anchors: AnchorNorms | None = None,
                     extra=()) -> tuple[float, str]:
    """Largest available certified lower bound with its provenance tag.

    Candidates: the exact anchor at p in {1, 2, inf}, the caller's ``extra``
    (value, tag) pairs, and the ascent.
    """
    M = as_matrix(A)
    p = as_exponent(p)
    cands: list[tuple[float, str]] = []
    if anchors is not None:
        if p.value == 1.0:
            cands.append((anchors.n1, "anchor"))
        elif p.value == 2.0:
            cands.append((anchors.n2, "anchor"))
        elif p.is_inf:
            cands.append((anchors.ninf, "anchor"))
    cands.extend(extra)
    cands.append((ascent_lower_bound(M, p, seed=seed).value, "boyd"))
    return max(cands, key=lambda c: c[0])  # the earliest candidate wins a tie


# ---------------------------------------------------------------------------
# brute-force oracle (real 2x2 and 3x3 only)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    h = b - a
    c = b - _GOLDEN * h
    d = a + _GOLDEN * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _GOLDEN * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _GOLDEN * h
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def oracle_search(A, p, resolution: int = 360):
    """Grid search over the real unit sphere with golden-section refinement.

    Supports real 2x2 and 3x3 matrices.  Returns (value, angles, maximizer);
    the value is the maximum of ||A d||_p / ||d||_p over the angular grid
    (resolution points per angle, full sign-covering ranges) refined to an
    angular tolerance of 1e-8, hence always an attained lower bound.
    """
    M = as_matrix(A)
    p = as_exponent(p)
    if float(np.abs(M.imag).max()) != 0.0:
        raise ValueError("oracle supports real matrices only")
    n = M.shape[0]
    if M.shape[0] != M.shape[1] or n not in (2, 3):
        raise ValueError("oracle supports sizes 2 and 3 only")
    if resolution < 360:
        raise ValueError("resolution must be at least 360")
    R = M.real

    def objective(d: np.ndarray) -> float:
        return vec_norm(R @ d, p) / vec_norm(d, p)

    if n == 2:
        thetas = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        D = np.stack([np.cos(thetas), np.sin(thetas)])
        vals = _col_pnorms(R @ D, p) / _col_pnorms(D, p)
        i = int(np.argmax(vals))
        step = 2.0 * np.pi / resolution

        def f1(t: float) -> float:
            return objective(np.array([math.cos(t), math.sin(t)]))

        t_best, v_best = _golden_max(f1, thetas[i] - step, thetas[i] + step, 1e-8)
        if vals[i] > v_best:
            t_best, v_best = float(thetas[i]), float(vals[i])
        d = np.array([math.cos(t_best), math.sin(t_best)])
        return float(v_best), (float(t_best),), d / vec_norm(d, p)

    thetas = np.linspace(0.0, np.pi, resolution)
    phis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    TH, PH = np.meshgrid(thetas, phis, indexing="ij")
    D = np.stack([
        (np.sin(TH) * np.cos(PH)).ravel(),
        (np.sin(TH) * np.sin(PH)).ravel(),
        np.cos(TH).ravel(),
    ])
    vals = _col_pnorms(R @ D, p) / _col_pnorms(D, p)
    i = int(np.argmax(vals))
    th0, ph0 = float(TH.ravel()[i]), float(PH.ravel()[i])
    v0 = float(vals[i])
    h_th = np.pi / (resolution - 1)
    h_ph = 2.0 * np.pi / resolution

    def direction(th: float, ph: float) -> np.ndarray:
        return np.array([
            math.sin(th) * math.cos(ph),
            math.sin(th) * math.sin(ph),
            math.cos(th),
        ])

    th_best, ph_best, v_best = th0, ph0, v0
    for _ in range(8):  # alternating 1-D refinements
        th_best, _v = _golden_max(
            lambda t: objective(direction(t, ph_best)), th_best - h_th, th_best + h_th, 1e-8)
        ph_best, v_new = _golden_max(
            lambda t: objective(direction(th_best, t)), ph_best - h_ph, ph_best + h_ph, 1e-8)
        if v_new <= v_best * (1.0 + 1e-14):
            v_best = max(v_best, v_new)
            break
        v_best = v_new
    if v0 > v_best:
        th_best, ph_best, v_best = th0, ph0, v0
    d = direction(th_best, ph_best)
    return float(v_best), (float(th_best), float(ph_best)), d / vec_norm(d, p)


def oracle_norm(A, p, resolution: int = 360) -> float:
    """Brute-force p-norm value for real 2x2/3x3 matrices (attained, hence a lower bound)."""
    return oracle_search(A, p, resolution)[0]


# ---------------------------------------------------------------------------
# one analysis per matrix, one certified interval per exponent

#: Lower tag of each rule that pins the value exactly at every exponent.
_EXACT_TAGS = {"scalar": "anchor", "balanced": "ones-vector",
               "circulant-la": "eigen-certificate", "log-affine": "anchor"}


@dataclass(frozen=True, eq=False)
class Analysis:
    """Everything structure pins about one square matrix, independent of p.

    ``rule`` names what ``analyze`` found, in the order it tries them:
    "scalar" (1 x 1), "direct-sum", "balanced", "circulant-la", "circulant",
    "hankel", "tensor", "log-affine", or "general" when nothing fired.
    ``parts`` holds the sub-analyses the rule delegates to: the diagonal
    blocks, the circulant factor of a Hankel layout, or the tensor core
    (whose factors are in ``tensor``).  ``own_anchors`` are the anchor norms
    the rule itself computed; the composite rules ("direct-sum", "hankel",
    "tensor") leave it None and derive ``anchors`` from their parts.
    """

    matrix: np.ndarray
    rule: str
    own_anchors: AnchorNorms | None = None
    parts: tuple[Analysis, ...] = ()
    tensor: TensorRankOne | None = None

    @cached_property
    def anchors(self) -> AnchorNorms:
        """Exact norms at p = 1, 2, inf; the Jacobi two-norm runs only for
        "log-affine" and "general", every other rule gives them exactly."""
        if self.own_anchors is not None:
            return self.own_anchors
        sub = [astuple(a.anchors) for a in self.parts]
        if self.rule == "tensor":
            return AnchorNorms(*(tensor_norm(self.tensor, e, v)
                                 for e, v in zip((1.0, 2.0, INF), sub[0])))
        # a direct sum's anchor norms are the largest over its parts; a
        # Hankel layout's are those of its circulant factor
        return AnchorNorms(*map(max, zip(*sub)))

    @cached_property
    def self_adjoint(self) -> bool:
        """Whether the matrix equals its conjugate transpose."""
        return _is_self_adjoint(self.matrix)

    def bound(self, p, seed: int = 0) -> NormBound:
        """Certified interval at one exponent; ``seed`` drives the ascent."""
        p = as_exponent(p)
        rule, anchors = self.rule, self.own_anchors
        if rule in _EXACT_TAGS:
            v = la_envelope(anchors, p) if rule == "log-affine" else anchors.n1
            at_anchor = rule == "scalar" or p.value in (1.0, 2.0) or p.is_inf
            return NormBound(p, v, v, _EXACT_TAGS[rule], "anchor" if at_anchor else "riesz-thorin")
        if rule == "tensor":
            core = self.parts[0].bound(p, seed=seed)
            lo, hi = tensor_norm(self.tensor, p, (core.lower, core.upper))
            return NormBound(p, lo, hi, core.lower_provenance, core.upper_provenance)
        if self.parts:  # the blocks of a direct sum, or a Hankel layout's one factor
            parts = [a.bound(p, seed=seed) for a in self.parts]
            lo_part = max(parts, key=lambda b: b.lower)
            hi_part = max(parts, key=lambda b: b.upper)
            return NormBound(p, lo_part.lower, hi_part.upper,
                             lo_part.lower_provenance, hi_part.upper_provenance)
        up = upper_bound_from_anchors(anchors, self.matrix.shape[0], p, self.self_adjoint)
        # a circulant's attaining root-of-unity eigenvector certifies the
        # spectral value as a lower bound at every exponent
        extra = ((anchors.n2, "eigen-certificate"),) if rule == "circulant" else ()
        lo, ltag = best_lower_bound(self.matrix, p, seed=seed, anchors=anchors, extra=extra)
        if lo > up.value * (1.0 + 1e-9):
            raise RuntimeError(
                f"bound inconsistency at p={p}: lower {lo} exceeds upper {up.value}")
        return NormBound(p, min(lo, up.value), up.value, ltag, up.provenance)


def analyze(A) -> Analysis:
    """Run the structure recognizers once and record the first that fires.

    Tried in order: block-diagonal splits (max over the parts), doubly
    balanced matrices (the shared line sum at every p), circulants
    (log-affine witness, or exact anchors from the spectrum), cyclic Hankel
    layouts (delegated to the circulant factor, which shares all p-norms),
    rank-one block tensors (vector-norm factor times the core), and the
    anchor equality test that certifies the log-affine envelope.
    """
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError("analyze requires a square matrix")

    if M.shape[0] == 1:
        v = abs(complex(M[0, 0]))
        return Analysis(M, "scalar", AnchorNorms(v, v, v))

    blocks = split_direct_sum(M)
    if len(blocks) > 1:
        return Analysis(M, "direct-sum", parts=tuple(analyze(B) for B in blocks))

    balanced = doubly_balanced_norm(M)
    if balanced is not None:
        return Analysis(M, "balanced", AnchorNorms(balanced, balanced, balanced))

    circ = as_circulant(M)
    if circ is not None:
        total = float(np.abs(circ.coeffs).sum())
        if classify_circulant_la(circ).is_la:
            return Analysis(M, "circulant-la", AnchorNorms(total, total, total))
        return Analysis(M, "circulant", AnchorNorms(total, circulant_two_norm(circ), total))

    hank = as_hankel(M)
    if hank is not None:
        # H = P C with P a phase-free permutation, so H shares every p-norm
        # with its circulant factor
        return Analysis(M, "hankel", parts=(analyze(densify(hankel_factor(hank)[1])),))

    tensor = as_tensor_rank_one(M)
    if tensor is not None:
        return Analysis(M, "tensor", parts=(analyze(tensor.core),), tensor=tensor)

    anchors = anchor_norms(M)
    return Analysis(M, "log-affine" if la_report_from_anchors(anchors).is_la else "general",
                    anchors)


def certified_bound(A, p, seed: int = 0) -> NormBound:
    """Certified interval for the operator p-norm of a square complex matrix.

    Structure is used whenever it pins the value exactly (see ``analyze``).
    Otherwise the interval combines the interpolation upper bound with the
    best lower bound (exact anchors, circulant eigen certificates, iterative
    ascent).  To query several exponents, analyze once and call
    ``Analysis.bound`` for each.
    """
    return analyze(A).bound(p, seed=seed)
