"""Lower bounds, a brute-force oracle, and the certified bound combiner.

``ascent_lower_bound`` runs the classical fixed-point ascent for the operator
p-norm: xi <- Phi_q(A* Phi_p(A xi)) with Phi_r(z) = |z|^(r-1) sign(z); the
objective ||A xi||_p / ||xi||_p is nondecreasing along the iteration and the
returned value is always recomputed from the returned maximizer, so it is a
true attained lower bound regardless of convergence.  Each ``AscentResult``
holds that value and maximizer, and the step count and convergence of the
winning start; no per-step history is kept.  It takes one exponent
or a sequence of them, and every start of every exponent runs as one row of
one k x n block, grouped by working matrix (A for p > 2, A* for p < 2):
each step takes one product per working matrix and one power per side,
with each row's exponent in a full-shape array where the rows do not share
one, and every other operation of a step is one call over all rows.  So a query pays the per-step call
overhead once, however many exponents it asks for, and costs the largest of
their step counts rather than their sum; an exponent's rows keep the bits
they have alone.  Each row freezes on its own stopping test, a relative
gain of at most 1e-12.  Given an upper end U on the norm,
as ``Analysis.bounds`` gives for signed and complex input, a start that
trails its exponent's best also stops once its gain is below 2e-6 of the
gap (U - obj) / U, while the best start climbs on to the 1e-12 test.  With
U the engine also gives a floor L, the largest lower end it holds without
an ascent (a circulant's eigen certificate, a direct sum's exactly pinned
blocks), never above U: the best starts at L, so starts below L trail and
stop early.  The rows with U also extrapolate: near a maximum the ascent
converges linearly, so from step 11 on, every third step, a row whose last
two gains fell by a ratio rho^2 in (0.25, 0.99) jumps ahead along its last
step, and returns to the plain iterate if the jump lowered its objective.
With U the value returned is also rounded down by an a-priori bound on its
rounding, so that it lies at or below the quotient its maximizer attains in
exact arithmetic.  Each side of a step takes one modulus, one row maximum
and one fractional power, which give both the row norms and the next
direction.
The seeded random starts are built once per (n, count, seed) and cached as
a read-only block; the column norms that pick a start, the start
normalisation and the final objectives are one pass each over every
exponent, and so is the wrap-up of the winning starts: the map back from
the dual, the normalisation and the value recomputed on the caller's
matrix, with one matrix-vector product per winner and side.
For 1 < p < 2 the iteration runs on (A*, q) and maps the maximizer back
through the duality relation ||A||_p = ||A*||_q, which keeps the working
exponent >= 2.

Scale is decided once, by ``core._unit_scale``: the power of two that
brings a matrix's largest modulus into [1, 2), exact but for entries below
2^-1022 of the largest.  ``analyze`` splits off the 1 x 1 case and the direct
sum first, so each block scales itself, then scales the matrix once; every
recognizer, anchor and rule reads that copy, and ``Analysis.bounds`` scales
every end back by the same power of two, raising ValueError for an end past
the double range.  So intervals follow the matrix's scale bit for bit
wherever the entries and ends are normal, up to the top of the double
range; an end scaled back below the normal range rounds, and is stepped one
ulp outward where it rounded inward.  The public functions that the engine
calls on that copy (the ascent, the two-norm, the recognizers) scale their
own input by the same helper, which finds k = 0 on the engine's copy and
copies nothing; the ascent recomputes its value on the caller's matrix.
Only the Schur test keeps a scaling of its own, taken once per query for
every maximizer it tests.

``analyze`` runs the structural recognizers (block-diagonal splits, doubly
balanced matrices, circulants, cyclic Hankel forms, rank-one block tensors)
once per matrix; the log-affine anchor test, which needs the squaring
two-norm, runs once too, but only when an exponent off p = 1, inf or the
rule itself is first asked for.  At each exponent its rule
proposes lower candidates (attained value, tag) and upper candidates
(certified value, tag): an exact rule one of each, a tensor its core's two
ends scaled, a direct sum or Hankel layout every part's lower end and the
largest part upper end.  Any other matrix proposes the anchor or the ascent
(with a circulant's eigen certificate first) and the interpolation segment
through the anchors, plus, for a real entrywise nonnegative matrix, the
Schur test at the ascent's maximizer, which is tight at the ascent's fixed
point.  Lower ends that need no ascent floor it: the eigen certificate, and
in a direct sum the lower ends of the blocks that run none, bounded first.
An exponent whose floor lies above its upper end is settled: a lower end
that the caller holds tops both of its ends, so it runs no ascent and
proposes the ones vector's attained value in its place.  One combine step
in ``Analysis.bounds`` then picks the largest lower and the smallest upper
candidate, checks them against each other and tags the interval, with one
ascent for all exponents.  ``certified_bound`` is one such query.  The
engine calls ``ascent_lower_bound`` itself, once per matrix and query, and
takes the values at p = 1, 2, inf from its own anchors; ``best_lower_bound``
pairs the two for a caller outside the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import accumulate, compress

import numpy as np

from .core import (
    INF,
    Exponent,
    _check_seed,
    _unit_scale,
    adjoint,
    as_exponent,
    as_square,
    as_vector,
    dual_exponent,
    vec_norm,
)
from .exact import AnchorNorms, anchor_norms, norm_inf, norm_one
from .interp import (
    NormBound,
    _is_self_adjoint,
    la_envelope,
    la_report_from_anchors,
    upper_bound_from_anchors,
)
from .structured import (
    Circulant,
    TensorRankOne,
    UnitaryPermutation,
    as_circulant,
    as_hankel,
    as_tensor_rank_one,
    circulant_two_norm,
    classify_circulant_la,
    densify,
    doubly_balanced_norm,
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
    ``iterations`` is the number of steps the winning start took, and
    ``converged`` whether it stopped on the gain test rather than at the
    step cap or on a zero direction; both are 0 and True at p in {1, inf}.
    With an upper end given (``Analysis.bounds`` on signed and complex
    input), starts that trail may stop on the gap-scaled gain test, or on
    the test against their exponent's converged best, but the winning start
    has stopped on the 1e-12 test, up to rounding, so ``converged`` means
    the same there.  With a floor above every start too
    (``ascent_lower_bound``), the winner may have stopped on either of the
    other tests.
    With an upper end, ``iterations`` also counts the steps that evaluated
    an extrapolation, and ``value`` is rounded down by an a-priori bound on
    the rounding of A maximizer and of the norms, read off the column and
    row sums of |A|, so that it lies at or below
    ||A maximizer||_p / ||maximizer||_p in exact arithmetic; without one it
    is the computed quotient, which can lie a few ulps above it.
    """

    value: float
    maximizer: np.ndarray
    iterations: int
    converged: bool


def eigen_lower_bound(A, xi, S, lam) -> float:
    """Certified lower bound |lam| valid at every exponent.

    Verifies A xi = lam * densify(S) * xi to 1e-9 relative (2-norm residual);
    S must be a phased permutation, which preserves every p-norm, so the
    eigen relation pins ||A||_p >= |lam| for all p.
    """
    M = as_square(A)
    x = as_vector(xi)
    if not isinstance(S, UnitaryPermutation):
        raise CertificateError("certificate requires a phased permutation")
    if M.shape[0] != x.size or S.n != x.size:
        raise ValueError("certificate shapes do not match")
    if not np.any(x):
        raise CertificateError("certificate vector is zero")
    lam = complex(lam)
    lhs = M @ x
    rhs = lam * (densify(S) @ x)
    scale = max(vec_norm(lhs, 2), vec_norm(rhs, 2))
    resid = vec_norm(lhs - rhs, 2)
    if resid > 1e-9 * scale:
        raise CertificateError(
            f"eigen certificate rejected: residual {resid:.3e} against scale {scale:.3e}")
    return abs(lam)


#: Smallest positive double.  ``np.maximum(top, _TINY)`` keeps every nonzero
#: maximum and makes a zero one a divisor that maps its line to zeros.
_TINY = 5e-324
#: Smallest normal double: a divisor clamped to it keeps every reciprocal
#: finite, and leaves every normal modulus as it is.
_NORMAL = float(np.finfo(np.float64).tiny)
#: np.power takes these scalar exponents by np.sqrt and np.square, which
#: round differently from its general power.
_FAST_POWERS = {0.5: np.sqrt, 2.0: np.square}


def _pnorms(Y: np.ndarray, p: Exponent) -> np.ndarray:
    """p-norm of every column of Y, with powers taken on |y| / max|y| per
    column."""
    a = np.abs(Y)
    top = a.max(axis=0)
    if p.is_inf:
        return top
    s = ((a / np.maximum(top, _TINY)) ** p.value).sum(axis=0)
    return top * s ** (1.0 / p.value)


def _fast_stretches(exponents) -> list[tuple]:
    """(np.sqrt or np.square, i, j) for each longest stretch i:j of
    consecutive groups of rows whose exponents are all 0.5, or all 2."""
    stretches = []
    for i, e in enumerate(exponents):
        f = _FAST_POWERS.get(e)
        if f is None:
            continue
        if stretches and stretches[-1][0] is f and stretches[-1][2] == i:
            stretches[-1] = (f, stretches[-1][1], i + 1)
        else:
            stretches.append((f, i, i + 1))
    return stretches


def _fast_rows(stretches, offsets, S: np.ndarray, P: np.ndarray) -> list[tuple]:
    """(np.sqrt or np.square, rows of S, same rows of P) for each stretch of
    ``_fast_stretches`` that holds rows, group i's rows (entries along the
    first axis) starting at offsets[i]."""
    fast = []
    for f, i, j in stretches:
        lo, hi = offsets[i], offsets[j]
        if lo < hi:
            fast.append((f, S[lo:hi], P[lo:hi]))
    return fast


def _powers(S: np.ndarray, P: np.ndarray, E, fast) -> np.ndarray:
    """P = S ** E, with E one exponent, or each row's exponent in full
    shape: bit for bit np.power(row, e) with each row's e a scalar.

    np.power rounds a full-shape exponent array as it rounds a scalar, but
    for the scalars 0.5 and 2, which it takes by np.sqrt and np.square; the
    rows at those, listed in ``fast`` (``_fast_rows``), take these too.  P
    must not share memory with S.
    """
    np.power(S, E, out=P)
    for f, s, p in fast:
        f(s, out=p)
    return P


def _group_powers(S: np.ndarray, P: np.ndarray | None, exponents, counts) -> np.ndarray:
    """``_powers`` for a block S whose next counts[i] rows (entries along
    its first axis) take exponents[i], into P, or a new array where P is
    None: one scalar exponent where all groups share it, as np.power takes
    it alone."""
    if len(set(exponents)) == 1:
        return np.power(S, exponents[0], out=P)
    P = np.empty(S.shape) if P is None else P
    E = np.empty(S.shape)
    E[...] = np.repeat(exponents, counts).reshape(-1, *(1,) * (S.ndim - 1))
    offsets = list(accumulate(counts, initial=0))
    return _powers(S, P, E, _fast_rows(_fast_stretches(exponents), offsets, S, P))


def _row_pnorms(Y: np.ndarray, rs, counts) -> np.ndarray:
    """The r-norm of every row of Y, whose next counts[i] rows take the
    finite exponent rs[i]: bit for bit the norms that a power with the
    scalar rs[i] gives each group, from one power of the whole block."""
    a = np.abs(Y)
    top = a.max(axis=1)
    s = a / np.maximum(top, _TINY)[:, None]
    sums = _group_powers(s, None, rs, counts).sum(axis=1)
    return top * _group_powers(sums, None, [1.0 / v for v in rs], counts)


def _image_step(Y: np.ndarray, S: np.ndarray, U: np.ndarray, D: np.ndarray | None,
                E: np.ndarray, fast) -> tuple[np.ndarray, np.ndarray]:
    """Phi_r(y) / max|y|^(r-1) into the rows of D for every row y of Y,
    r >= 2, and what the r-norm of y needs, from one modulus and one power.

    E and ``fast`` give each row's r - 2 (``_powers``).  With
    m = max|y|, s = |y| / m in S and u = s^(r-2) in U, the direction is
    y u / m and the r-norm of y is m (sum u s s)^(1/r); returned are m and
    sum u s s.  Here m is clamped to the smallest normal double, which keeps
    u / m finite: at r = 2 a zero row has u = 0^0 = 1.  With D None only the
    norm is taken.
    """
    a = np.abs(Y)
    m = a.max(axis=1, initial=_NORMAL)
    scale = m[:, None]
    np.divide(a, scale, out=S)
    _powers(S, U, E, fast)
    if D is not None:
        np.multiply(Y, U / scale, out=D)
    return m, (U * S * S).sum(axis=1)


def _preimage_step(Z: np.ndarray, S: np.ndarray, V: np.ndarray,
                   E: np.ndarray, fast) -> tuple[np.ndarray, np.ndarray]:
    """Phi_q(z) / max|z|^(q-1) for every row z of Z, and sum v s, whose power
    (q - 1) / q is its r-norm, r = q / (q - 1); from one modulus and one
    power, E and ``fast`` giving each row's q - 1 (``_powers``).

    With s = |z| / max|z| in S and v = s^(q-1) in V, the direction is
    z v / |z| (zero where z is zero) and its r-norm is (sum v s)^(1/r),
    since (q - 1) r = q.  The divisor |z| is clamped to the smallest normal
    double: for q near 1, v / |z| would overflow at a subnormal z.  A zero z
    has v = 0, so its entry stays zero.
    """
    a = np.abs(Z)
    np.divide(a, a.max(axis=1, initial=_TINY)[:, None], out=S)
    _powers(S, V, E, fast)
    return (V * S).sum(axis=1), Z * (V / np.maximum(a, _NORMAL))


def _finite(v: np.ndarray) -> np.ndarray:
    if not np.isfinite(v).all():
        raise ValueError("ascent iterates must be finite")
    return v


#: Iteration cap of every ascent row, and the relative objective gain below
#: which the row counts as converged.
_ASCENT_MAX_ITER = 500
_ASCENT_GAIN_TOL = 1e-12
#: A row with an upper end U on its norm that trails its exponent's best
#: also counts as converged once its relative gain is below
#: _ASCENT_GAP_TOL (U - obj) / U, this fraction of the relative gap that its
#: lower end still has to close.
_ASCENT_GAP_TOL = 2e-6
#: Once the best start of a run with an upper end has stopped on the fine
#: test at its run's peak v (or where the run has a floor L > 0, v = L), a
#: row of that run also counts as converged once its relative gain is below
#: _BEST_GAP_TOL (v - obj) / v, this fraction of the relative gap that it
#: still has to close to v.
_BEST_GAP_TOL = 3e-3
#: A row with an upper end extrapolates at every _EXTRAPOLATE_EVERY-th step
#: from step _EXTRAPOLATE_FROM on, where the ratio rho^2 of its last two
#: objective gains lies strictly between the two ratios below, by the factor
#: min(rho / (1 - rho), _EXTRAPOLATE_MAX).
_EXTRAPOLATE_FROM = 11
_EXTRAPOLATE_EVERY = 3
_EXTRAPOLATE_RATIOS = (0.25, 0.99)
_EXTRAPOLATE_MAX = 8.0


@lru_cache(maxsize=64)  # bounded: one small block per (n, count, seed)
def _random_starts(n: int, count: int, seed: int) -> np.ndarray:
    """Read-only n x count block whose column k is drawn from
    ``default_rng([seed, k])``: standard normal real, then imaginary part."""
    block = np.empty((n, count), dtype=np.complex128)
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        block[:, k] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    block.flags.writeable = False
    return block


@lru_cache(maxsize=4)  # n <= 4
def _orthant_starts(n: int) -> np.ndarray:
    """Read-only block of one sign vector per sign orthant of R^n but the
    all-plus one, each with first entry +1: row b - 1 has -1 where bit j of
    b is set, at entry j + 1."""
    bits = np.arange(1, 2 ** (n - 1))[:, None] >> np.arange(n - 1) & 1
    block = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits]).astype(np.complex128)
    block.flags.writeable = False
    return block


def _ascent_starts(M: np.ndarray, a: np.ndarray, rs, restarts: int,
                   seed: int) -> list[np.ndarray]:
    """Start vectors on the working matrix M, whose modulus is a, at each
    exponent of ``rs``, as the rows of one k x n block per exponent.

    Deterministic: the ones vector, the unit vector of the largest-r-norm
    column, and — for real matrices of size <= 4 — one seed per sign orthant,
    since a real matrix attains its norm at a real vector and the ascent
    rarely crosses orthants.  Then the restarts-2 seeded complex random
    starts of ``_random_starts``.  The column norms at every exponent come
    from one power of a block of n x n slices, one per distinct exponent,
    bit for bit ``_pnorms`` at each.
    """
    n = M.shape[1]
    if restarts < 2:
        return [np.ones((1, n), dtype=np.complex128) for _ in rs]
    vs = sorted({r.value for r in rs})
    ones = [1] * len(vs)
    top = a.max(axis=0)
    s = a / np.maximum(top, _TINY)
    s = np.broadcast_to(s, (len(vs), n, n)) if len(vs) > 1 else s[None]
    sums = _group_powers(s, np.empty(s.shape), vs, ones).sum(axis=1)
    roots = _group_powers(sums, np.empty(sums.shape), [1.0 / v for v in vs], ones)
    column = dict(zip(vs, (top * roots).argmax(axis=1).tolist()))
    tail = _random_starts(n, restarts - 2, seed).T
    if n <= 4 and not M.imag.any():
        tail = np.concatenate([_orthant_starts(n), tail])
    blocks = []
    for r in rs:
        block = np.concatenate([np.zeros((2, n), dtype=np.complex128), tail])
        block[0] = 1.0
        block[1, column[r.value]] = 1.0
        blocks.append(block)
    return blocks


def _block_ascent(runs) -> list[tuple[np.ndarray, int, bool]]:
    """Run the ascent from every start of every run at once, and return for
    each run (final iterate, step count, converged) of its winning start,
    the first with the largest objective at its final iterate.  The caller
    recomputes the value on its own matrix.

    A run is (working matrix W, exponent r >= 2, starts as rows, U, L), with
    U an upper end on ||W||_r or None, and 0 <= L <= U a floor (0 without
    U): a lower end that the caller already holds, so that the run's value
    is of use only above it.  All starts are the rows of one k x n block,
    each working matrix's rows together and within them each run's.  Each
    step is x <- Phi_q(W* Phi_r(W x)) with per-row normalisation, from one
    product per working matrix and one power per side.  A product's rows
    round as the rows of a product of their run alone, but for a run
    down to one live row, whose lone product BLAS takes by gemv: that row
    takes a product of its own.  The powers take the live rows' exponent as
    a scalar where they share one, as a run alone does, and else each row's
    from a full-shape array (``_powers``).  Every other operation is one
    call over all rows, reducing along rows, and a row is compared only with
    rows of its own run.  So the bits of a run do not depend on which other
    runs share the block.  A row freezes when its objective is zero, its next
    direction is zero, or its objective gains no more than 1e-12 relative.
    Where U is given, a row whose objective obj gains no more than
    2e-6 (U - obj) / U relative freezes too, a gain too small to move the
    lower end against the gap left to U, unless neither the floor nor any
    row of its run is above it: that row climbs on, on the 1e-12 test for
    good, since an ascent can linger at a small gain near a saddle for
    hundreds of steps and then climb again.  Once a row of a run with U
    stops on the 1e-12 test at its run's peak with value v, the run's
    converged best, or from step 0 where the run has a floor L > 0, with
    v = L, every other row of that run also freezes once its relative gain
    is no more than 3e-3 (v - obj) / v, a gain too small to reach v soon; a
    row that climbs past v leads on the 1e-12 test as before, and a later
    converged best at the peak raises v.  The block reads this test only
    from the step where some run first has a v.  So a start that climbs
    past the floor and wins has stopped on the 1e-12 test, and starts that
    trail it or the floor stop early.  The rows go on up to 500 steps, and
    a run whose rows have all frozen costs nothing.  An overflow in either
    product makes a row norm nonfinite, which raises ValueError.

    A row with U also extrapolates, since near a maximum the iterates
    converge linearly and the objective gains fall by a nearly constant
    ratio rho^2 (Aitken's delta^2; Sidi, *Vector Extrapolation Methods with
    Applications*, SIAM, 2017).  At step 11 and every third step after it,
    a row whose last two gains have a ratio rho^2 in (0.25, 0.99) takes, in
    place of x_{k+1}, x_e = x_{k+1} + min(rho / (1 - rho), 8) (x_{k+1} - x_k)
    at r-norm 1, normalised by the image step's own powers.  The next step
    evaluates x_e: where its objective fell below the row's last one, the
    row takes back x_{k+1} and that objective, having lost that one step,
    and no row stops on that step.  Those two gains come from steps that
    evaluated no extrapolation, and every decision reads the row's own
    values and the step number, so a run keeps its bits in any block; rows
    without U never extrapolate.
    """
    # each working matrix's runs together, and each exponent's within them,
    # so that the rows at a power's fast exponent stay one stretch
    order = sorted(range(len(runs)), key=lambda i: (id(runs[i][0]), runs[i][1].value))
    runs = [runs[i] for i in order]
    groups = []  # per working matrix: W^T and conj(W), and its runs i:j
    rs, qs, ends, total = [], [], [], []
    for i, (W, r, X0, U, _) in enumerate(runs):
        if i and W is runs[i - 1][0]:
            groups[-1][2] = i + 1
        else:
            groups.append([(W.T, np.conj(W)), i, i + 1])
        rs.append(r.value)
        qs.append(dual_exponent(r).value)
        ends.append(U)
        total.append(len(X0))
    counts = list(total)  # rows left per run
    k, n = sum(total), runs[0][0].shape[0]
    ups, downs = [r - 2.0 for r in rs], [q - 1.0 for q in qs]
    gapped = any(U is not None for U in ends)
    # per run with U, the value v of its converged best start, or its floor
    # L > 0; zero where it has none yet or U is None
    v_run = [0.0 if U is None else L for *_, U, L in runs]
    any_v = any(v_run)  # the test against v is read from the first v on
    # per live row: the powers that take a row sum to the objective and to
    # the r-norm of the next direction, tau and tau / U of the gap test
    # (zero where U is None), c and c / v of the test against the run's
    # converged best (zero where it has no v), its exponents r - 2 and q - 1,
    # 1 where it may extrapolate (U is given) and nan elsewhere, and that
    # times its objective gain at the step before each step that may
    # extrapolate
    rows = np.array([[1.0 / r for r in rs], [(q - 1.0) / q for q in qs],
                     [0.0 if U is None else _ASCENT_GAP_TOL for U in ends],
                     [0.0 if U is None else _ASCENT_GAP_TOL / U for U in ends],
                     [_BEST_GAP_TOL if v > 0.0 else 0.0 for v in v_run],
                     [_BEST_GAP_TOL / v if v > 0.0 else 0.0 for v in v_run], ups, downs,
                     [math.nan if U is None else 1.0 for U in ends], [math.nan] * len(runs)])
    rows = rows.repeat(counts, axis=1)
    lo_ratio, hi_ratio = _EXTRAPOLATE_RATIOS
    # per side: the one exponent of every row, which np.power takes as a
    # scalar, or None and the stretches of rows that take a fast power
    sides = [(e[0], None) if len(set(e)) == 1 else (None, _fast_stretches(e)) for e in (ups, downs)]
    run_of = np.arange(len(runs)).repeat(counts)  # the run of each live row
    # The live rows lead every work buffer, each run's rows together, so the
    # views that the products and powers use change only when a row
    # freezes.  The rows of Xl start as the starts at r-norm 1.
    cbuf, fbuf = np.empty((4, k, n), dtype=np.complex128), np.empty((4, k, n))
    np.concatenate([X0 for _, _, X0, _, _ in runs], out=cbuf[0])
    np.divide(cbuf[0], _row_pnorms(cbuf[0], rs, counts)[:, None], out=cbuf[0])

    def products(counts, offsets, src, dst, side):
        """(rows of src, matrix, same rows of dst) of each product of one
        side: one per working matrix with a run of two rows or more, then
        one per run with one row."""
        out = []
        for mats, i, j in groups:
            lo, hi, cs = offsets[i], offsets[j], counts[i:j]
            ones = cs.count(1)
            if hi - lo > ones:
                out.append((src[lo:hi], mats[side], dst[lo:hi]))
            if ones:
                out += [(src[a:a + 1], mats[side], dst[a:a + 1])
                        for a, c in zip(offsets[i:j], cs) if c == 1]
        return out

    def layout(m):
        """The leading m rows of each buffer and of ``rows``, and the
        products and the exponent and fast rows of each side's power."""
        offsets = list(accumulate(counts, initial=0))
        Xl, Y, D, Z = cbuf[:, :m]
        S, U, *E = fbuf[:, :m]
        powers = []
        for (e, stretches), Es, es in zip(sides, E, rows[6:]):
            if stretches is None:
                powers += [e, []]
            else:
                Es[...] = es[:, None]
                powers += [Es, _fast_rows(stretches, offsets, S, U)]
        return (Xl, Y, D, Z, S, U, *rows[:6], products(counts, offsets, Xl, Y, 0),
                products(counts, offsets, D, Z, 1), *powers)

    X = np.empty((k, n), dtype=np.complex128)  # each row's final iterate
    iters = np.full(k, _ASCENT_MAX_ITER)
    converged = np.zeros(k, dtype=bool)
    live = np.arange(k)  # the rows still iterating, held in Xl
    # against a zero previous objective the gain test at step 0 reads
    # obj == 0, and at every later step a zero objective stops too
    prev = np.zeros(k)
    # per run, the floor, or the largest objective of a row frozen by a gain
    # test if that is larger
    best = np.array([L for *_, L in runs])
    (Xl, Y, D, Z, S, U, root_obj, root_nrm, tau, tau_u, c, c_v,
     fwd, back, e_up, up, e_down, down) = layout(k)
    trial = None  # the rows whose extrapolation this step evaluates
    # checked below; a row with a zero norm stops, so its quotients are dropped
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(_ASCENT_MAX_ITER):
            for x, w, y in fwd:
                np.dot(x, w, out=y)
            top, sums = _image_step(Y, S, U, D, e_up, up)
            obj = top * sums ** root_obj
            for d, w, z in back:
                np.dot(d, w, out=z)
            sums, Xn = _preimage_step(Z, S, U, e_down, down)
            nrm = sums ** root_nrm
            # one check for both: every entry is >= 0 and small, so the dot
            # product is finite exactly when all are (inf * 0 is nan)
            if not math.isfinite(obj.dot(nrm)):
                raise ValueError("ascent iterates must be finite")
            if trial is not None:
                # a row whose extrapolated iterate fell below its last
                # objective takes back the iterate it left, and its last
                # objective, at the cost of this one step
                fell = trial & ~((obj >= prev) & (nrm > 0.0))
                if np.count_nonzero(fell):
                    at = np.flatnonzero(fell)
                    Xn[at], nrm[at], obj[at] = left[at], 1.0, prev[at]
            gain = obj - prev
            # tau - obj tau / U is tau (U - obj) / U, and 0 where U is None or
            # the row has led
            tol = np.maximum(_ASCENT_GAIN_TOL, tau - obj * tau_u) if gapped else _ASCENT_GAIN_TOL
            if any_v:
                # c - obj c / v is c (v - obj) / v, and at most 0 where the
                # run has no v or the row has climbed to it
                np.maximum(tol, c - obj * c_v, out=tol)
            done = gain <= tol * prev
            if trial is not None:
                done &= ~trial  # no row stops on the step that evaluates its jump
            if gapped and np.count_nonzero(done):
                # a row that passes the gap test alone while neither its run's
                # floor nor any row of its run is above it climbs on, on the
                # fine test for good
                peak = best.copy()
                np.maximum.at(peak, run_of, obj)
                high = done & (obj >= peak[run_of])
                lead = high & (gain > _ASCENT_GAIN_TOL * prev)
                if np.count_nonzero(lead):
                    rows[2:4, lead] = 0.0
                    done &= ~lead
                    high ^= lead
                np.maximum.at(best, run_of[done], obj[done])
                # a row left in high stopped on the fine test at its run's
                # peak, so it is the run's converged best: where the run has
                # U, its other rows weigh their gains against its value v
                # from the next step on
                if np.count_nonzero(high):
                    for i, value in zip(run_of[high].tolist(), obj[high].tolist()):
                        if ends[i] is not None and value > v_run[i]:
                            v_run[i] = value
                    v = np.array(v_run)[run_of]
                    rows[4] = np.where(v > 0.0, _BEST_GAP_TOL, 0.0)
                    rows[5] = np.where(v > 0.0, _BEST_GAP_TOL / v, 0.0)
                    any_v = any(v_run)
            stop = done | (nrm == 0.0)
            trial = None
            if gapped and step >= _EXTRAPOLATE_FROM - 1:
                phase = (step - _EXTRAPOLATE_FROM) % _EXTRAPOLATE_EVERY
                if phase == _EXTRAPOLATE_EVERY - 1:
                    # the gain that the next step's test reads, nan where U is
                    # None; a row that goes on has gained, so it is positive
                    np.multiply(gain, rows[8], out=rows[9])
                elif phase == 0:
                    # the gains of the last two steps, neither of which
                    # evaluated an extrapolation, fall by a ratio rho^2 near a
                    # maximum; rows without U read a nan ratio, so they never
                    # jump
                    ratio = gain / rows[9]
                    jump = (ratio > lo_ratio) & (ratio < hi_ratio)
                    if np.count_nonzero(jump):
                        # x_e = x_{k+1} + factor (x_{k+1} - x_k) at r-norm 1,
                        # by the image step's own powers, in place of x_{k+1},
                        # which is kept; the next step evaluates it
                        left = Xn / nrm[:, None]
                        Xe = left - Xl
                        rho = np.sqrt(np.where(jump, ratio, 0.0))
                        Xe *= np.minimum(rho / (1.0 - rho), _EXTRAPOLATE_MAX)[:, None]
                        Xe += left
                        top, sums = _image_step(Xe, S, U, None, e_up, up)
                        np.divide(Xe, (top * sums ** root_obj)[:, None], out=Xe)
                        trial, nxt = jump, np.where(jump[:, None], Xe, left)
            if np.count_nonzero(stop):  # the cheapest test of a small mask
                iters[live[stop]] = step + 1
                converged[live[done]] = True
                X[live[stop]] = Xl[stop]
                for i in run_of[stop].tolist():
                    counts[i] -= 1
                keep = ~stop
                live, run_of = live[keep], run_of[keep]
                Xn, nrm, obj = Xn[keep], nrm[keep], obj[keep]
                if not live.size:
                    break
                rows = rows[:, keep]
                if trial is not None:
                    trial, left, nxt = trial[keep], left[keep], nxt[keep]
                (Xl, Y, D, Z, S, U, root_obj, root_nrm, tau, tau_u, c, c_v,
                 fwd, back, e_up, up, e_down, down) = layout(live.size)
            prev = obj
            if trial is None:
                np.divide(Xn, nrm[:, None], out=Xl)
            else:
                np.copyto(Xl, nxt)
        else:
            X[live] = Xl  # these rows moved on after their last objective
        # each start's objective at its final iterate, from one product per
        # working matrix
        for x, w, y in products(total, list(accumulate(total, initial=0)), X, cbuf[1], 0):
            np.dot(x, w, out=y)
        objs = _finite(_row_pnorms(cbuf[1], rs, total))
    winners, lo = [None] * len(runs), 0
    for i, c in zip(order, total):
        w = lo + int(np.argmax(objs[lo:lo + c]))
        winners[i] = (X[w], int(iters[w]), bool(converged[w]))
        lo += c
    return winners


def _exponent_args(p) -> tuple[tuple[Exponent, ...], bool]:
    """The exponents of one exponent, or of a tuple, list or 1-D array of
    them, each validated, and whether it was one exponent."""
    if isinstance(p, (tuple, list)) or isinstance(p, np.ndarray) and p.ndim == 1:
        return tuple(map(as_exponent, p)), False
    return (as_exponent(p),), True


def _endpoint_ascent(M: np.ndarray, a: np.ndarray, p: Exponent) -> tuple:
    """(value, maximizer, 0, True) of the exact attaining coordinate formulas
    at p in {1, inf}, read off the modulus a of M: the first largest column
    sum at p = 1 and row sum at p = inf, as ``norm_one_attained`` and
    ``norm_inf_attained`` give them."""
    sums = a.sum(axis=0 if p.value == 1.0 else 1)
    i = int(np.argmax(sums))
    value = float(sums[i])
    x = np.zeros(len(M), dtype=np.complex128)
    if p.value == 1.0:
        x[i] = 1.0
    else:
        # the phases of the row scaled into the normal range: a complex
        # quotient by a subnormal modulus overflows
        row = _unit_scale(M[i], float(a[i].max()))[0]
        np.divide(np.conj(row), np.abs(row), out=x, where=row != 0.0)
        if not np.any(x):
            x[0] = 1.0
    return value, x, 0, True


def ascent_lower_bound(A, p, restarts: int = 8, seed: int = 0, *, _uppers=None, _floors=None):
    """Iterative ascent lower bound for the operator p-norm, at one exponent
    or at each of a sequence of them.

    ``p`` is one exponent, which gives one ``AscentResult``, or a sequence,
    which gives a tuple of them in the same order (duplicates allowed, ``()``
    for an empty sequence).  Every argument is validated before any ascent
    runs; ``restarts`` must be a positive integer.

    The starts of every exponent run together as the rows of one k x n
    block (``_block_ascent``): for each, the ones vector, the unit vector of
    the largest-norm column, sign-orthant seeds for small real matrices, and
    restarts-2 seeded random complex vectors.  Each step is one product per
    working matrix (A, or A* for p < 2) and one power per side, whatever
    the number of exponents; a row freezes once its relative objective gain
    drops below 1e-12 (at most 500 steps), and the first row of an exponent
    with the largest objective wins.  Every start runs to its own stop.  An
    exponent's result has the same bits whichever exponents share the call.
    At p in {1, inf} the exact attaining coordinate formulas are used
    directly.  A call takes the modulus |A| once, and reads off it the
    power-of-two scale, the start columns of both working matrices, the
    sums of the exact formulas and the n1 and ninf of the rounding below.
    One pass wraps up the winners of every exponent (``_attained``): the
    map back from A* for p < 2, the normalisation and the value recomputed
    on A, with one matrix-vector product per winner and side, each power
    over a full-shape exponent array and each root a Python float power,
    so each exponent keeps the bits it has alone.

    ``_uppers``, for the engine only, is a sequence in step with the
    exponents (one entry for a lone exponent) of upper ends U on ||A||_p,
    None for no end.  A start of an exponent with an end that trails the
    exponent's best then also stops once its relative gain is below
    2e-6 (U - obj) / U, a gain too small to move the lower end against the
    gap left to U; the best start climbs on to the 1e-12 test.  Once it has
    stopped there with value v, the exponent's other starts also stop once
    their relative gain is below 3e-3 (v - obj) / v, the gap left to the
    value the exponent has converged to; a start that would escape a saddle
    and overtake only later is lost then, which can lower the value.  Every
    start of such an exponent also extrapolates along its last step where
    its gains fall at a steady ratio (``_block_ascent``), and the value
    returned is rounded down by gamma n1^(1/p) ninf^(1-1/p) + (3 n + 8) u
    value and one ulp, gamma = 2 sqrt(2) (n + 2) u, with n1 and ninf the
    largest column and row sums of |A| (``_rounded_down``): without it the
    faster climb lands a few ulps above the exact quotient of its maximizer,
    and above a circulant's eigen certificate where that is the norm.  None
    everywhere, the default, is the 1e-12 test alone, bit for bit.

    ``_floors``, a sequence in the same step, gives a floor 0 <= L <= U per
    exponent: a lower end that the engine already holds without an ascent,
    such as a circulant's eigen certificate or a direct sum's exactly pinned
    block.  With an end U, the exponent's best starts at L, which is also
    its v from the first step, so starts below L trail it and stop on either
    test, and a start that climbs past L leads as before.  0, the default,
    is no floor.  The engine runs no ascent where L > U (``Analysis``).
    """
    M = as_square(A)
    if isinstance(restarts, bool) or not isinstance(restarts, (int, np.integer)) or restarts < 1:
        raise ValueError("restarts must be a positive integer")
    seed = _check_seed(seed)
    ps, one = _exponent_args(p)
    ends = (None,) * len(ps) if _uppers is None else tuple(_uppers)
    floors = (0.0,) * len(ps) if _floors is None else tuple(_floors)
    climb = [(e, u if u is not None and u > 0.0 else None, f)
             for e, u, f in zip(ps, ends, floors) if e.value != 1.0 and not e.is_inf]
    a = np.abs(M)
    if climb:
        # the ascent runs on 2^k M, whose largest modulus lies in [1, 2): no
        # step then divides by a subnormal row maximum, and on a matrix whose
        # iterates stay in the normal range every step is the same bits at
        # any power-of-two scale.  For 1 < p < 2 it runs on (2^k M*, q),
        # whose norm is the same, so an end U on ||M||_p scales to 2^k U, and
        # a floor L <= U to 2^k L.  |M*| is the transpose of |M|
        top = float(a.max())
        (unit, k), mod = _unit_scale(M, top), _unit_scale(a, top)[0]
        work = {dual: adjoint(unit) if dual else unit
                for dual in {e.value < 2.0 for e, _, _ in climb}}
        plan = [(work[e.value < 2.0], dual_exponent(e) if e.value < 2.0 else e, u, f)
                for e, u, f in climb]
        starts = {id(W): iter(_ascent_starts(W, mod.T if dual else mod,
                                             [r for V, r, _, _ in plan if V is W],
                                             int(restarts), seed))
                  for dual, W in work.items()}
        runs = [(W, r, next(starts[id(W)]), None if u is None else math.ldexp(u, k),
                 0.0 if u is None else math.ldexp(f, k)) for W, r, u, f in plan]
        found = iter(_attained(M, [e for e, _, _ in climb], runs, _block_ascent(runs)))
    results, lines = [], None
    for e, u in zip(ps, ends):
        if e.value == 1.0 or e.is_inf:
            value, *rest = _endpoint_ascent(M, a, e)
        else:
            value, *rest = next(found)
        if u is not None:
            if lines is None:
                lines = float(a.sum(axis=0).max()), float(a.sum(axis=1).max())
            value = _rounded_down(value, e, M.shape[0], *lines)
        results.append(AscentResult(value, *rest))
    return results[0] if one else tuple(results)


def _row_norms(Y: np.ndarray, ps) -> list[float]:
    """``vec_norm(y, p)`` of every row y of Y at its finite exponent p > 1,
    bit for bit: one modulus and one power (``_group_powers``) for all rows,
    each root a Python float power, or at p = 2 a square root.  A zero row
    takes 0, its top, as its norm, and its sum is 0 / 0 = nan: the caller
    ignores invalid operations (``np.errstate``)."""
    a = np.abs(Y)
    top = a.max(axis=1)
    sums = _group_powers(a / top[:, None], None, ps, [1] * len(ps)).sum(axis=1)
    return [t and t * (math.sqrt(v) if p == 2.0 else v ** (1.0 / p))
            for t, v, p in zip(top.tolist(), sums.tolist(), ps)]


def _attained(M: np.ndarray, es, runs, winners) -> list[tuple]:
    """(value, maximizer, iterations, converged) at each exponent of es from
    the winning start of ``_block_ascent``'s run for it, mapped back to M and
    its value recomputed there, in one pass over all of them.

    A dual maximizer eta (e < 2) is mapped back: xi = Phi_q(A* eta) attains
    at least the dual objective, by the Hoelder equality of the duality map;
    it is taken as in _image_step, Phi_r(y) / max|y|^(r-1) at y = W eta (the
    ones vector where that is zero), and scaled to p-norm 1.  Each product
    is a gemv of its own, and each power takes each row's exponent
    (``_group_powers``), so every row has the bits of a pass of its own.
    """
    order = sorted(range(len(es)), key=lambda i: es[i].value >= 2.0)  # the dual rows first
    ps, d = [es[i].value for i in order], sum(e.value < 2.0 for e in es)
    X = np.array([winners[i][0] for i in order])
    # an overflow is checked below, and a zero row's nan sum is dropped
    with np.errstate(over="ignore", invalid="ignore"):
        if d:
            Y = np.array([runs[i][0] @ x for i, x in zip(order, X[:d])])
            a = np.abs(Y)
            scale = np.maximum(a.max(axis=1, keepdims=True), _NORMAL)
            ups = [runs[i][1].value - 2.0 for i in order[:d]]
            np.multiply(Y, _group_powers(a / scale, None, ups, [1] * d) / scale, out=X[:d])
            for x, v, p in zip(X, _row_norms(X[:d], ps[:d]), ps):
                if v == 0.0:  # a zero row: the ones vector, at its p-norm
                    x[:], v = 1.0, len(x) ** (1.0 / p)
                x /= v
        values = _row_norms(np.array([M @ x for x in X]), ps)
    if not all(map(math.isfinite, values)):
        raise ValueError("ascent value must be finite")
    return [(v, x, *winners[i][1:]) for i, v, x in sorted(zip(order, values, X))]


def best_lower_bound(A, p, seed: int = 0, anchors: AnchorNorms | None = None):
    """Attained lower bound with its provenance tag, and the ascent's
    maximizer (None when no ascent ran), as a (value, tag, maximizer) triple
    at one exponent, or a tuple of them, in order, at a sequence of
    exponents.

    At p in {1, 2, inf} with ``anchors`` given, the anchor is the norm itself
    (attained), so it is returned as "anchor" with no ascent.  Every other
    exponent takes the public ascent's value as "boyd"; the ascent runs once
    for all of them.  Other lower candidates, such as a circulant's eigen
    certificate, are the caller's to weigh.  The engine does not call this
    function: ``Analysis`` weighs its anchors and the ascent itself.
    """
    M = as_square(A)
    ps, one = _exponent_args(p)
    seed = _check_seed(seed)
    pinned = {} if anchors is None else {1.0: anchors.n1, 2.0: anchors.n2, math.inf: anchors.ninf}
    ascents = iter(ascent_lower_bound(M, [e for e in ps if e.value not in pinned], seed=seed))
    out = []
    for e in ps:
        if e.value in pinned:
            out.append((pinned[e.value], "anchor", None))
        else:
            ascent = next(ascents)
            out.append((ascent.value, "boyd", ascent.maximizer))
    return out[0] if one else tuple(out)


#: Unit roundoff of a double.
_U = 2.0 ** -53
#: Smallest x_j and x_j^(p-1), and the floor of y / max y, in the Schur
#: bound: a quotient by any of them stays normal, and far from overflow.
_SCHUR_FLOOR = 2.0 ** -600


def _rounded_down(value: float, p: Exponent, n: int, n1: float, ninf: float) -> float:
    """An attained value ||M x||_p, computed for an x of p-norm 1 up to
    rounding, lowered so that it lies at or below the exact quotient
    ||M x||_p / ||x||_p: by gamma n1^(1/p) ninf^(1-1/p) + (3 n + 8) u value,
    then one ulp, and never below 0.

    With gamma = 2 sqrt(2) (n + 2) u, twice the sqrt(2) gamma_(n+2) of a
    complex inner product of length n, |fl(M x) - M x| <= gamma |M| |x|
    entrywise (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., sections 3.1 and 3.6), and |M| has the column and row sums n1, ninf
    of M, so by Riesz-Thorin its p-norm is at most n1^(1/p) ninf^(1-1/p);
    the second term covers the rounding of the p-norm itself and of x's
    normalisation.
    """
    t = 0.0 if p.is_inf else 1.0 / p.value
    gamma = 2.0 * math.sqrt(2.0) * (n + 2) * _U
    slack = gamma * n1 ** t * ninf ** (1.0 - t) + (3 * n + 8) * _U * value
    return max(0.0, math.nextafter(value - slack, -math.inf))


def _schur_upper(M: np.ndarray, pairs) -> list[float | None]:
    """Schur-test upper bound on ||M||_p, 1 < p < inf, for a real entrywise
    nonnegative M at the vector x = |xi|, rounded outward, for each (p, xi)
    of ``pairs``; None where some x_j or x_j^(p-1), with x scaled to max x in
    [0.5, 1), is below 2^-600 (as at a zero x_j).

    For x > 0, y = M x and any w > 0, lam = max_i y_i / w_i and
    mu = max_j (M^T w^(p-1))_j / x_j^(p-1) give ||M||_p <= lam^(1/q) mu^(1/p),
    by Hoelder on (M z)_i = sum_j (m_ij x_j)^(1/q) (m_ij x_j)^(1/p) z_j / x_j.
    With w = y / max y this is the Schur test
    max_j ((M^T y^(p-1))_j / x_j^(p-1))^(1/p), which equals the norm at a
    fixed point of the ascent (Boyd 1974; Higham 1992).  Here w is clamped
    to at least 2^-600, which covers rows whose y rounded to zero.  Scaling
    x or M changes nothing, so M is scaled once and every x, each by its
    own power of two, into [0.5, 1); M then has an entry of at least 0.5,
    so max y >= 2^-601.  Each product is a gemv of its own and each power
    takes each pair's exponent (``_group_powers``), so every pair has the
    bits of a call of its own.

    Rounding (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., section 3.1): u = 2^-53, gamma_k = k u / (1 - k u), arithmetic
    correctly rounded and powers within one ulp.  A sum of n nonnegative
    products is within gamma_n plus n 2^-1074 for underflow, which adds at
    most n 2^-470 to lam and 3 n 2^-1074 / min x^(p-1) to mu; every other
    operation is within 2u; the rounded exponents 1/p and 1 - 1/p move the
    result by at most 1.01 u (|log lam| + |log mu| / p); an entry of M that
    the scaling rounds moves the norm, which is at least 0.5, by n 2^-1075.
    The computed value is thus within 1 + (n + 15 + 1.01 |log lam| +
    1.01 |log mu| / p) u of the bound, and is raised by gamma_k with twice
    that k, then by one ulp.
    """
    e = math.frexp(float(M.real.max()))[1]
    S = np.ldexp(M.real, -e)
    X = np.abs(np.array([xi for _, xi in pairs]))
    X = np.ldexp(X, -np.frexp(X.max(axis=1, keepdims=True))[1])
    ups = [p.value - 1.0 for p, _ in pairs]
    PX = _group_powers(X, None, ups, [1] * len(pairs))
    lows = PX.min(axis=1).tolist()
    keep = [i for i, x in enumerate(X.min(axis=1).tolist()) if min(lows[i], x) >= _SCHUR_FLOOR]
    out, n = [None] * len(pairs), X.shape[1]
    if keep:
        Y = np.array([S.dot(X[i]) for i in keep])
        top = Y.max(axis=1)
        W = _group_powers(np.maximum(Y / top[:, None], _SCHUR_FLOOR), None, [ups[i] for i in keep],
                          [1] * len(keep))
        mus = (np.array([w.dot(S) for w in W]) / PX[keep]).max(axis=1)
        for i, lam, mu in zip(keep, (top + n * 2.0 ** -470).tolist(), mus.tolist()):
            pv = pairs[i][0].value
            mu += 3.0 * n * 2.0 ** -1074 / lows[i]
            slack = 2.0 * n + 32.0 + 4.0 * (abs(math.log(lam)) + abs(math.log(mu)) / pv)
            bound = lam ** (1.0 - 1.0 / pv) * mu ** (1.0 / pv) * (1.0 + slack * _U / (1.0 - slack * _U))
            out[i] = math.nextafter(math.ldexp(bound, e), math.inf)
    return out


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
    ``resolution`` is an integer of at least 360, and the grid holds at most
    2^20 directions (resolution <= 1024 for a 3 x 3 matrix).
    """
    M = as_square(A)
    p = as_exponent(p)
    if float(np.abs(M.imag).max()) != 0.0:
        raise ValueError("oracle supports real matrices only")
    n = M.shape[0]
    if n not in (2, 3):
        raise ValueError("oracle supports sizes 2 and 3 only")
    limit = 2 ** (20 // (n - 1))  # the grid has resolution^(n-1) <= 2^20 directions
    if (isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer))
            or not 360 <= resolution <= limit):
        raise ValueError(f"resolution must be an integer in [360, {limit}] for a {n}x{n} matrix")
    R = M.real

    def objective(d: np.ndarray) -> float:
        return vec_norm(R @ d, p) / vec_norm(d, p)

    if n == 2:
        thetas = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        D = np.stack([np.cos(thetas), np.sin(thetas)])
        vals = _pnorms(R @ D, p) / _pnorms(D, p)
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
    vals = _pnorms(R @ D, p) / _pnorms(D, p)
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


def _at_sums(ps) -> bool:
    """Whether every exponent is 1 or inf, where the column and row sums
    are the norm, and neither the two-norm nor a floor is needed."""
    return all(p.value in (1.0, math.inf) for p in ps)


@dataclass(frozen=True, eq=False)
class Analysis:
    """Everything structure pins about one square matrix, independent of p.

    ``rule`` names what ``analyze`` found, in the order it tries them:
    "scalar" (1 x 1), "direct-sum", "balanced", "circulant-la", "circulant",
    "hankel", "tensor", "log-affine", or "general" when nothing fired.
    ``parts`` holds the sub-analyses the rule delegates to: the diagonal
    blocks, the circulant factor of a Hankel layout, or the tensor core
    (whose factors are in ``tensor``).  Every rule past the direct-sum split
    was found on ``unit``, the matrix times 2^``scale`` with its largest
    modulus in [1, 2), and reads its ``own_anchors``, ``tensor`` and tensor
    core there; a Hankel layout's circulant factor is built from ``matrix``
    and keeps its units, so its ``scale`` is 0.  ``matrix``, ``anchors`` and
    every interval are in the caller's units: ``bounds`` scales each floor
    in and each end out by that same power of two, exactly in the normal
    range and rounded outward below it.  The rule only proposes
    candidate ends at each exponent; ``bounds`` picks, checks and tags them
    in one step, the same for every rule.  The lower candidates that need no
    ascent, a circulant's eigen certificate (a Hankel layout's through its
    factor) and the lower ends of a direct sum's blocks that run no ascent,
    are the ascent's floor on signed and complex input: starts below it
    stop on the gap test.  Every end and tag stays that of the ascent
    without it, up to a start that would have lingered below the floor and
    then passed it.  Off the anchors, an exponent whose floor lies above
    its Riesz-Thorin upper end, on any input, is settled: the part that
    holds the floor has a lower end above both of this matrix's ends, so
    neither can win the caller's combine step, and the exponent runs no
    ascent; it proposes the eigen certificate, if any, then the ones
    vector's attained value, and the segment.  The other exponents off the
    anchors take one call of ``ascent_lower_bound`` (a lone one as a bare
    exponent, so that its result describes the call), with their upper ends
    and floors on signed and complex input only; at p = 1, 2, inf the lower
    end is ``own_anchors``' value.

    A matrix that no recognizer claims leaves ``rule`` ("log-affine" or
    "general") and ``own_anchors`` to be read on first use, from one
    ``anchor_norms`` call, the squaring two-norm; an error of it surfaces
    there.  Both rules answer p = 1 and inf with the column and row sums
    alone, so a query made only of those exponents, also of a tensor core
    or direct-sum block, runs no squaring.
    """

    matrix: np.ndarray
    _rule: str | None  # None: the anchor test decides, on first read
    _anchors: AnchorNorms | None = None
    parts: tuple[Analysis, ...] = ()
    tensor: TensorRankOne | None = None
    unit: np.ndarray | None = None
    scale: int = 0

    @cached_property
    def _anchor_test(self) -> tuple[str, AnchorNorms]:
        """The anchor test's verdict and the anchors it read, from one
        ``anchor_norms`` call."""
        anchors = anchor_norms(self.unit)
        return "log-affine" if la_report_from_anchors(anchors).is_la else "general", anchors

    # plain properties: a recognizer's verdict is read at attribute speed
    @property
    def rule(self) -> str:
        """The rule that fired; past the recognizers, the anchor test's."""
        return self._rule or self._anchor_test[0]

    @property
    def own_anchors(self) -> AnchorNorms | None:
        """Exact norms at p = 1, 2, inf of ``unit`` that an exact or anchor
        rule reads; None for a rule that delegates to ``parts``."""
        return self._anchors if self._rule else self._anchor_test[1]

    @cached_property
    def anchors(self) -> AnchorNorms:
        """Exact norms at p = 1, 2, inf, read off ``bounds``, which every rule
        answers exactly at the anchors; the squaring two-norm runs only for
        "log-affine" and "general", once, shared with ``rule``."""
        return AnchorNorms(*(b.upper for b in self.bounds((1.0, 2.0, INF))))

    @cached_property
    def self_adjoint(self) -> bool:
        """Whether the matrix equals its conjugate transpose."""
        return _is_self_adjoint(self.matrix)

    @cached_property
    def nonnegative(self) -> bool:
        """Whether the matrix is real and entrywise nonnegative."""
        M = self.matrix
        return not M.imag.any() and bool((M.real >= 0.0).all())

    @property
    def _climbs(self) -> bool:
        """Whether ``bounds`` runs an ascent off the anchors, at every
        exponent that its floor does not settle."""
        return not self.parts and self.rule not in _EXACT_TAGS or any(a._climbs for a in self.parts)

    def bound(self, p, seed: int = 0) -> NormBound:
        """Certified interval at one exponent: ``bounds((p,), seed)[0]``."""
        return self.bounds((p,), seed)[0]

    def bounds(self, ps, seed: int = 0) -> tuple[NormBound, ...]:
        """Certified intervals at every exponent of ``ps``, in order; ``seed``,
        a nonnegative integer, drives the ascent, which runs once for all of
        them.  Every exponent and the seed are validated first.

        One combine step builds every interval: of the rule's candidates it
        takes the largest lower and the smallest upper end, the earliest
        candidate winning a tie, with its tag.  A lower end above the upper
        by more than 1e-9 relative raises RuntimeError; a smaller excess is
        rounding of the attained value, and the lower end is clipped to the
        upper.  An end past the double range raises ValueError.
        """
        ps = tuple(map(as_exponent, ps))
        return self._bounds(ps, _check_seed(seed), (0.0,) * len(ps))

    def _bounds(self, ps, seed, floors):
        """``bounds`` at validated exponents, given per exponent a floor: a
        lower end on the caller's norm, held without an ascent, that any
        ascent of this matrix need not climb to (0 for none).  A floor above
        this matrix's own norm makes its lower end weaker, never wrong.

        The candidates are at ``scale``.  Its factor 2^-scale is a Python
        float, always a double, whose products and quotients round once and
        give inf past the double range without a warning: a floor there
        settles its exponent, and NormBound rejects such an end.  An end
        scaled below the normal range rounds, so it is stepped outward
        where it rounded inward."""
        out, to_caller = [], 2.0 ** -self.scale
        floors = [f / to_caller for f in floors]
        for p, (lowers, uppers) in zip(ps, self._candidates(ps, seed, floors)):
            lo, lo_tag = max(lowers, key=lambda c: c[0])
            up, up_tag = min(uppers, key=lambda c: c[0])
            if lo > up * (1.0 + 1e-9):
                raise RuntimeError(f"bound inconsistency at p={p}: lower {lo} exceeds upper {up}")
            lo = min(lo, up)
            lo_c, up_c = lo * to_caller, up * to_caller
            # a product's quotient by to_caller is exact, so it shows which
            # way the product rounded
            lo_c = math.nextafter(lo_c, 0.0) if lo_c / to_caller > lo else lo_c
            up_c = math.nextafter(up_c, math.inf) if up_c / to_caller < up else up_c
            out.append(NormBound(p, lo_c, up_c, lo_tag, up_tag))
        return tuple(out)

    def _candidates(self, ps, seed, floors):
        """Per exponent of ``ps``, the rule's lower candidates (attained
        value, tag) and upper candidates (certified value, tag), as a pair
        of lists.  Lower ends that need no ascent are floors of the ascent,
        with those of ``floors``: below the largest, starts trail and stop on
        the gap test (``ascent_lower_bound``)."""
        if self._rule is None and _at_sums(ps):
            # both anchor-test rules propose the column or row sum alone
            for p in ps:
                v = norm_inf(self.unit) if p.is_inf else norm_one(self.unit)
                yield [(v, "anchor")], [(v, "anchor")]
            return
        rule, anchors = self.rule, self.own_anchors
        if rule in _EXACT_TAGS:
            for p in ps:
                v = (anchors.n2 if p.value == 2.0 else
                     la_envelope(anchors, p) if rule == "log-affine" else anchors.n1)
                at_anchor = rule == "scalar" or p.value in (1.0, 2.0) or p.is_inf
                yield [(v, _EXACT_TAGS[rule])], [(v, "anchor" if at_anchor else "riesz-thorin")]
        elif rule == "tensor":
            # the vector-norm factor ||alpha||_p ||beta||_q scales both ends
            for p, c in zip(ps, self.parts[0].bounds(ps, seed)):
                f = tensor_norm(self.tensor, p, 1.0)
                yield [(f * c.lower, c.lower_provenance)], [(f * c.upper, c.upper_provenance)]
        elif self.parts:
            # the blocks of a direct sum, or a Hankel layout's one factor: the
            # norm is the largest part norm, so every part's lower end is a
            # lower end, and the largest part upper end is the upper end.  The
            # parts that run no ascent go first, and their lower ends are
            # floors of the others' ascents, which matter only off p = 1, inf
            climbs = not _at_sums(ps)
            ends = [None if climbs and a._climbs else a._bounds(ps, seed, floors)
                    for a in self.parts]
            floors = [max([f, *(b[i].lower for b in ends if b is not None)])
                      for i, f in enumerate(floors)]
            ends = [a._bounds(ps, seed, floors) if b is None else b
                    for a, b in zip(self.parts, ends)]
            for parts in zip(*ends):
                yield ([(b.lower, b.lower_provenance) for b in parts],
                       [max(((b.upper, b.upper_provenance) for b in parts), key=lambda c: c[0])])
        else:
            M = self.unit
            ups = [upper_bound_from_anchors(anchors, p) for p in ps]
            if rule == "circulant":
                floors = [max(f, anchors.n2) for f in floors]
            # off the anchors, an exponent whose floor lies above its upper
            # end is settled: the caller holds a lower end above both of this
            # matrix's ends, so neither can win there, and it runs no ascent.
            # On the others a signed or complex ascent start that trails its
            # best or the floor stops once its gain is small against the gap
            # to its upper end; a nonnegative one climbs to the fixed point,
            # where the Schur test below is tight, and has no use for a floor
            pinned = {1.0: anchors.n1, 2.0: anchors.n2, math.inf: anchors.ninf}
            off = [p.value not in pinned for p in ps]
            climb = [o and not f > u.value for o, f, u in zip(off, floors, ups)]
            es = list(compress(ps, climb))
            gaps = {} if self.nonnegative else {
                "_uppers": [u.value for u in compress(ups, climb)],
                "_floors": list(compress(floors, climb))}
            # a lone exponent goes bare, so its one result describes the whole
            # call; the ascent is looked up by its module name on every call,
            # so a wrapper installed there sees every ascent
            found = ([ascent_lower_bound(M, es[0], seed=seed, **gaps)] if len(es) == 1 else
                     ascent_lower_bound(M, es, seed=seed, **gaps) if es else ())
            # the Schur test at every maximizer of a nonnegative matrix at once
            ascents = zip(found, _schur_upper(M, [(p, a.maximizer) for p, a in zip(es, found)])
                          if es and self.nonnegative else [None] * len(es))
            for p, o, c, up in zip(ps, off, climb, ups):
                if not o:
                    lo, tag, schur = pinned[p.value], "anchor", None
                elif c:
                    ascent, schur = next(ascents)
                    lo, tag = ascent.value, "boyd"
                else:
                    lo, tag, schur = (vec_norm(M.sum(axis=1), p) / vec_norm(np.ones(len(M)), p),
                                      "ones-vector", None)
                lowers, uppers = [(lo, tag)], [up]
                if o and rule == "circulant":
                    # at the anchors lo is the norm itself; off them a
                    # circulant's attaining root-of-unity eigenvector
                    # certifies the spectral value as a lower end
                    lowers.insert(0, (anchors.n2, "eigen-certificate"))
                if schur is not None:
                    # schur is certified, so a lower end above it exceeds the
                    # norm by its rounding and is itself an upper end
                    uppers.append((max(schur, lo), "schur"))
                yield lowers, uppers


def analyze(A) -> Analysis:
    """Run the structure recognizers once and record the first that fires.

    Tried in order: block-diagonal splits (max over the parts), doubly
    balanced matrices (the shared line sum at every p), circulants
    (log-affine witness, or exact anchors from the spectrum), cyclic Hankel
    layouts (delegated to the circulant factor, which shares all p-norms),
    rank-one block tensors (vector-norm factor times the core), and the
    anchor equality test that certifies the log-affine envelope, which
    ``Analysis.rule`` runs on first read: a query at p = 1 and inf alone
    needs no two-norm.

    The 1 x 1 case and the split need only one modulus or exact-zero tests,
    so they come first and each block scales itself: a block far below
    another keeps its digits.  Then the matrix is scaled once, by the power
    of two that brings its largest modulus into [1, 2), and every
    recognizer, anchor and rule reads that copy (``Analysis.unit``), so
    ``analyze(2^j A)`` gives 2^j times the ends of ``analyze(A)``, bit for
    bit, wherever the entries of both are normal and the ends in range.
    """
    M = as_square(A)

    if M.shape[0] == 1:
        # abs() raises OverflowError past the double range, np.abs gives inf
        v = abs(complex(M[0, 0])) if np.abs(M[0, 0]) < math.inf else math.inf
        return Analysis(M, "scalar", AnchorNorms(v, v, v))

    blocks = split_direct_sum(M)
    if len(blocks) > 1:
        return Analysis(M, "direct-sum", parts=tuple(analyze(B) for B in blocks))

    unit, k = _unit_scale(M)
    found = partial(Analysis, M, unit=unit, scale=k)
    balanced = doubly_balanced_norm(unit)
    if balanced is not None:
        return found("balanced", AnchorNorms(balanced, balanced, balanced))

    circ = as_circulant(unit)
    if circ is not None:
        total = float(np.abs(circ.coeffs).sum())
        if classify_circulant_la(circ).is_la:
            return found("circulant-la", AnchorNorms(total, total, total))
        return found("circulant", AnchorNorms(total, circulant_two_norm(circ), total))

    if as_hankel(unit) is not None:
        # H = P C (``hankel_factor``) with P a phase-free permutation, so H
        # shares every p-norm with C, whose first row is that of M: built
        # from it, C keeps the caller's units
        return Analysis(M, "hankel", parts=(analyze(densify(Circulant(M[0]))),))

    tensor = as_tensor_rank_one(unit)
    if tensor is not None:
        return found("tensor", parts=(analyze(tensor.core),), tensor=tensor)

    # the anchor test: "log-affine" or "general", decided on first read
    return found(None)


def certified_bound(A, p, seed: int = 0) -> NormBound:
    """Certified interval for the operator p-norm of a square complex matrix.

    Structure is used whenever it pins the value exactly (see ``analyze``).
    Otherwise the interval combines the interpolation upper bound with the
    best lower bound (exact anchors, circulant eigen certificates, iterative
    ascent).  To query several exponents, analyze once and call
    ``Analysis.bounds`` with all of them, which runs one ascent for all.
    """
    return analyze(A).bound(p, seed=seed)
