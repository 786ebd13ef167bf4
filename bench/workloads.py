"""Seeded query streams for the four benchmark workloads, built with numpy alone.

Query ``i`` of a workload is a pure function of ``(seed, workload, i)``: its
size, exponent and family come from a fixed per-workload cycle, and only the
random entries depend on the seed.  Every seed therefore runs the same mix,
which keeps latency quantiles comparable between seeds, while the matrices
themselves change.  The stream never repeats a matrix, so a cache inside the
program cannot make a repeated query free.

Each query carries, where its construction pins it, the exact norm at every
exponent (``known``); the checker in ``reference`` uses it next to the
LAPACK anchors.  Nothing here imports opnorm: ``execute`` is handed the
package by the caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

INF = math.inf

#: Exponents of one ``opnorm bounds`` invocation in ``cli-multi-p``.
CLI_PS = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, INF)
#: opnorm's default ``profile`` grid; a profile must return exactly these.
PROFILE_GRID = (1.0, 8.0 / 7.0, 1.25, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 5.0, 8.0, INF)

DENSE_PS = (1.25, 1.5, 3.0, 4.0, 8.0)
STRUCTURED_PS = (1.0, 1.5, 3.0, INF)

# Size cycles.  Each is skewed toward the small end of its range so that one
# run completes about 100 queries in 25 s, with class shares chosen so that
# p50 and p90 fall inside a size class rather than on a boundary between two.
# A CLI query runs the two-norm once per exponent, so n = 48 stays rare.
DENSE_SIZES = (32, 40, 48, 64, 32, 40, 32, 96, 48, 32,
               40, 32, 40, 32, 64, 48, 40, 32, 32, 32)
PROFILE_SIZES = (4, 6, 8, 10, 12, 16)
CLI_SIZES = (16,) * 10 + (48,) + (16,) * 9

MAGIC3 = np.array([[8, 1, 6], [3, 5, 7], [4, 9, 2]], dtype=float)
MAGIC4 = np.array([[1, 2, 15, 16], [13, 14, 3, 4], [12, 7, 10, 5], [8, 11, 6, 9]], dtype=float)

#: Failures the program is known to have (ROADMAP item 4), as (input label,
#: exponent, check).  The inputs stay in the stream and their failures count
#: in ``failed``; only the failures listed here keep ``correct`` true, so a
#: new failure on the same inputs (another exponent, another check, a raise)
#: is still reported.
KNOWN_DEFECTS = frozenset(
    # balanced rule: upper 15.0000000017 against ||A||_1 = 15.000000005, and
    # 4.000000000001 against 4.000000000004; the probes attain the same values
    {(label, p, f"upper below {ref}")
     for label in ("near-magic3+5e-9-n3", "near-ones4+4e-12-n4")
     for p in (1.0, INF) for ref in ("lapack", "probe")}
    # anchors pass the log-affine test at 1e-9 on some seeds; the envelope
    # certified as exact then exceeds the Riesz-Thorin bound
    | {("near-circulant+1e-6-n16", p, "lower above riesz-thorin") for p in (1.5, 3.0)}
)


@dataclass(frozen=True, eq=False)
class Query:
    """One closed-loop request: a matrix and the exponents the answer covers.

    ``kind`` is "bound" (one ``certified_bound`` at ``ps[0]``), "profile"
    (one default-grid ``profile``) or "cli" (one ``opnorm bounds`` call on
    a file in format ``fmt``).  ``known(p)``, when set, is the exact norm.
    """

    index: int
    kind: str
    label: str
    matrix: np.ndarray
    ps: tuple[float, ...]
    known: Callable[[float], float] | None = None
    fmt: str | None = None


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    key = zlib.crc32(workload.encode())
    # negative indices are the warm-up stream, kept apart from timed queries
    return np.random.default_rng([seed, key, 0 if index >= 0 else 1, abs(index)])


def _complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _vnorm(x: np.ndarray, p: float) -> float:
    return float(np.linalg.norm(x, ord=p))


def _dual(p: float) -> float:
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def _phases(rng, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.uniform(size=n))


def dense_anchor(seed: int, i: int) -> Query:
    rng = _rng(seed, "dense-anchor", i)
    n = DENSE_SIZES[i % len(DENSE_SIZES)]
    # shifted once per size cycle, so every size meets every exponent
    p = DENSE_PS[(i + i // len(DENSE_SIZES)) % len(DENSE_PS)]
    if (i + i // len(DENSE_SIZES)) % 2 == 0:
        return Query(i, "bound", f"complex-n{n}", _complex(rng, n), (p,))
    return Query(i, "bound", f"real-n{n}", rng.standard_normal((n, n)), (p,))


def profile_small(seed: int, i: int) -> Query:
    rng = _rng(seed, "profile-small", i)
    n = PROFILE_SIZES[i % len(PROFILE_SIZES)]
    A = rng.standard_normal((n, n))
    if (i // len(PROFILE_SIZES)) % 2 == 0:
        return Query(i, "profile", f"nonneg-n{n}", np.abs(A), PROFILE_GRID)
    return Query(i, "profile", f"real-n{n}", A, PROFILE_GRID)


def cli_multi_p(seed: int, i: int) -> Query:
    rng = _rng(seed, "cli-multi-p", i)
    n = CLI_SIZES[i % len(CLI_SIZES)]
    fmt = "json" if (i + i // len(CLI_SIZES)) % 2 == 0 else "csv"
    return Query(i, "cli", f"complex-n{n}-{fmt}", _complex(rng, n), CLI_PS, fmt=fmt)


# ---------------------------------------------------------------------------
# structured families: (label, builder); a builder returns (matrix, known)

def _circulant(c: np.ndarray) -> np.ndarray:
    n = c.size
    return c[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def _hankel(c: np.ndarray) -> np.ndarray:
    n = c.size
    return c[(np.arange(n)[:, None] + np.arange(n)[None, :]) % n]


def _aligned_coeffs(rng, n: int) -> np.ndarray:
    # c_i = beta |c_i| omega^-i with omega an n-th root of unity: log-affine,
    # so the norm is sum |c_i| at every exponent
    k = int(rng.integers(n))
    beta = np.exp(2j * np.pi * rng.uniform())
    return beta * rng.uniform(0.5, 2.0, n) * np.exp(-2j * np.pi * k * np.arange(n) / n)


def _constant(value: float):
    return lambda p: value


def _magic(rng, n):
    M = MAGIC3 if n == 3 else MAGIC4
    return M, _constant(float(M.sum(axis=0)[0]))


def _permutation_sum(rng, n):
    w = rng.uniform(0.5, 2.0, 3)
    A = sum(wk * np.eye(n)[rng.permutation(n)] for wk in w)
    return A, _constant(float(w.sum()))


def _aligned_circulant(rng, n):
    c = _aligned_coeffs(rng, n)
    return _circulant(c), _constant(float(np.abs(c).sum()))


def _random_circulant(rng, n):
    return _circulant(rng.standard_normal(n) + 1j * rng.standard_normal(n)), None


def _aligned_hankel(rng, n):
    c = _aligned_coeffs(rng, n)
    return _hankel(c), _constant(float(np.abs(c).sum()))


def _random_hankel(rng, n):
    return _hankel(rng.standard_normal(n) + 1j * rng.standard_normal(n)), None


def _tensor(core_of):
    def build(rng, n):
        core, core_norm = core_of(rng)
        nb = n // core.shape[0]
        a = rng.uniform(0.5, 2.0, nb) * _phases(rng, nb)
        b = rng.uniform(0.5, 2.0, nb) * _phases(rng, nb)
        A = np.kron(np.outer(a, np.conj(b)), core)
        if core_norm is None:
            return A, None
        return A, lambda p: _vnorm(a, p) * _vnorm(b, _dual(p)) * core_norm
    return build


def _outer_la(rng, n):
    # u v* with constant-modulus entries on random supports is log-affine:
    # its norm is ||u||_p ||v||_q at every exponent
    u = np.zeros(n, dtype=complex)
    v = np.zeros(n, dtype=complex)
    u[rng.choice(n, int(rng.integers(1, n + 1)), replace=False)] = 1.5
    v[rng.choice(n, int(rng.integers(1, n + 1)), replace=False)] = 0.75
    u = u * _phases(rng, n)
    v = v * _phases(rng, n)
    return np.outer(u, np.conj(v)), lambda p: _vnorm(u, p) * _vnorm(v, _dual(p))


def _phased_permutation(rng, n):
    return np.eye(n)[rng.permutation(n)] * _phases(rng, n)[:, None], _constant(1.0)


def _direct_sum(parts):
    n = sum(P.shape[0] for P in parts)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for P in parts:
        k = P.shape[0]
        out[at:at + k, at:at + k] = P
        at += k
    return out


def _sum_known(rng, n):
    c = _aligned_coeffs(rng, 5)
    parts = [MAGIC4 / 34.0 * 3.0, _circulant(c), _phased_permutation(rng, n - 9)[0]]
    return _direct_sum(parts), _constant(max(3.0, float(np.abs(c).sum()), 1.0))


def _sum_mixed(rng, n):
    return _direct_sum([MAGIC3, _complex(rng, n - 3)]), None


def _near_magic3(rng, n):
    A = MAGIC3.copy()
    A[0, 0] += 5e-9
    return A, None


def _near_ones4(rng, n):
    A = np.ones((4, 4))
    A[0, 0] += 4e-12
    return A, None


def _perturbed(build, eps):
    def perturbed(rng, n):
        A, _ = build(rng, n)
        A = A.astype(complex)
        A[int(rng.integers(n)), int(rng.integers(n))] += eps
        return A, None
    return perturbed


STRUCTURED_FAMILIES = (
    ("magic3", _magic, 3),
    ("magic4", _magic, 4),
    ("permutation-sum", _permutation_sum, 8),
    ("permutation-sum", _permutation_sum, 64),
    ("aligned-circulant", _aligned_circulant, 5),
    ("aligned-circulant", _aligned_circulant, 64),
    ("circulant", _random_circulant, 6),
    ("circulant", _random_circulant, 12),
    ("aligned-hankel", _aligned_hankel, 7),
    ("hankel", _random_hankel, 8),
    ("tensor-magic3", _tensor(lambda rng: (MAGIC3, 15.0)), 12),
    ("tensor", _tensor(lambda rng: (_complex(rng, 3), None)), 6),
    ("tensor", _tensor(lambda rng: (_complex(rng, 4), None)), 16),
    ("outer-la", _outer_la, 3),
    ("outer-la", _outer_la, 48),
    ("phased-permutation", _phased_permutation, 16),
    ("direct-sum", _sum_known, 12),
    ("direct-sum-mixed", _sum_mixed, 11),
    ("near-magic3+5e-9", _near_magic3, 3),
    ("near-ones4+4e-12", _near_ones4, 4),
    ("near-magic4+1e-6", _perturbed(_magic, 1e-6), 4),
    ("near-circulant+1e-6", _perturbed(_aligned_circulant, 1e-6), 16),
)


def structured_mix(seed: int, i: int) -> Query:
    rng = _rng(seed, "structured-mix", i)
    fam = len(STRUCTURED_FAMILIES)
    label, build, n = STRUCTURED_FAMILIES[i % fam]
    p = STRUCTURED_PS[(i // fam) % len(STRUCTURED_PS)]
    A, known = build(rng, n)
    return Query(i, "bound", f"{label}-n{n}", A, (p,), known)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int], Query]
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("dense-anchor", dense_anchor,
             "unstructured n=32..96 at one non-anchor p: the Jacobi two-norm dominates"),
    Workload("profile-small", profile_small,
             "11-point profiles of n=4..16 real matrices: the ascent dominates"),
    Workload("structured-mix", structured_mix,
             "every paper family plus near-structure: the recognizers and exact rules fire"),
    Workload("cli-multi-p", cli_multi_p,
             "opnorm bounds at 7 exponents on JSON/CSV files: matio, cli, Jacobi per exponent"),
)}


# ---------------------------------------------------------------------------
# running a query against the program

def prepare(query: Query, workdir) -> str | None:
    """Write a CLI query's matrix file (numpy only); returns its path."""
    if query.kind != "cli":
        return None
    path = f"{workdir}/q{query.index}.{query.fmt}"
    M = np.asarray(query.matrix, dtype=complex)
    with open(path, "w") as fh:
        if query.fmt == "json":
            entries = [[z.real, z.imag] for z in M.ravel().tolist()]
            json.dump({"rows": M.shape[0], "cols": M.shape[1], "entries": entries}, fh)
        else:
            for row in M.tolist():
                fh.write(",".join(f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"
                                  for z in row) + "\n")
    return path


def execute(opnorm, query: Query, path: str | None):
    """The timed part of a query: one call into opnorm's public API.

    Names are looked up on the package at call time, so wrappers installed
    by the tracer are used.
    """
    if query.kind == "bound":
        return opnorm.certified_bound(query.matrix, query.ps[0])
    if query.kind == "profile":
        return opnorm.profile(query.matrix)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = opnorm.cli.main(["bounds", path, "--p", ",".join(_p_token(p) for p in query.ps)])
    return code, out.getvalue(), err.getvalue()


def _p_token(p: float) -> str:
    return "inf" if p == INF else repr(p)


def intervals(query: Query, raw) -> list[tuple[float, float, float, str, str]]:
    """(p, lower, upper, lower tag, upper tag) for each interval a query returned."""
    if query.kind == "bound":
        bounds = [raw]
    elif query.kind == "profile":
        bounds = raw.bounds
    else:
        code, out, err = raw
        if code != 0:
            raise RuntimeError(f"opnorm bounds exited {code}: {err.strip()}")
        rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        return [(INF if r["p"] == "inf" else float(r["p"]), float(r["lower"]), float(r["upper"]),
                 r["lower_provenance"], r["upper_provenance"]) for r in rows]
    return [(float(b.p.value), float(b.lower), float(b.upper),
             b.lower_provenance, b.upper_provenance) for b in bounds]
