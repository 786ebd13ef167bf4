"""opnorm benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload dense-anchor --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1 --out BENCH.json

One client sends the next query only when the previous one has returned, with
BLAS pinned to one thread.  Queries come from ``workloads`` and are handed to
opnorm's public API as plain matrices; every returned interval is checked
against numpy references (``reference``).  The loop runs until ``--seconds``
have passed and at least ``MIN_SAMPLES`` queries have returned.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median over
``SETUP_RUNS`` fresh interpreters, spread over the run, of importing opnorm
and answering a first small ``certified_bound`` cold (``cold.py``).  Times
are divided by the time of a fixed calibration kernel run next to them
(``calibration.Calibration``), which cancels drift in the machine's speed:
query latencies are reported as costs in units of the kernel, and set-up
time in seconds on a host where the kernel takes ``NOMINAL_CALIB_MS``.  The
raw milliseconds and seconds are printed alongside.  ``--workload all`` runs
each workload in a fresh process of its own, so that ``peak_rss_mb`` is that
workload's alone.  ``--trace 1`` runs every query twice, untraced
and with the wrappers of ``tracing`` installed, prints the per-layer metrics
and the tracing overhead, and writes the spans to ``bench/out/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported anywhere

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from calibration import Calibration
from reference import Failure, MatrixReference, check_interval
from tracing import MODULES, QUERY, TARGETS, Tracer
from workloads import KNOWN_DEFECTS, WORKLOADS, execute, intervals, prepare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 9
# setup_s is given in seconds on a host where the calibration kernel takes
# this long, about its time on the host the benchmark was written on.
NOMINAL_CALIB_MS = 1.0
# Quality metrics (rel_width_p50, inexact_share) are taken over this fixed
# prefix of the stream, so they are a function of the seed alone; the loop
# always runs at least this many queries.
QUALITY_QUERIES = {"dense-anchor": 100, "profile-small": 120,
                   "structured-mix": 3520, "cli-multi-p": 40}
# A timed run goes on past --seconds until it has this many latency samples,
# so that at least 10 lie beyond p90.
MIN_SAMPLES = 100
# Stop starting queries after this long, whatever the sample count, so that a
# much slower program still finishes a run in about two minutes.
HARD_STOP_S = 120.0
EXACT_REL = 1e-12

END_TO_END = (
    ("setup_s", "s"), ("query_cost_p50", "calib"), ("query_cost_p90", "calib"),
    ("query_cost_mean", "calib"), ("rel_width_p50", "ratio"), ("inexact_share", "ratio"),
    ("certified_share", "ratio"), ("peak_rss_mb", "MB"),
)

LOWER_TAGS = ("ones-vector", "eigen-certificate", "boyd", "anchor")
UPPER_TAGS = ("anchor", "riesz-thorin", "two-norm-scaled", "self-adjoint")
RECOGNIZERS = tuple(f"{m}.{f}" for m, f, kind in TARGETS if kind == "recognizer")

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "exact.norm_two.ms_share": ("ratio", "query_cost_p50, query_cost_mean on dense-anchor"),
    "exact.norm_two.ms_per_call": ("ms", "query_cost_p50 on dense-anchor"),
    "exact.norm_two.calls_per_query": ("count", "query_cost_p50 on cli-multi-p (7 today)"),
    "estimator.ascent.ms_share": ("ratio", "query_cost_p50 on profile-small"),
    "estimator.ascent.ms_per_call": ("ms", "query_cost_p50 on profile-small"),
    "estimator.ascent.iterations": ("count", "query_cost_p50 on profile-small"),
    "estimator.ascent.converged_share": ("ratio", "rel_width_p50 on profile-small"),
    **{f"estimator.lower_tag.{t}_share": ("ratio", "rel_width_p50 on profile-small, dense-anchor")
       for t in LOWER_TAGS},
    **{f"interp.upper_tag.{t}_share": ("ratio", "rel_width_p50 on profile-small, dense-anchor")
       for t in UPPER_TAGS},
    "structured.recognize.ms_share": ("ratio", "query_cost_p50 on structured-mix"),
    "structured.recognize.calls_per_query": ("count", "query_cost_p50 on structured-mix"),
    "structured.hit_share": ("ratio", "inexact_share on structured-mix"),
    "interp.upper.ms_share": ("ratio", "query_cost_p50 on profile-small"),
    "interp.profile.self_ms": ("ms", "query_cost_p50 on profile-small"),
    "matio.read.ms_share": ("ratio", "query_cost_p50 on cli-multi-p"),
    "core.vec_norm.calls_per_query": ("count", "query_cost_p50 on profile-small"),
    **{f"{m}.self.ms_share": ("ratio", "query_cost_p50 (per-module split)")
       for m in MODULES if m != "core"},
    "trace_overhead_pct": ("%", "none: cost of tracing itself"),
}


class ProgramMissing(RuntimeError):
    pass


def load_opnorm():
    """Import opnorm from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "opnorm" / "__init__.py").is_file():
        raise ProgramMissing(f"no opnorm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import opnorm
    import opnorm.cli

    if Path(opnorm.__file__).resolve().parent != (SRC / "opnorm").resolve():
        raise ProgramMissing(f"opnorm imported from {opnorm.__file__}, not {SRC}")
    return opnorm


def environment() -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# the closed loop

class Record(NamedTuple):
    """What is kept of one query; not the matrix, so memory stays flat."""

    index: int
    label: str
    latency_ms: float
    intervals: list
    errors: list
    unit_ms: float = 0.0  # calibration time next to the query


def run_query(opnorm, query, workdir, tracer=None) -> Record:
    path = prepare(query, workdir)
    raw, err = None, None
    start = time.perf_counter()
    try:
        if tracer is None:
            raw = execute(opnorm, query, path)
        else:
            tracer.query = query.index
            raw = tracer.span(QUERY, execute, opnorm, query, path)
    except Exception as exc:  # a raising query is counted as failed, not fatal
        err = Failure(None, "raised", f"raised {type(exc).__name__}: {exc}")
    latency = (time.perf_counter() - start) * 1000.0
    if path is not None:
        os.unlink(path)
    if err is not None:
        return Record(query.index, query.label, latency, [], [err])
    try:
        ivals = intervals(query, raw)
    except (RuntimeError, ValueError, TypeError, KeyError, AttributeError) as exc:
        return Record(query.index, query.label, latency, [],
                      [Failure(None, "unreadable", f"unreadable answer: {exc}")])
    errors = []
    if [iv[0] for iv in ivals] != list(query.ps):
        errors.append(Failure(None, "exponents",
                              f"exponents {[iv[0] for iv in ivals]} != {list(query.ps)}"))
    mref = MatrixReference(query.matrix, query.known)
    for p, lower, upper, _, _ in ivals:
        errors += check_interval(mref.at(p), lower, upper)
    return Record(query.index, query.label, latency, ivals, errors)


def run_loop(seconds, min_queries, step) -> float:
    """Call ``step(0)``, ``step(1)``, ... until ``seconds`` pass and ``min_queries``
    are done; returns the loop's wall time."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (i >= min_queries and elapsed >= seconds) or elapsed > HARD_STOP_S:
            return elapsed
        step(i)
        i += 1


def warm_up(opnorm, wl, seed, workdir) -> None:
    """Let first calls and lazy set-up finish before timing (separate stream)."""
    for k in range(1, 4):
        run_query(opnorm, wl.make(seed, -k), workdir)


def cold_setup_s(seed) -> tuple[float, float]:
    """Import-plus-first-``certified_bound`` time of one fresh interpreter:
    (seconds scaled to ``NOMINAL_CALIB_MS``, raw seconds)."""
    proc = subprocess.run([sys.executable, str(BENCH / "cold.py"), str(SRC), str(seed)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["setup_s"] * NOMINAL_CALIB_MS / out["calib_ms"], out["setup_s"]


# ---------------------------------------------------------------------------
# metrics

def _known(record, failure) -> bool:
    return (record.label, failure.p, failure.check) in KNOWN_DEFECTS


def unexpected_failures(records) -> list[tuple[int, str, str]]:
    """(query, label, message) of every failure not in ``KNOWN_DEFECTS``."""
    return [(r.index, r.label, f.message) for r in records for f in r.errors
            if not _known(r, f)]


def failed_queries(records) -> int:
    """Queries with a failure not in ``KNOWN_DEFECTS``: the result line's
    ``failed``.  Queries that fail only in recorded ways are counted apart
    and lower ``certified_share``."""
    return sum(any(not _known(r, f) for f in r.errors) for r in records)


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values), q))


def latency_summary(records) -> dict:
    lat = [r.latency_ms for r in records]
    p90 = _percentile(lat, 90)
    return {"p50": _percentile(lat, 50), "p90": p90, "samples": len(lat),
            "beyond_p90": sum(x > p90 for x in lat)}


def quality(records) -> tuple[float, float]:
    """(median relative width of the inexact intervals, share of inexact intervals)."""
    widths = []
    total = 0
    for r in records:
        for _, lower, upper, _, _ in r.intervals:
            total += 1
            if upper - lower > EXACT_REL * upper:
                widths.append((upper - lower) / upper)
    if not widths:
        return 0.0, 0.0
    return statistics.median(widths), len(widths) / total


def end_to_end(records, setup_times, quality_records) -> dict:
    costs = [r.latency_ms / r.unit_ms for r in records]
    failing = sum(bool(r.errors) for r in records)  # known defects included
    width, inexact = quality(quality_records)
    return {
        "setup_s": statistics.median(setup_times),
        "query_cost_p50": _percentile(costs, 50),
        "query_cost_p90": _percentile(costs, 90),
        "query_cost_mean": statistics.fmean(costs),
        "rel_width_p50": width,
        "inexact_share": inexact,
        "certified_share": 1.0 - failing / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def raw_timing(records, loop_s, calibration) -> dict:
    """Wall-clock figures, printed next to the costs but not gated: they move
    with the host's speed."""
    lat = latency_summary(records)
    return {"query_ms_p50": lat["p50"], "query_ms_p90": lat["p90"],
            "queries_per_s": sum(bool(r.intervals) for r in records) / loop_s,
            "calib_ms_p50": statistics.median(calibration.samples),
            "samples": lat["samples"], "beyond_p90": lat["beyond_p90"]}


def _share(records, side: int, tag: str) -> float:
    tags = [iv[side] for r in records for iv in r.intervals]
    return tags.count(tag) / len(tags) if tags else 0.0


def per_layer(tracer: Tracer, records, plain) -> dict:
    """Per-layer metrics of the traced ``records``; ``plain`` are the same
    queries run untraced, pairwise."""
    incl = tracer.inclusive_times()
    own = tracer.self_times()
    calls = tracer.counts
    total = incl.get(QUERY, 0.0) or 1.0
    nq = max(len(records), 1)

    def share(*names):
        return sum(incl.get(n, 0.0) for n in names) / total

    def per_call_ms(name):
        return 1000.0 * incl.get(name, 0.0) / calls[name] if calls[name] else 0.0

    rec_calls = sum(calls[n] for n in RECOGNIZERS)
    m = {
        "exact.norm_two.ms_share": share("exact.norm_two"),
        "exact.norm_two.ms_per_call": per_call_ms("exact.norm_two"),
        "exact.norm_two.calls_per_query": calls["exact.norm_two"] / nq,
        "estimator.ascent.ms_share": share("estimator.ascent_lower_bound"),
        "estimator.ascent.ms_per_call": per_call_ms("estimator.ascent_lower_bound"),
        "estimator.ascent.iterations": (statistics.fmean(tracer.ascent_iterations)
                                        if tracer.ascent_iterations else 0.0),
        "estimator.ascent.converged_share": (statistics.fmean(tracer.ascent_converged)
                                             if tracer.ascent_converged else 0.0),
        "structured.recognize.ms_share": share(*RECOGNIZERS),
        "structured.recognize.calls_per_query": rec_calls / nq,
        "structured.hit_share": tracer.hits / rec_calls if rec_calls else 0.0,
        "interp.upper.ms_share": share("interp.upper_bound_from_anchors"),
        "interp.profile.self_ms": (1000.0 * own.get("interp.profile", 0.0) / calls["interp.profile"]
                                   if calls["interp.profile"] else 0.0),
        "matio.read.ms_share": share("matio.read_matrix"),
        "core.vec_norm.calls_per_query": calls["core.vec_norm"] / nq,
        "trace_overhead_pct": 100.0 * (statistics.median(
            t.latency_ms / u.latency_ms for t, u in zip(records, plain)) - 1.0),
    }
    for t in LOWER_TAGS:
        m[f"estimator.lower_tag.{t}_share"] = _share(records, 3, t)
    for t in UPPER_TAGS:
        m[f"interp.upper_tag.{t}_share"] = _share(records, 4, t)
    for mod in MODULES:
        if mod != "core":
            m[f"{mod}.self.ms_share"] = sum(
                v for k, v in own.items() if k.startswith(mod + ".")) / total
    return {k: m[k] for k in PER_LAYER}


# ---------------------------------------------------------------------------
# one workload

def run_workload(opnorm, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_up(opnorm, wl, seed, workdir)
        min_q = QUALITY_QUERIES[name]
        if not trace:
            records, setup_times, setup_wall = [], [], []
            calibration = Calibration()
            start = time.perf_counter()

            def step(i):
                # cold starts are spread over the run, so they see the same
                # host speed as the queries do
                now = time.perf_counter()
                if (len(setup_times) < SETUP_RUNS
                        and len(setup_times) * seconds < SETUP_RUNS * (now - start)):
                    setup_times.append(cold_setup_s(seed))
                    setup_wall.append(time.perf_counter() - now)
                unit = calibration.unit_ms()
                records.append(run_query(opnorm, wl.make(seed, i), workdir)._replace(unit_ms=unit))

            loop_s = run_loop(seconds, max(min_q, MIN_SAMPLES), step) - sum(setup_wall)
            while len(setup_times) < SETUP_RUNS:
                setup_times.append(cold_setup_s(seed))
            metrics = end_to_end(records, [t[0] for t in setup_times], records[:min_q])
            units = dict(END_TO_END)
            extra = {"raw": raw_timing(records, loop_s, calibration),
                     "setup_runs_s": [t[0] for t in setup_times],
                     "setup_runs_raw_s": [t[1] for t in setup_times]}
        else:
            tracer = Tracer()
            plain, traced = [], []

            def paired(i):
                # each query runs untraced and traced back to back, in
                # alternating order, so drift in machine speed cancels out
                query = wl.make(seed, i)
                for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                    if not with_trace:
                        plain.append(run_query(opnorm, query, workdir))
                        continue
                    tracer.install()
                    try:
                        traced.append(run_query(opnorm, query, workdir, tracer))
                    finally:
                        tracer.uninstall()

            run_loop(seconds, 1, paired)
            records = plain + traced
            metrics = per_layer(tracer, traced, plain)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path)
            extra = {"latency_untraced": latency_summary(plain),
                     "latency_traced": latency_summary(traced),
                     "absent": tracer.absent, "spans": str(spans_path.relative_to(ROOT))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [(r.index, r.label, [f.message for f in r.errors]) for r in records if r.errors]
    unexpected = unexpected_failures(records)
    failed = failed_queries(records)
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "known_defects": len(failures) - failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": failures[:20],
        "unexpected_failures": unexpected[:20],
        "failed_labels": sorted({f[1] for f in failures}),
        **extra,
    }


def print_report(res: dict) -> None:
    lines = [f"# workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
             f"attempted {res['attempted']}  failed {res['failed']}  "
             f"known defects {res['known_defects']}  correct {res['correct']}"]
    raw = res.get("raw")
    if raw:
        lines.append(f"# latency samples {raw['samples']}, beyond p90 {raw['beyond_p90']}; "
                     f"raw p50 {raw['query_ms_p50']:.4g} ms, p90 {raw['query_ms_p90']:.4g} ms, "
                     f"{raw['queries_per_s']:.4g} queries/s, calibration {raw['calib_ms_p50']:.4g} ms")
    if res.get("absent"):
        lines.append(f"# absent layers (reported as 0): {', '.join(res['absent'])}")
    if "setup_runs_raw_s" in res:
        lines.append(f"# setup raw median {statistics.median(res['setup_runs_raw_s']):.4g} s "
                     f"over {len(res['setup_runs_raw_s'])} cold starts")
    for label in res["failed_labels"]:
        lines.append(f"# failing input: {label}")
    for index, label, message in res["unexpected_failures"]:
        lines.append(f"# unexpected failure: query {index} {label}: {message}")
    for k, m in res["metrics"].items():
        moves = f"  -> {PER_LAYER[k][1]}" if k in PER_LAYER else ""
        lines.append(f"{k:42s} {m['value']:14.6g} {m['unit']}{moves}")
    print("\n".join(lines))


def merge_out(path: Path, env: dict, res: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["env"] = env
    doc.setdefault("runs", {}).setdefault(res["workload"], {})[f"trace{res['trace']}"] = res
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Each workload in a fresh process of its own, then one summary line."""
    results = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=HARD_STOP_S + 180.0)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        results.append((name, json.loads(last)))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{k}": v for name, r in results for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="merge the full results into this JSON file")
    args = ap.parse_args(argv)
    try:
        opnorm = load_opnorm()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    res = run_workload(opnorm, args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(res)
    if args.out:
        merge_out(args.out, env, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
