"""Paired benchmark runs of two revisions, with one harness for both.

    python tools/paired_bench.py --base HEAD --head worktree --workload structured-mix \\
        --seed 1 --pairs 10 --seconds 25 --out BENCH_pairs.json

Each revision's ``src/`` is exported with ``git archive`` into a temporary
directory (``worktree`` copies this checkout's ``src/`` as it stands), and
the head's ``bench/`` is put beside both, so the same harness measures both
programs: ``bench/run.py`` imports the ``src/`` of its own directory.  Each
pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0`` once
per side, base first in even pairs and head first in odd ones, so drift in
the machine's speed falls on both sides alike.

The output JSON holds every run's metrics and, per end-to-end metric of
``BENCHMARK.json``: each side's median, the base's interquartile range, the
number of pairs the head won (ties count for neither side) and the median of
the per-pair ratios head / base.  A summary is printed as well.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "worktree"


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def _export(rev: str, path: str, dest: Path) -> str:
    """Put ``path`` of ``rev`` under dest; the revision's full hash, or
    ``worktree``."""
    if rev == WORKTREE:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
        return WORKTREE
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev, path))) as tar:
        tar.extractall(dest, filter="data")
    return _git("rev-parse", rev).decode().strip()


def _run(tree: Path, args) -> dict:
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=tree)
    last = json.loads(done.stdout.splitlines()[-1])
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {k: m["value"] for k, m in last["metrics"].items()}}


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[dict], better: dict) -> dict:
    """Per metric: medians, the base's IQR, the head's wins, the median ratio."""
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        ratios = [h / b for b, h in zip(base, head) if b != 0.0]
        out[name] = {
            "better": direction,
            "base_median": statistics.median(base),
            "head_median": statistics.median(head),
            "base_iqr": _iqr(base),
            "wins": sum(sign * (h - b) < 0.0 for b, h in zip(base, head)),
            "pairs": len(pairs),
            "ratio_median": statistics.median(ratios) if ratios else None,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="a git revision")
    ap.add_argument("--head", required=True, help=f"a git revision, or {WORKTREE!r}")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        revs = {side: _export(getattr(args, side), "src", tree) for side, tree in trees.items()}
        for tree in trees.values():
            _export(args.head, "bench", tree)
        pairs = []
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"order": list(order)}
            for side in order:
                pair[side] = _run(trees[side], args)
            pairs.append(pair)
            print(f"# pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} p50 {pair[side]['metrics']['query_cost_p50']:.4g}" for side in order),
                flush=True)
    summary = summarize(pairs, better)
    doc = {"base": args.base, "base_rev": revs["base"], "head": args.head,
           "head_rev": revs["head"], "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "pairs": pairs, "summary": summary}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in summary.items():
        ratio = "n/a" if s["ratio_median"] is None else f"{s['ratio_median']:.4f}"
        print(f"{name:16s} base {s['base_median']:.4g} (IQR {s['base_iqr']:.3g})  "
              f"head {s['head_median']:.4g}  wins {s['wins']}/{s['pairs']}  ratio {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
