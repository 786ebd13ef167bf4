"""Dump every interval of the benchmark's seeded quality prefixes, and diff two dumps.

    python tools/interval_survey.py dump --seed 1 --out new.json
    python tools/interval_survey.py dump --seed 1 --src ../parent/src --out old.json
    python tools/interval_survey.py diff old.json new.json

``dump`` runs the first queries of each workload of ``bench/workloads.py``
(the prefixes over which the benchmark takes its quality metrics, or
``--queries name=count,...``) against the opnorm package under ``--src``
(this checkout's ``src/`` by default), with BLAS pinned to one thread as in
the benchmark, and writes each interval's ends as exact hex strings with
their tags.  It also counts block steps: calls of ``_image_step`` with a
direction buffer, one per step of ``estimator._block_ascent``; and calls of
the squaring two-norm, ``exact.norm_two``, which ``anchor_norms`` looks up
by that module name.  Nothing else of the benchmark is read, and nothing is
timed.

``diff`` compares two dumps of the same seed and prefixes: how many upper
ends moved, every lower end that moved as a share of the first dump's width
(drops first), every tag change, and the block steps and two-norm calls per
workload, in total and as a median per query ("n/a" for a dump without
them).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported anywhere

import argparse
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, execute, intervals, prepare  # noqa: E402

#: The benchmark's quality prefixes (``QUALITY_QUERIES`` in bench/run.py).
PREFIXES = {"dense-anchor": 100, "profile-small": 120,
            "structured-mix": 3520, "cli-multi-p": 40}


def _load_opnorm(src: Path):
    sys.path.insert(0, str(src))
    import opnorm
    import opnorm.cli

    if Path(opnorm.__file__).resolve().parent != (src / "opnorm").resolve():
        raise SystemExit(f"opnorm imported from {opnorm.__file__}, not {src}")
    return opnorm


def dump(seed: int, prefixes: dict, src: Path) -> dict:
    opnorm = _load_opnorm(src)
    estimator, exact = opnorm.estimator, opnorm.exact
    steps, twos = [], []  # block steps and two-norm calls of each query
    image_step, norm_two = estimator._image_step, exact.norm_two

    def counted(Y, S, U, D, *rest):
        steps[-1] += D is not None
        return image_step(Y, S, U, D, *rest)

    def counted_two(A):
        twos[-1] += 1
        return norm_two(A)

    out = {"seed": seed, "prefixes": prefixes, "intervals": [], "steps": {}, "norm_two": {}}
    estimator._image_step, exact.norm_two = counted, counted_two
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for name, count in prefixes.items():
                steps.clear()
                twos.clear()
                for i in range(count):
                    steps.append(0)
                    twos.append(0)
                    query = WORKLOADS[name].make(seed, i)
                    raw = execute(opnorm, query, prepare(query, workdir))
                    for p, lower, upper, ltag, utag in intervals(query, raw):
                        out["intervals"].append([name, i, query.label, p, lower.hex(),
                                                 upper.hex(), ltag, utag])
                out["steps"][name] = list(steps)
                out["norm_two"][name] = list(twos)
    finally:
        estimator._image_step, exact.norm_two = image_step, norm_two
    return out


def _counts(what: str, name: str, s0: list | None, s1: list | None) -> str:
    """One workload's count in both dumps, in total and as a median per query."""
    t0, t1 = ("n/a" if s is None else sum(s) for s in (s0, s1))
    m0, m1 = ("n/a" if s is None else f"{statistics.median(s):g}" for s in (s0, s1))
    change = f" ({(t1 - t0) / t0:+.1%})" if s0 and s1 and t0 else ""
    return f"{what} {name}: {t0} -> {t1}{change}, median per query {m0} -> {m1}"


def diff(old: dict, new: dict) -> list[str]:
    if (old["seed"], old["prefixes"]) != (new["seed"], new["prefixes"]):
        raise SystemExit("the dumps cover different seeds or prefixes")
    lines = [f"seed {old['seed']}, {len(old['intervals'])} intervals"]
    moved_up = 0
    moves, tags = [], []
    for a, b in zip(old["intervals"], new["intervals"]):
        name, i, label, p = a[:4]
        lo0, up0, lo1, up1 = (float.fromhex(h) for h in (a[4], a[5], b[4], b[5]))
        moved_up += up1 != up0
        if lo1 != lo0:
            width = up0 - lo0
            drop = (lo0 - lo1) / width if width > 0 else math.copysign(math.inf, lo0 - lo1)
            way = "dropped" if drop > 0 else "rose"
            moves.append((drop, f"{name} query {i} {label} p={p}: lower {lo0!r} -> {lo1!r}, "
                                f"{way} {abs(drop):.3g} of the width"))
        if a[6:] != b[6:]:
            tags.append(f"{name} query {i} {label} p={p}: {a[6]}/{a[7]} -> {b[6]}/{b[7]}")
    drops = sum(drop > 0 for drop, _ in moves)
    lines.append(f"upper ends moved: {moved_up}")
    lines.append(f"lower ends moved: {len(moves)} ({drops} dropped, {len(moves) - drops} rose), "
                 "the largest drops first")
    lines += ["  " + text for _, text in sorted(moves, reverse=True)]
    lines.append(f"tags changed: {len(tags)}")
    lines += ["  " + text for text in tags]
    for name in old["steps"]:
        lines.append(_counts("block steps", name, old["steps"][name], new["steps"][name]))
        lines.append(_counts("two-norm calls", name, old.get("norm_two", {}).get(name),
                             new.get("norm_two", {}).get(name)))
    return lines


def _prefixes(text: str | None) -> dict:
    if text is None:
        return dict(PREFIXES)
    out = {}
    for item in text.split(","):
        name, _, count = item.partition("=")
        if name not in WORKLOADS or not count.isdigit():
            raise SystemExit(f"bad --queries item {item!r}: want workload=count")
        out[name] = int(count)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="dump every interval of the seeded prefixes")
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--queries", help="workload=count,... in place of the quality prefixes")
    d.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding opnorm")
    d.add_argument("--out", type=Path, required=True)
    c = sub.add_parser("diff", help="compare two dumps")
    c.add_argument("old", type=Path)
    c.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        result = dump(args.seed, _prefixes(args.queries), args.src.resolve())
        args.out.write_text(json.dumps(result))
    else:
        print("\n".join(diff(json.loads(args.old.read_text()), json.loads(args.new.read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
