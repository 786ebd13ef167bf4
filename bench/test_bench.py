"""Tests of the benchmark itself: inputs, checker, tracer and a smoke run.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
from reference import Failure, MatrixReference, check_interval
from workloads import DENSE_PS, DENSE_SIZES, KNOWN_DEFECTS, MAGIC3, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import opnorm  # noqa: E402
import opnorm.cli  # noqa: E402,F401


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    make = WORKLOADS[name].make
    span = range(100)
    first = [make(7, i).matrix.tobytes() for i in span]
    assert first == [make(7, i).matrix.tobytes() for i in span]
    other = [make(8, i).matrix.tobytes() for i in span]
    # fixed inputs (magic squares, the reproducers) repeat; random ones differ
    assert sum(a != b for a, b in zip(first, other)) > len(first) // 2


def test_dense_anchor_meets_every_exponent_at_every_size():
    make = WORKLOADS["dense-anchor"].make
    pairs = {(make(1, i).matrix.shape[0], make(1, i).ps[0]) for i in range(100)}
    assert pairs == {(n, p) for n in DENSE_SIZES for p in DENSE_PS}


def test_checker_flags_shrunk_upper_and_inflated_lower():
    exact = MatrixReference(MAGIC3, known=lambda p: 15.0).at(1.5)
    assert check_interval(exact, 15.0, 15.0) == []
    assert check_interval(exact, 15.0, 15.0 * (1 - 1e-12))
    assert check_interval(exact, 15.0 * (1 + 1e-12), 15.0 * (1 + 1e-12))

    A = np.random.default_rng(0).standard_normal((12, 12))
    dense = MatrixReference(A).at(3.0)
    b = opnorm.certified_bound(A, 3.0)
    assert check_interval(dense, b.lower, b.upper) == []
    assert check_interval(dense, b.lower, dense.probe_lower * (1 - 1e-12))
    assert check_interval(dense, dense.rt_upper * (1 + 1e-12), dense.rt_upper * 2)


def test_checker_flags_both_near_structure_reproducers():
    near_magic = MAGIC3.copy()
    near_magic[0, 0] += 5e-9
    near_ones = np.ones((4, 4))
    near_ones[0, 0] += 4e-12
    for A in (near_magic, near_ones):
        b = opnorm.certified_bound(A, 1.0)
        assert check_interval(MatrixReference(A).at(1.0), b.lower, b.upper)


def test_checker_accepts_jacobi_two_norm():
    rng = np.random.default_rng(3)
    for n in (32, 64):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = opnorm.certified_bound(A, 2.0)
        assert check_interval(MatrixReference(A).at(2.0), b.lower, b.upper) == []


def test_only_recorded_failures_of_known_inputs_are_exempt():
    import run

    label, p, check = sorted(KNOWN_DEFECTS, key=str)[0]

    def record(p, check):
        return run.Record(0, label, 1.0, [], [Failure(p, check, "message")])

    assert run.unexpected_failures([record(p, check)]) == []
    assert run.failed_queries([record(p, check)]) == 0
    assert run.failed_queries([record(p, check), record(None, "raised")]) == 1
    assert run.unexpected_failures([record(1.25, check)])
    assert run.unexpected_failures([record(p, "lower above lapack")])
    assert run.unexpected_failures([record(None, "raised")])
    other = run.Record(0, "magic3-n3", 1.0, [], [Failure(p, check, "message")])
    assert run.unexpected_failures([other])


def test_tracer_reports_missing_target_and_restores_originals(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("exact", "no_such_function", "span"),))
    original = opnorm.exact.norm_two
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert opnorm.exact.norm_two is not original
        A = np.random.default_rng(1).standard_normal((5, 5))
        tracer.span(tracing.QUERY, opnorm.certified_bound, A, 3.0)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["exact.no_such_function"]
    assert opnorm.exact.norm_two is original
    assert opnorm.estimator.anchor_norms is opnorm.exact.anchor_norms
    names = {s[0] for s in tracer.spans}
    assert {"query", "estimator.certified_bound", "exact.norm_two"} <= names
    assert tracer.self_times()["query"] >= 0.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_named_metric(name, trace, monkeypatch, capsys):
    import run

    # a tiny run: one cold start, a couple of timed queries
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "QUALITY_QUERIES", dict.fromkeys(WORKLOADS, 2))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    assert result["correct"] and result["attempted"] >= 1
    table = "\n".join(lines[:-1])
    for metric in wanted:
        assert metric in table


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "dense-anchor",
                           "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
