import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "paired_bench.py"


def test_one_pair_of_one_second_runs(tmp_path):
    # HEAD is exported with git archive where this is a git checkout; an
    # exported tree has no history, and pairs its own src with itself
    in_git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True).returncode == 0
    base = "HEAD" if in_git else "worktree"
    out = tmp_path / "pairs.json"
    done = subprocess.run([sys.executable, str(TOOL), "--base", base, "--head", "worktree",
                           "--workload", "dense-anchor", "--seed", "1", "--pairs", "1",
                           "--seconds", "1", "--out", str(out)],
                          capture_output=True, text=True, check=True, timeout=300)
    doc = json.loads(out.read_text())
    assert doc["workload"] == "dense-anchor" and doc["seed"] == 1 and doc["seconds"] == 1.0
    assert doc["head_rev"] == "worktree" and (doc["base_rev"] == "worktree") == (not in_git)
    [pair] = doc["pairs"]
    assert pair["order"] == ["base", "head"]
    for side in ("base", "head"):
        assert pair[side]["correct"] and pair[side]["failed"] == 0
        assert pair[side]["attempted"] >= 100
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(doc["summary"]) == [m["name"] for m in spec["end_to_end"]]
    p50 = doc["summary"]["query_cost_p50"]
    base_p50, head_p50 = (pair[side]["metrics"]["query_cost_p50"] for side in ("base", "head"))
    assert p50["base_median"] == base_p50 and p50["head_median"] == head_p50
    assert p50["base_iqr"] == 0.0 and p50["pairs"] == 1
    assert p50["wins"] == int(head_p50 < base_p50)
    assert p50["ratio_median"] == head_p50 / base_p50
    assert "query_cost_p50" in done.stdout
