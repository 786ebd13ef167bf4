import copy
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "interval_survey.py"


def _survey(*args) -> list[str]:
    # in a process of its own: importing the benchmark's modules here would
    # add their constants to those that hypothesis draws from in later tests
    done = subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def test_survey_dumps_every_interval_and_diffs_ends_tags_and_steps(tmp_path):
    prefixes = {"dense-anchor": 2, "structured-mix": 3, "cli-multi-p": 1}
    queries = ",".join(f"{name}={count}" for name, count in prefixes.items())
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    _survey("dump", "--seed", 1, "--queries", queries, "--out", old_path)
    old = json.loads(old_path.read_text())
    assert [row[0] for row in old["intervals"]] == (["dense-anchor"] * 2 + ["structured-mix"] * 3
                                                    + ["cli-multi-p"] * 7)
    assert {name: len(s) for name, s in old["steps"].items()} == prefixes
    assert all(old["steps"]["dense-anchor"])  # each query climbs
    assert _survey("diff", old_path, old_path)[1:4] == [
        "upper ends moved: 0", "lower ends moved: 0 (0 dropped, 0 rose), the largest drops first",
        "tags changed: 0"]
    new = copy.deepcopy(old)
    name, i, label, p, lo, up, ltag, utag = new["intervals"][1]
    lower, upper = float.fromhex(lo), float.fromhex(up)
    new["intervals"][1][4:7] = (lower - (upper - lower) / 4).hex(), up, "anchor"
    new_path.write_text(json.dumps(new))
    report = _survey("diff", old_path, new_path)
    assert report[2] == "lower ends moved: 1 (1 dropped, 0 rose), the largest drops first"
    assert report[3].endswith("dropped 0.25 of the width")
    assert report[4:6] == ["tags changed: 1",
                           f"  {name} query {i} {label} p={p}: {ltag}/{utag} -> anchor/{utag}"]
