import json
import math
import subprocess
import sys

import numpy as np
import pytest

import opnorm.cli
import opnorm.exact
from opnorm.cli import main
from opnorm.matio import read_matrix, write_matrix
from opnorm.structured import Circulant, HankelMod, densify, magic3


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "opnorm", *args],
                          capture_output=True, text=True)


@pytest.fixture
def magic_path(tmp_path):
    p = tmp_path / "magic3.json"
    write_matrix(p, magic3())
    return str(p)


def test_bounds_magic3(magic_path):
    r = run_cli("bounds", magic_path, "--p", "1,1.7,2,inf")
    assert r.returncode == 0
    lines = [json.loads(s) for s in r.stdout.splitlines()]
    assert [d["p"] for d in lines] == [1.0, 1.7, 2.0, "inf"]
    for d in lines:
        assert d["lower"] == pytest.approx(15.0, rel=1e-12)
        assert d["upper"] == pytest.approx(15.0, rel=1e-12)
        assert d["lower_provenance"] == "ones-vector"


def test_bounds_rejects_bad_exponent(magic_path):
    for ps in ("0.5", "1,2,0.5"):
        r = run_cli("bounds", magic_path, "--p", ps)
        assert r.returncode == 2
        assert r.stdout == ""  # every exponent is validated before any output
        assert "error:" in r.stderr


@pytest.mark.parametrize("cmd", [["bounds", "--p", "3"], ["bounds", "--p", "1,inf"], ["profile"]])
def test_bad_seed_exits_2_before_any_output(magic_path, cmd, capsys):
    assert main([cmd[0], magic_path, *cmd[1:], "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "seed must be a nonnegative integer" in err


def test_generate_bad_seed_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "u.json"
    assert main(["generate", "unitary-permutation", "--seed", "-1", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == "error: seed must be a nonnegative integer\n"
    assert not out.exists()


def test_bounds_runs_the_two_norm_once_for_all_exponents(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a.json"
    write_matrix(path, np.random.default_rng(61).standard_normal((6, 6)))
    calls = []
    norm_two = opnorm.exact.norm_two
    monkeypatch.setattr(opnorm.exact, "norm_two", lambda M: calls.append(1) or norm_two(M))
    assert main(["bounds", str(path), "--p", "1,1.25,1.5,2,3,4,inf"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7
    assert len(calls) == 1


def test_bounds_runs_one_ascent_for_all_exponents(tmp_path, ascent_calls, capsys):
    path = tmp_path / "a.json"
    write_matrix(path, np.random.default_rng(61).standard_normal((6, 6)))
    assert main(["bounds", str(path), "--p", "1,1.25,1.5,2,3,4,inf"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7
    assert len(ascent_calls) == 1


def test_bounds_repeats_a_duplicate_exponent(tmp_path, capsys):
    path = tmp_path / "c.csv"
    write_matrix(path, densify(Circulant([1.0, 2.0 + 1.0j, -3.0])))
    assert main(["bounds", str(path), "--p", "3,1.5,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[0] == lines[2]
    assert main(["bounds", str(path), "--p", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == lines[:1]


def test_classify_circulant(tmp_path):
    p = tmp_path / "c.csv"
    write_matrix(p, densify(Circulant([1.0, 2.0, 3.0])))
    r = run_cli("classify", str(p))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["circulant"] and doc["circulant_la"] and doc["doubly_balanced"]
    assert doc["witness"]["norm"] == 6.0
    assert doc["log_affine"] and doc["la_ratio"] == pytest.approx(1.0, rel=1e-12)
    assert doc["anchors"]["one"] == 6.0
    assert doc["rule"] == "balanced"  # balanced is tried before circulant


def test_classify_reads_the_analysis(magic_path, monkeypatch, capsys):
    calls = []
    norm_two = opnorm.exact.norm_two
    monkeypatch.setattr(opnorm.exact, "norm_two", lambda M: calls.append(1) or norm_two(M))
    assert main(["classify", magic_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert calls == []  # the balanced rule pins every anchor without norm_two
    assert doc["rule"] == "balanced"
    assert doc["anchors"] == {"one": 15.0, "two": 15.0, "inf": 15.0}
    assert doc["doubly_balanced"] and doc["alpha"] == 15.0
    assert doc["log_affine"] and doc["la_ratio"] == 1.0


def test_classify_requires_square(tmp_path):
    p = tmp_path / "r.csv"
    write_matrix(p, np.ones((2, 3)))
    r = run_cli("classify", str(p))
    assert r.returncode == 2


def test_profile_csv(tmp_path, magic_path):
    out = tmp_path / "prof.csv"
    r = run_cli("profile", magic_path, "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# log_convex=")
    assert lines[1] == "p,one_over_p,lower,upper,envelope"
    assert len(lines) == 2 + 11  # default grid
    first = lines[2].split(",")
    assert first[0] == "1" and float(first[2]) == pytest.approx(15.0)


def test_profile_stdout_and_custom_grid(magic_path):
    r = run_cli("profile", magic_path, "--grid", "1,1.5,2,inf")
    assert r.returncode == 0
    assert len(r.stdout.splitlines()) == 2 + 4
    r = run_cli("profile", magic_path, "--grid", "1,2,4")  # missing inf
    assert r.returncode == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_generate_circulant_round_trip(tmp_path, fmt):
    out = tmp_path / f"c.{fmt}"
    r = run_cli("generate", "circulant", "--coeffs", "1,2+1i,-3", "--out", str(out))
    assert r.returncode == 0
    M = read_matrix(out)
    assert np.array_equal(M, densify(Circulant([1.0, 2.0 + 1.0j, -3.0])))


def test_generate_families(tmp_path):
    h = tmp_path / "h.csv"
    assert run_cli("generate", "hankel", "--coeffs", "1,2,3", "--out", str(h)).returncode == 0
    assert np.array_equal(read_matrix(h), densify(HankelMod([1.0, 2.0, 3.0])))

    m4 = tmp_path / "m4.json"
    assert run_cli("generate", "magic4", "--out", str(m4)).returncode == 0
    assert read_matrix(m4).shape == (4, 4)

    t = tmp_path / "t.csv"
    r = run_cli("generate", "tensor", "--alpha", "1,-1", "--beta", "1,2",
                "--core", "1,3;3,1", "--out", str(t))
    assert r.returncode == 0
    T = read_matrix(t)
    assert T.shape == (4, 4) and T[0, 0] == 1.0 and T[3, 3] == -2.0

    u = tmp_path / "u.json"
    assert run_cli("generate", "unitary-permutation", "--size", "5",
                   "--seed", "3", "--out", str(u)).returncode == 0
    U = read_matrix(u)
    assert np.allclose(np.abs(U @ np.conj(U.T)), np.eye(5), atol=1e-12)

    s = tmp_path / "s.json"
    r = run_cli("generate", "direct-sum", "--parts", f"{m4},{u}", "--out", str(s))
    assert r.returncode == 0
    assert read_matrix(s).shape == (9, 9)


def test_generate_missing_options(tmp_path):
    r = run_cli("generate", "circulant", "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2
    r = run_cli("generate", "bogus-family", "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2  # argparse choice error


def test_oracle_command(tmp_path):
    p = tmp_path / "a.csv"
    write_matrix(p, np.array([[1.0, 2.0], [3.0, 4.0]]))
    r = run_cli("oracle", str(p), "--p", "2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["value"] == pytest.approx(math.sqrt(15 + math.sqrt(221)), rel=1e-8)
    assert len(doc["angles"]) == 1


def test_oracle_rejects_complex_and_large(tmp_path):
    p = tmp_path / "c.csv"
    write_matrix(p, np.array([[1j, 0], [0, 1]]))
    assert run_cli("oracle", str(p), "--p", "2").returncode == 2
    q = tmp_path / "big.csv"
    write_matrix(q, np.eye(4))
    assert run_cli("oracle", str(q), "--p", "2").returncode == 2


def test_oracle_rejects_a_grid_too_large(magic_path):
    # 4096^2 directions would take gigabytes; the check comes before the grid
    r = run_cli("oracle", str(magic_path), "--resolution", "4096")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "resolution must be an integer in [360, 1024]" in r.stderr


def test_missing_file_is_io_error():
    r = run_cli("bounds", "/nonexistent/m.json")
    assert r.returncode == 3


def test_parse_error_exit_code(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,zap\n")
    assert run_cli("bounds", str(p)).returncode == 2


@pytest.mark.parametrize("size, n", [("2.7", 2), ("true", 1), ('"2"', 2), ("1e400", 1)])
def test_bounds_rejects_a_size_that_is_no_integer(tmp_path, size, n, capsys):
    # read through int(), each size but the last made a valid n x n matrix
    p = tmp_path / "m.json"
    entries = json.dumps([[1, 0]] * (n * n))
    p.write_text(f'{{"rows": {size}, "cols": {size}, "entries": {entries}}}')
    assert main(["bounds", str(p), "--p", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_no_subcommand_usage_error():
    assert run_cli().returncode == 2


def test_main_builds_the_parser_once(magic_path, capsys):
    opnorm.cli._build_parser.cache_clear()
    assert main(["classify", magic_path]) == 0
    assert main(["bounds", magic_path, "--p", "3"]) == 0
    assert opnorm.cli._build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_cached_parser_keeps_exit_codes_and_help(tmp_path, capsys):
    fresh = opnorm.cli._build_parser.__wrapped__().format_help()
    bad = tmp_path / "bad.csv"
    bad.write_text("1,zap\n")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == fresh
        assert main(["bounds", str(bad)]) == 2
        assert main(["bounds", str(tmp_path / "missing.json")]) == 3
        with pytest.raises(SystemExit) as exc:
            main(["bounds"])
        assert exc.value.code == 2
        assert "required: matrix" in capsys.readouterr().err
