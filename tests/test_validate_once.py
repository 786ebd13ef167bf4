"""Each matrix is copied and scanned for finiteness once per query.

``as_matrix`` hands back an array it returned earlier as is, so the
recognizers, anchors and ascent that ``analyze`` runs on one validated matrix
do not validate it again.  Anything else (lists, writeable arrays, read-only
arrays a caller built) is still copied and checked.
"""

import numpy as np
import pytest
from conftest import random_complex

import opnorm
from opnorm import cli, core, estimator, exact, interp, matio, structured
from opnorm.estimator import certified_bound
from opnorm.interp import profile
from opnorm.matio import write_matrix
from opnorm.structured import direct_sum


@pytest.fixture
def scans(monkeypatch):
    """Count the ``as_matrix`` calls that copy and scan their argument,
    caught at every name an opnorm module binds the function to."""
    original = core.as_matrix
    count = [0]

    def counted(entries):
        out = original(entries)
        count[0] += out is not entries
        return out

    for mod in (opnorm, core, estimator, exact, interp, matio, structured, cli):
        for name, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, name, counted)
    return count


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_certified_bound_scans_a_general_matrix_once(scans, p):
    A = random_complex(np.random.default_rng(70), 16, 16)
    certified_bound(A, p)
    assert scans[0] == 1


def test_profile_scans_once(scans):
    profile(random_complex(np.random.default_rng(71), 8, 8))
    assert scans[0] == 1


def test_cli_bounds_at_seven_exponents_scans_once(scans, tmp_path, capsys):
    path = tmp_path / "m.json"
    write_matrix(path, random_complex(np.random.default_rng(72), 6, 6))
    scans[0] = 0
    assert cli.main(["bounds", str(path), "--p", "1,1.25,1.5,2,3,4,inf"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7
    assert scans[0] == 1


def test_direct_sum_scans_the_input_and_each_block(scans):
    rng = np.random.default_rng(73)
    A = direct_sum([random_complex(rng, 3, 3), random_complex(rng, 4, 4)])
    scans[0] = 0
    assert certified_bound(A, 3).upper > 0.0
    assert scans[0] == 3


def test_validated_matrix_is_returned_as_is():
    M = core.as_matrix([[1.0, 2.0], [3.0, 4.0]])
    assert core.as_matrix(M) is M
    with pytest.raises(ValueError):
        M.setflags(write=True)  # its checked entries cannot change


def test_outside_arrays_are_still_checked():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]], dtype=np.complex128)
    bad.setflags(write=False)
    with pytest.raises(ValueError):
        core.as_matrix(bad)
    frozen = np.eye(2, dtype=np.complex128)
    frozen.setflags(write=False)
    assert core.as_matrix(frozen) is not frozen
    own = np.eye(2, dtype=np.complex128)
    got = core.as_matrix(own)
    assert got is not own and not np.shares_memory(got, own)
    own[0, 0] = 5.0
    assert got[0, 0] == 1.0
