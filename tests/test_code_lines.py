import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

_MODULE = '''\
"""Module docstring,
over two lines."""

import os  # a comment

# a comment line


def f(x):
    """Docstring."""
    s = """a string
    over two lines"""
    return (x +
            1)


class C:
    "one-line docstring"
    value = ("a"
             "b")
'''


def _count(*args) -> list[str]:
    # in a process of its own, as the survey tool runs: a module imported
    # here would add its constants to those that hypothesis draws from
    done = subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def test_counts_code_lines_but_not_blank_comment_or_docstring_lines(tmp_path):
    # import, def, the two lines of the string assignment and of the return,
    # class, and the two lines of the concatenated value: 9; the entry file
    # counts too
    (tmp_path / "m.py").write_text(_MODULE)
    (tmp_path / "__init__.py").write_text('"""Package."""\n\nfrom .m import f\n')
    assert _count(tmp_path) == ["     1 __init__.py", "     9 m.py", "    10 total"]


def test_counts_the_package_by_default():
    lines = _count()
    assert lines[-1].endswith(" total") and int(lines[-1].split()[0]) > 0
    assert [line.split()[1] for line in lines[:-1]] == sorted(
        p.name for p in (TOOL.parent.parent / "src" / "opnorm").glob("*.py"))
