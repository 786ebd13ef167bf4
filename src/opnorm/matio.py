"""Matrix file I/O: a JSON schema and a CSV dialect with complex tokens.

JSON files carry {"rows": n, "cols": m, "entries": [[re, im], ...]} with the
entries flattened row-major; floats survive a write/read round trip exactly
because both sides use repr.  CSV rows hold one token per entry: a plain
real like ``-1.5``, or ``a+bi`` / ``a-bi`` with a lowercase ``i``.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .core import as_matrix

__all__ = [
    "MatrixParseError",
    "format_complex_token",
    "parse_complex_token",
    "read_matrix",
    "write_matrix",
]


class MatrixParseError(ValueError):
    """A matrix file failed to parse or validate."""


def parse_complex_token(tok: str) -> complex:
    s = tok.strip().replace(" ", "")
    if not s:
        raise MatrixParseError("empty matrix entry")
    try:
        if s.endswith("i") or s.endswith("I"):
            return complex(s[:-1] + "j")
        return complex(float(s))
    except ValueError as exc:
        raise MatrixParseError(f"bad matrix entry {tok!r}") from exc


def format_complex_token(z: complex) -> str:
    """The CSV token of z; an imaginary part is written unless it is +0.0,
    so a -0.0 keeps its sign bit through a round trip."""
    re, im = float(z.real), float(z.imag)
    negative = math.copysign(1.0, im) < 0.0
    if im == 0.0 and not negative:
        return repr(re)
    return f"{re!r}{'-' if negative else '+'}{abs(im)!r}i"


def _validated(M: np.ndarray) -> np.ndarray:
    try:
        return as_matrix(M)
    except ValueError as exc:
        raise MatrixParseError(str(exc)) from exc


def _read_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise MatrixParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MatrixParseError("JSON matrix must be an object")
    rows, cols, entries = doc.get("rows"), doc.get("cols"), doc.get("entries")
    if type(rows) is not int or type(cols) is not int:  # bool and float are no sizes
        raise MatrixParseError("JSON matrix needs integer rows/cols and entries")
    if rows < 1 or cols < 1:
        raise MatrixParseError("rows and cols must be positive")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise MatrixParseError(
            f"expected {rows}x{cols} entries, got {len(entries) if isinstance(entries, list) else 'non-list'}")
    # every entry must be a list of two JSON numbers (a bool is a Python int,
    # but no number here): their types are checked in one pass per level, and
    # the doubles read in one more; only on a fault are the entries scanned
    # one by one, to name the first bad one
    if (set(map(type, entries)) == {list} and set(map(len, entries)) == {2}
            and set(map(type, chain.from_iterable(entries))) <= {int, float}):
        try:
            flat = np.fromiter(chain.from_iterable(entries), np.float64, 2 * len(entries))
        except OverflowError:  # an integer past the float range
            pass
        else:
            return _validated(flat.view(np.complex128).reshape(rows, cols))
    for k, e in enumerate(entries):
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in e)):
            raise MatrixParseError(f"entry {k} must be a [re, im] number pair")
        try:
            complex(e[0], e[1])
        except OverflowError as exc:
            raise MatrixParseError(f"entry {k} is out of range") from exc
    raise AssertionError("unreachable: some entry failed to read")


def _read_csv(text: str) -> np.ndarray:
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
             if line.strip() and not line.lstrip().startswith("#")]
    # complex() reads a token with every "i" made a "j" as parse_complex_token
    # reads it, or rejects it, unless the text holds a "j", "J" or a
    # parenthesis, which complex() alone accepts: such a text, a token that
    # complex() rejects and ragged rows take the per-token parser, for its
    # values and its messages
    fast = "\n".join(line for _, line in lines).replace("i", "j").split("\n")
    if lines and len({f.count(",") for f in fast}) == 1 and not any(c in text for c in "jJ()"):
        try:
            flat = list(map(complex, ",".join(fast).split(",")))
        except ValueError:
            pass
        else:
            return _validated(np.array(flat).reshape(len(lines), -1))
    rows = []
    for lineno, line in lines:
        try:
            rows.append([parse_complex_token(t) for t in line.split(",")])
        except MatrixParseError as exc:
            raise MatrixParseError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise MatrixParseError("no matrix rows found")
    if len(set(map(len, rows))) > 1:
        raise MatrixParseError("rows have inconsistent lengths")
    return _validated(np.array(rows, dtype=np.complex128))


def read_matrix(path) -> np.ndarray:
    """Read a UTF-8 matrix file, with or without a byte-order mark, into a
    validated read-only array (``as_matrix``); the format comes from the
    suffix, else it is sniffed from the content."""
    p = Path(path)
    text = p.read_text(encoding="utf-8-sig")
    suffix = p.suffix.lower()
    if suffix == ".json":
        return _read_json(text)
    if suffix == ".csv":
        return _read_csv(text)
    if text.lstrip().startswith("{"):
        return _read_json(text)
    return _read_csv(text)


def write_matrix(path, A) -> None:
    """Write a matrix as JSON when the suffix is ``.json``, else as CSV."""
    M = as_matrix(A)
    p = Path(path)
    if p.suffix.lower() == ".json":
        n, m = M.shape
        entries = [[float(z.real), float(z.imag)] for z in M.ravel()]
        p.write_text(json.dumps({"rows": n, "cols": m, "entries": entries}) + "\n")
    else:
        lines = [",".join(format_complex_token(z) for z in row) for row in M]
        p.write_text("\n".join(lines) + "\n")
