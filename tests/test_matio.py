import numpy as np
import pytest

from opnorm import matio
from opnorm.matio import (
    MatrixParseError,
    format_complex_token,
    parse_complex_token,
    read_matrix,
    write_matrix,
)


def test_complex_tokens():
    assert parse_complex_token("1.5") == 1.5
    assert parse_complex_token("-2") == -2.0
    assert parse_complex_token("1+2i") == 1 + 2j
    assert parse_complex_token("1.5-0.25i") == 1.5 - 0.25j
    assert parse_complex_token(" 3i ") == 3j
    assert parse_complex_token("-i") == -1j
    for bad in ("", "abc", "1+2", "1i2"):
        with pytest.raises(MatrixParseError):
            parse_complex_token(bad)


def test_format_complex_token():
    assert format_complex_token(1.5 + 0j) == "1.5"
    assert format_complex_token(1 + 2j) == "1.0+2.0i"
    assert format_complex_token(-0.5 - 0.25j) == "-0.5-0.25i"
    # formatter and parser are inverse on awkward floats
    z = (1 / 3) - (2 / 7) * 1j
    assert parse_complex_token(format_complex_token(z)) == z


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_round_trip_exact(tmp_path, fmt):
    rng = np.random.default_rng(13)
    A = rng.standard_normal((3, 4)) / 3 + 1j * rng.standard_normal((3, 4)) / 7
    path = tmp_path / f"m.{fmt}"
    write_matrix(path, A)
    got = read_matrix(path)
    assert np.array_equal(got, A.astype(complex))  # bit-exact via repr
    assert not got.flags.writeable  # validated by as_matrix
    assert path.read_text().startswith("{") == (fmt == "json")


def test_json_shape_and_errors(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"rows": 2, "cols": 1, "entries": [[1.0, 0.0], [2.5, -1.0]]}')
    M = read_matrix(p)
    assert M.shape == (2, 1) and M[1, 0] == 2.5 - 1j
    for text in (
        "{not json",
        "[1, 2]",
        '{"rows": 2, "cols": 2, "entries": [[1, 0]]}',
        '{"rows": 1, "cols": 1, "entries": [[1, 0, 0]]}',
        '{"rows": 1, "cols": 1, "entries": ["x"]}',
        '{"rows": 0, "cols": 1, "entries": []}',
        '{"rows": 1, "cols": 1, "entries": [[Infinity, 0]]}',
    ):
        p.write_text(text)
        with pytest.raises(MatrixParseError):
            read_matrix(p)


@pytest.mark.parametrize("rows", ["2.7", "2.0", "true", '"2"', "1e400",
                                  pytest.param("1" + "0" * 5000, id="5001-digits")])
def test_json_sizes_must_be_integers(tmp_path, rows):
    # int() would read 2.7 as 2, accept true and "2", and overflow on 1e400
    p = tmp_path / "m.json"
    p.write_text(f'{{"rows": {rows}, "cols": 1, "entries": [[1, 0], [2, 0]]}}')
    with pytest.raises(MatrixParseError):
        read_matrix(p)
    p.write_text(f'{{"rows": 2, "cols": {rows}, "entries": [[1, 0], [2, 0]]}}')
    with pytest.raises(MatrixParseError):
        read_matrix(p)


def test_json_entry_past_the_float_range(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"rows": 1, "cols": 1, "entries": [[1%s, 0]]}' % ("0" * 400))
    with pytest.raises(MatrixParseError, match="entry 0 is out of range"):
        read_matrix(p)


@pytest.mark.parametrize("entries, message", [
    ("[[true, 0]]", "entry 0 must be a"),
    ("[[1, 0], [2, false]]", "entry 1 must be a"),
    ('[[1, 0], [2, 0], [1%s, 0], [true, 0]]' % ("0" * 400), "entry 2 is out of range"),
    ('[[1, 0], [2, 0], [3, 0], [1%s, 0]]' % ("0" * 400), "entry 3 is out of range"),
])
def test_json_names_its_first_bad_entry(tmp_path, entries, message):
    # a bool is a Python int but no JSON number; the first bad entry in
    # order is named, whichever kind of fault it has
    p = tmp_path / "m.json"
    n = entries.count("[") - 1
    p.write_text('{"rows": 1, "cols": %d, "entries": %s}' % (n, entries))
    with pytest.raises(MatrixParseError, match=message):
        read_matrix(p)


def test_json_keeps_signed_zeros_and_integers_exactly(tmp_path):
    p = tmp_path / "m.json"
    big = 2 ** 80 + 1  # rounds to a double as float() rounds it
    p.write_text('{"rows": 2, "cols": 2, "entries": [[-0.0, -0.0], [0.0, -0.0], '
                 '[%d, 3], [-1, 0.1]]}' % big)
    got = read_matrix(p).ravel()
    want = np.array([complex(-0.0, -0.0), complex(0.0, -0.0), complex(big, 3), complex(-1, 0.1)])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_csv_comments_blank_lines_and_errors(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# comment\n1,2\n\n3,4i\n")
    M = read_matrix(p)
    assert M.shape == (2, 2) and M[1, 1] == 4j
    p.write_text("1,2\n3\n")
    with pytest.raises(MatrixParseError):
        read_matrix(p)  # ragged
    p.write_text("# only comments\n")
    with pytest.raises(MatrixParseError):
        read_matrix(p)
    p.write_text("1,oops\n")
    with pytest.raises(MatrixParseError):
        read_matrix(p)


def _per_token_csv(text):
    """The CSV reader's per-token path: the reference of its fast path."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            rows.append([parse_complex_token(t) for t in line.split(",")])
        except MatrixParseError as exc:
            raise MatrixParseError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise MatrixParseError("no matrix rows found")
    if len({len(r) for r in rows}) > 1:
        raise MatrixParseError("rows have inconsistent lengths")
    return matio._validated(np.array(rows, dtype=np.complex128))


def _read_or_error(read, text):
    try:
        return read(text).view(np.uint64).tolist()
    except MatrixParseError as exc:
        return str(exc)


@pytest.mark.parametrize("token", ["(1+2i)", "j", "1 + 2i", "2I", "-i", "-0.0", "1_0", "inf",
                                   "nan", "2j", "1+2J", "(3)", "i", "+i", "1.5e-3-2i", "infi"])
@pytest.mark.parametrize("layout", ["{t},1\n2,3\n", "# c\n\n {t} ,1\n\n2,-3i\n",
                                    "# c(j)\n{t},1\n2,3\n", "1,{t}\n2\n", "{t}\n"])
def test_csv_fast_path_reads_every_token_as_the_per_token_path(token, layout):
    # the vectorised path gives the same array, or the same error, as the
    # per-token parser on every token, blank and comment line and ragged row
    text = layout.format(t=token)
    assert _read_or_error(matio._read_csv, text) == _read_or_error(_per_token_csv, text)


def test_csv_round_trip_is_bit_exact(tmp_path, monkeypatch):
    # the files write_matrix writes take the fast path alone
    rng = np.random.default_rng(23)
    path = tmp_path / "m.csv"
    monkeypatch.setattr(matio, "parse_complex_token", None)
    for i in range(100):
        n = 1 + i % 12
        A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
        if i % 2:
            A = A + 1j * rng.standard_normal((n, n))
        write_matrix(path, A)
        got = read_matrix(path)
        assert got.view(np.uint64).tolist() == A.astype(complex).view(np.uint64).tolist()
        want = _per_token_csv(path.read_text())
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_csv_round_trip_keeps_negative_zero_imaginary_parts(tmp_path):
    A = np.array([[complex(1.0, -0.0), complex(-0.0, -0.0)],
                  [complex(0.0, -0.0), complex(-2.5, 0.0)]])
    assert [format_complex_token(z) for z in A.ravel()] == ["1.0-0.0i", "-0.0-0.0i",
                                                            "0.0-0.0i", "-2.5"]
    path = tmp_path / "m.csv"
    write_matrix(path, A)
    want = A.view(np.uint64).tolist()
    assert read_matrix(path).view(np.uint64).tolist() == want
    assert _per_token_csv(path.read_text()).view(np.uint64).tolist() == want


def test_format_sniffing(tmp_path):
    p = tmp_path / "matrix.txt"
    p.write_text('{"rows": 1, "cols": 1, "entries": [[7.0, 0.0]]}')
    assert np.array_equal(read_matrix(p), [[7.0]])
    p.write_text("7,1\n0,2\n")
    assert np.array_equal(read_matrix(p), [[7.0, 1.0], [0.0, 2.0]])


@pytest.mark.parametrize("name, text", [
    ("bom.csv", "1,2\n3,4\n"),
    ("bom.json", '{"rows": 2, "cols": 2, "entries": [[1, 0], [2, 0], [3, 0], [4, 0]]}'),
    ("bom", '{"rows": 2, "cols": 2, "entries": [[1, 0], [2, 0], [3, 0], [4, 0]]}'),
], ids=["csv", "json", "sniffed"])
def test_utf8_byte_order_mark_is_read(tmp_path, name, text):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark; the
    # suffix-less file is sniffed as JSON only once the mark is gone
    p = tmp_path / name
    p.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert np.array_equal(read_matrix(p), [[1.0, 2.0], [3.0, 4.0]])


def test_write_matrix_format_follows_suffix(tmp_path):
    for name in ("m.JSON", "m.csv", "m.dat"):
        p = tmp_path / name
        write_matrix(p, [[1.0, 2.0]])
        assert p.read_text().startswith("{") == (name == "m.JSON")
        assert np.array_equal(read_matrix(p), [[1.0, 2.0]])
