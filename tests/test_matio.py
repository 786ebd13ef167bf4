import numpy as np
import pytest

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
