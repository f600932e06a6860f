import io

import numpy as np
import pytest

from nccbank import gridio


def test_roundtrip_exact_bits():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        g = rng.normal(scale=10.0 ** rng.integers(-8, 9), size=(rows, cols))
        back = gridio.parse_grid(gridio.format_grid(g))
        assert back.shape == g.shape
        assert np.array_equal(back, g)  # repr round-trips doubles exactly


def test_roundtrip_awkward_values():
    g = np.array([[0.1, -0.0, 1e-300], [1e300, 123456789.123456789, 3.0]])
    back = gridio.parse_grid(gridio.format_grid(g))
    assert np.array_equal(back, g)


def test_header_matches_shape():
    text = gridio.format_grid(np.zeros((3, 5)))
    assert text.splitlines()[0] == "3 5"
    assert len(text.splitlines()) == 4


def test_golden_text():
    # format_grid's exact text, recorded before the grid block was shared
    g = np.array([[0.1, -0.0, 1e-300], [1e300, 2.0, -3.5]])
    golden = "2 3\n0.1 -0.0 1e-300\n1e+300 2.0 -3.5\n"
    assert gridio.format_grid(g) == golden
    back = gridio.parse_grid(golden)
    assert np.array_equal(back, g) and np.signbit(back[0, 1])


def test_file_roundtrip(tmp_path):
    g = np.arange(12, dtype=float).reshape(3, 4) / 7.0
    path = tmp_path / "g.txt"
    gridio.write_grid(g, path)
    assert np.array_equal(gridio.read_grid(path), g)


def test_stream_roundtrip():
    g = np.array([[1.5, -2.5]])
    buf = io.StringIO()
    gridio.write_grid(g, buf)
    buf.seek(0)
    assert np.array_equal(gridio.read_grid(buf), g)


MALFORMED = [
    ("", "missing grid header"),
    ("2\n1 2\n3 4\n", "bad grid header: '2'"),
    ("2 2\n1 2\n", "expected 2 data lines, found 1"),
    ("2 2\n1 2\n3 4\n5 6\n", "expected 2 data lines, found 3"),
    ("2 2\n1 2 3\n4 5\n", "row 0: expected 2 values, found 3"),
    ("2 2\n1 x\n3 4\n", "row 0: unparseable value"),
    ("0 4\n", "bad grid header: '0 4'"),
    ("a b\n1 2\n", "bad grid header: 'a b'"),
    ("1 3\nnan inf -inf\n", "grid contains non-finite values"),
    ("2 1\n1\n-inf\n", "grid contains non-finite values"),
    # int() and float() alone would read these as 10, 25.5, 12 and 3
    ("1 2\n1_0 2_5.5\n", "row 0: unparseable value"),
    ("1 1\n1e1_0\n", "row 0: unparseable value"),
    ("1 1\n\u0661\u0662\n", "row 0: unparseable value"),
    ("1 1\n+3\n", "row 0: unparseable value"),
    ("1 2\n1e +5\n", "row 0: unparseable value"),
    ("1 2\n1 Infinity\n", "row 0: unparseable value"),
    ("1_0 1\n1\n", "bad grid header: '1_0 1'"),
    ("\u0661 1\n1\n", "bad grid header"),
]


@pytest.mark.parametrize("text, message", MALFORMED, ids=[text for text, _ in MALFORMED])
def test_malformed_rejected(text, message):
    with pytest.raises(ValueError, match=message):
        gridio.parse_grid(text)


@pytest.mark.parametrize("text, kind, value", [
    ("0", int, 0), ("-12", int, -12), ("007", int, 7), ("1.0", float, 1.0),
    ("-0.0", float, -0.0), ("1e-05", float, 1e-05), ("1.5e+300", float, 1.5e300),
    (".5", float, 0.5), ("5.", float, 5.0), ("12", float, 12.0), ("-inf", float, -np.inf),
])
def test_number_reads_what_repr_writes(text, kind, value):
    got = gridio._number(text, kind)
    assert type(got) is kind and got == value and repr(kind(repr(got))) == repr(got)


@pytest.mark.parametrize("text, kind", [
    ("1_0", int), ("1_0.5", float), ("\u0661\u0662", int), ("\uff11", float), ("+1", int),
    (" 1", int), ("1 ", float), ("1.5", int), ("0x10", int), ("", int), ("", float),
    ("e5", float), ("1e", float), ("Infinity", float), ("inf", int),
])
def test_number_refuses_other_spellings(text, kind):
    with pytest.raises(ValueError, match="invalid literal"):
        gridio._number(text, kind)


def test_non_2d_rejected():
    with pytest.raises(ValueError):
        gridio.format_grid(np.zeros(4))
    with pytest.raises(ValueError):
        gridio.format_grid(np.zeros((2, 2, 2)))
    # a grid read_grid would refuse is refused on write too, before any text
    buf = io.StringIO()
    with pytest.raises(ValueError, match="non-finite"):
        gridio.write_grid(np.array([[np.nan, 1.0]]), buf)
    assert buf.getvalue() == ""
