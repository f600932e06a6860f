"""Plain-text storage for 2-D grids, and the grid block every text
format of the package shares.

A grid block is a header line ``<rows> <cols>`` (both >= 1), then ``rows``
lines of ``cols`` values separated by single spaces, each written with
``repr``, which round-trips IEEE doubles exactly: ``read_grid(write_grid(g))``
reproduces ``g`` bit for bit.  Float values must be finite; NaN and
infinities are rejected on write and on read.  A grid file is one float
block; a network file (``nccnet``) is keyed lines, N float blocks and a
``weights`` line; a quantized filter file (``filterbank``) is keyed lines
and one integer block.  All three are read through :func:`_lines`,
:func:`_field` and :func:`_parse_block`, and written through
:func:`_format_block`.

:func:`read_text` and :func:`write_text` are the path-or-handle text I/O
of those files; ``_read_csv`` is the one header-checked reader of the
frame-folder and report CSVs.  Every number of every file is read by
:func:`_number`, which takes only the ASCII spelling the writers use.
"""

import csv
import os
import re

import numpy as np


def _check_finite(arr):
    if not np.all(np.isfinite(arr)):
        raise ValueError("grid contains non-finite values")


# The characters a number the package reads may hold: ASCII digits and
# "-", and for floats ".", an exponent with its sign, and the letters of
# inf and nan (refused later as non-finite).  int() and float() check the
# rest of the spelling; alone they would also take "_" digit groups,
# non-ASCII digits, a leading "+" and blanks.
_SYNTAX = {
    int: re.compile(r"[-0-9]*"),
    float: re.compile(r"[-.0-9eEinfa]*(?:[eE]\+[-.0-9eEinfa]*)*"),
}


def _numbers(tokens, message, kind=int):
    """``tokens`` converted by ``kind`` (int or float); ValueError(message)
    unless :data:`_SYNTAX` allows every character and ``kind`` reads every
    token."""
    try:
        # one match over all the tokens' characters at once; it passes where
        # a token's own match fails only for a token ending in "e" before
        # one starting with "+", and kind refuses a token ending in "e"
        if _SYNTAX[kind].fullmatch("".join(tokens)):
            return list(map(kind, tokens))
    except ValueError:
        pass
    raise ValueError(message)


def _number(text, kind=int):
    """One token ``text``, converted as :func:`_numbers` converts it."""
    return _numbers([text], f"invalid literal for {kind.__name__}: {text!r}", kind)[0]


def _lines(text):
    """The non-blank lines of ``text``."""
    return [ln for ln in text.splitlines() if ln.strip()]


def _field(line, key, count, kind):
    """The ``count`` values after ``key`` on a keyed line such as
    ``qformat 8 7``, converted by ``kind``; else ValueError("bad <key>
    line: ...")."""
    tokens = line.split()
    bad = f"bad {key} line: {line!r}"
    if len(tokens) != count + 1 or tokens[0] != key:
        raise ValueError(bad)
    return tokens[1:] if kind is str else _numbers(tokens[1:], bad, kind)


def _parse_block(lines, kind):
    """The grid block at the start of ``lines`` and the number of lines it
    used.  Its values are converted by ``kind``: a finite float64 array for
    ``float``, else an object array (``int`` values stay Python ints for
    the caller's range check).  A bad header, a missing or short row or a
    value ``kind`` rejects raises ValueError naming the header or row."""
    if not lines:
        raise ValueError("missing grid header")
    bad = f"bad grid header: {lines[0]!r}"
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(bad)
    rows, cols = _numbers(header, bad)
    if rows < 1 or cols < 1:
        raise ValueError(bad)
    if len(lines) - 1 < rows:
        raise ValueError(f"expected {rows} data lines, found {len(lines) - 1}")
    dtype = float if kind is float else object
    values = []
    for r in range(rows):
        tokens = lines[1 + r].split()
        if len(tokens) != cols:
            raise ValueError(f"row {r}: expected {cols} values, found {len(tokens)}")
        # an array per row, so each row's Python values are freed as it ends
        values.append(np.array(_numbers(tokens, f"row {r}: unparseable value", kind),
                               dtype=dtype))
    block = np.stack(values)
    if kind is float:
        _check_finite(block)
    return block, 1 + rows


def _format_block(arr):
    """The 2-D numeric array ``arr`` as a grid block, ending in a newline;
    ValueError if a value is not finite."""
    _check_finite(arr)
    # row by row, so only one row's Python values are alive at a time
    rows = [" ".join(map(repr, row.tolist())) for row in arr]
    return "\n".join([f"{arr.shape[0]} {arr.shape[1]}", *rows]) + "\n"


def format_grid(grid):
    """Render a 2-D float array in the text grid format."""
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"grid must be 2-D, got shape {arr.shape}")
    return _format_block(arr)


def parse_grid(text):
    """Parse the text grid format back into a float64 array."""
    lines = _lines(text)
    grid, used = _parse_block(lines, float)
    if used != len(lines):
        raise ValueError(f"expected {used - 1} data lines, found {len(lines) - 1}")
    return grid


def write_text(text, path):
    """Write ``text`` to ``path`` (string/PathLike or text file object)."""
    if isinstance(path, (str, os.PathLike)):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        path.write(text)


def read_text(path):
    """Whole text of ``path`` (string/PathLike or text file object)."""
    if isinstance(path, (str, os.PathLike)):
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    return path.read()


def _read_csv(path, header, types):
    """Data rows of the CSV file ``path``, whose first row must be
    ``header``, each field converted by its column's callable in ``types``.
    Blank lines are skipped.  A wrong header, a row of the wrong length or
    a field its converter rejects raises ValueError naming the file (and
    the line)."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(f"{path}: bad header")
        rows = []
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(
                    f"{where}: expected {len(header)} fields, found {len(row)}"
                )
            try:
                rows.append([conv(v) for conv, v in zip(types, row)])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return rows


def write_grid(grid, path):
    """Write a grid to ``path`` (string/PathLike or text file object)."""
    write_text(format_grid(grid), path)


def read_grid(path):
    """Read a grid from ``path`` (string/PathLike or text file object)."""
    return parse_grid(read_text(path))
