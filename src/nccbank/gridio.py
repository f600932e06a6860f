"""Plain-text storage for 2-D float grids.

Format: one header line ``<rows> <cols>``, then ``rows`` lines of ``cols``
decimal reals separated by single spaces.  Values are written with
``repr(float)``, which round-trips IEEE doubles exactly, so
``read_grid(write_grid(g))`` reproduces ``g`` bit for bit.  Values must
be finite: NaN and infinities are rejected on write and on read.

:func:`read_text` and :func:`write_text` are the path-or-handle text I/O
shared by the grid, network and quantized-filter files, ``_numbers`` the
token converter their parsers share; ``_read_csv`` is the one
header-checked reader of the frame-folder and report CSVs.
"""

import csv
import os

import numpy as np


def _check_finite(arr):
    if not np.all(np.isfinite(arr)):
        raise ValueError("grid contains non-finite values")


def format_grid(grid):
    """Render a 2-D float array in the text grid format."""
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"grid must be 2-D, got shape {arr.shape}")
    _check_finite(arr)
    rows, cols = arr.shape
    lines = [f"{rows} {cols}"]
    for r in range(rows):
        lines.append(" ".join(repr(v) for v in arr[r].tolist()))
    return "\n".join(lines) + "\n"


def _numbers(tokens, message, kind=int):
    """``tokens`` converted by ``kind``; ValueError(message) if one fails."""
    try:
        return [kind(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(message) from exc


def parse_grid(text):
    """Parse the text grid format back into a float64 array."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty grid text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad grid header: {lines[0]!r}")
    rows, cols = _numbers(header, f"bad grid header: {lines[0]!r}")
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data lines, found {len(lines) - 1}")
    out = np.empty((rows, cols), dtype=float)
    for r in range(rows):
        toks = lines[r + 1].split()
        if len(toks) != cols:
            raise ValueError(f"row {r}: expected {cols} values, found {len(toks)}")
        out[r] = _numbers(toks, f"row {r}: unparseable value", float)
    _check_finite(out)
    return out


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
