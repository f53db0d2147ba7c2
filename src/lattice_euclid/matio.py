"""Plain-text matrix files.

Format: a header line ``rows cols``, then ``rows`` lines of ``cols``
whitespace-separated decimal integers (any length). Lines starting with
``#`` and blank lines are ignored, so a matrix without columns is its
header alone, and so is one without rows: its header ``0 m`` may claim at
most ``2**20`` columns, since each costs memory while nothing in the file
pays for it. Vectors are single-column matrices.
ASCII decimal with LF newlines, so files diff cleanly and round-trip
bit-exactly at any precision. Anything else ``int`` would read, such as
other scripts' digits or ``_`` separators, is a MatrixParseError naming
its line, as is any non-ASCII character, in a comment too.
"""

from __future__ import annotations

import os
import re

from .exact import Matrix

_DECIMAL = re.compile(r"[+-]?[0-9]+")
_MAX_EMPTY_COLUMNS = 2**20  # a 0 x m matrix holds m empty columns that no file line pays for


class MatrixParseError(ValueError):
    """Malformed matrix text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _integers(no: int, line: str, tokens: list[str], what: str) -> list[int]:
    """``tokens``, the split of line ``no``, as ints: optionally signed decimal digits."""
    if "_" not in line:  # int() would read 1_000 as 1000
        try:
            return [int(tok) for tok in tokens]
        except ValueError as exc:
            if all(map(_DECIMAL.fullmatch, tokens)):  # well formed, so past the interpreter's digit limit
                raise MatrixParseError(no, str(exc)) from None
    raise MatrixParseError(no, f"{what} must be decimal integers")


def parse_matrix(text: str) -> Matrix:
    if not text.isascii():  # int() would also read other scripts' digits
        bad = next(k for k, ch in enumerate(text) if not ch.isascii())
        # the line number splitlines() gives it, as for every other error
        raise MatrixParseError(len((text[:bad] + "?").splitlines()), "non-ASCII character")
    significant = [
        (no, stripped)
        for no, line in enumerate(text.splitlines(), start=1)
        if (stripped := line.strip()) and not stripped.startswith("#")
    ]
    if not significant:
        raise MatrixParseError(1, "missing 'rows cols' header")
    header_no, header = significant[0]
    parts = header.split()
    if len(parts) != 2:
        raise MatrixParseError(header_no, "header must be exactly 'rows cols'")
    n, m = _integers(header_no, header, parts, "header entries")
    if n < 0 or m < 0:
        raise MatrixParseError(header_no, "dimensions must be non-negative")
    if n == 0 and m > _MAX_EMPTY_COLUMNS:
        raise MatrixParseError(header_no, f"a matrix without rows may have at most {_MAX_EMPTY_COLUMNS} columns")
    body = significant[1:]
    if m == 0:
        # the rows of a matrix without columns are empty lines
        if body:
            no, line = body[0]
            raise MatrixParseError(no, f"expected 0 entries, found {len(line.split())}")
        return Matrix((), rows=n)
    if len(body) != n:
        bad_no = body[n][0] if len(body) > n else (body[-1][0] if body else header_no)
        raise MatrixParseError(bad_no, f"expected {n} matrix rows, found {len(body)}")
    rows = []
    for no, line in body:
        tokens = line.split()
        if len(tokens) != m:
            raise MatrixParseError(no, f"expected {m} entries, found {len(tokens)}")
        rows.append(_integers(no, line, tokens, "entries"))
    if n == 0:
        return Matrix(((),) * m, rows=0)
    return Matrix.from_rows(rows)


def format_matrix(mat: Matrix) -> str:
    lines = [f"{mat.rows} {mat.cols}"]
    if mat.cols:
        lines.extend(" ".join(str(e) for e in mat.row(i)) for i in range(mat.rows))
    return "\n".join(lines) + "\n"


def load_matrix(path: str | os.PathLike) -> Matrix:
    # a byte outside ASCII reaches parse_matrix as a lone surrogate, which it rejects
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        return parse_matrix(handle.read())
