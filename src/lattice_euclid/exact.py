"""Exact scalar and dense-matrix kernels over the integers and rationals.

Everything here is exact: integers are Python ints, rationals are
``fractions.Fraction`` (kept canonical by the stdlib: positive denominator,
fully reduced). Floating point is rejected at the door and never enters any
code path.

One fraction-free forward elimination, ``_bareiss`` (Bareiss 1968,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination"), serves the whole package: :func:`solve_system`,
:func:`invert`, :func:`bareiss_det` and the engine's column split. It runs on
Python ints with exact divisions, and Fractions appear only in the outputs.
Every step goes through one loop, ``_step``. The column split is lazy: an
``n x m`` input whose pivots sit in its first columns costs O(n**3), not
O(n**2 * m). One integer back-substitution, ``_back_substitute``, reads the
solutions of every right-hand side at once off the echelon rows it leaves:
the solution driver, and a FIFO run whose pool is no wider than its rank,
take ``det * X`` for the whole pool from the split's own elimination,
finished by ``_replay``.

After an exchange nothing is eliminated again: the cached inverse and the
solution matrix advance by the exchange's elementary matrix in one integer
kernel, ``_exchange_update``, applied to the product form of the inverse of
Dantzig and Orchard-Hays (``euclid._ProductForm``): once per pivot row, on
the row-major walk; for FIFO, before each solve that reads an exchange on
the adjugate, and at each exchange on another row on the solution matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    DimensionMismatchError,
    SingularMatrixError,
    SingularUpdateError,
)

Scalar = Union[int, Fraction]


def _check_entries(values: Iterable[Scalar]) -> None:
    """Raise TypeError unless every value is an int or a Fraction."""
    for e in values:
        # bool is an int subclass but no matrix entry; ints skip isinstance
        if e.__class__ is not int and (
            e.__class__ is bool or not isinstance(e, (int, Fraction))
        ):
            raise TypeError(f"entries must be int or Fraction, got {type(e).__name__}")


def _check_index(k: int, n: int, what: str) -> None:
    """Raise IndexError unless ``0 <= k < n``, so that a negative index never wraps."""
    if not 0 <= k < n:
        raise IndexError(f"{what} {k} out of range for size {n}")


def _check_square(mat: Matrix, what: str) -> int:
    """The side of ``mat``; DimensionMismatchError unless it is square."""
    if mat.cols != mat.rows:
        raise DimensionMismatchError(f"{what} needs a square matrix")
    return mat.rows


class Matrix:
    """Immutable dense matrix stored as a tuple of columns.

    Columns are the primary axis: the algorithms in this package treat a
    matrix as an ordered list of generator vectors. Entries are ints or
    Fractions; shape is fixed at construction and every "update" returns a
    new matrix (unchanged columns are shared, which is unobservable).
    """

    __slots__ = ("rows", "cols", "_columns")

    def __init__(self, columns: Iterable[Sequence[Scalar]], *, rows: int | None = None):
        cols = tuple(tuple(col) for col in columns)
        if rows is None:
            if not cols:
                raise DimensionMismatchError(
                    "a matrix without columns needs an explicit row count"
                )
            rows = len(cols[0])
        for col in cols:
            if len(col) != rows:
                raise DimensionMismatchError(
                    f"column of length {len(col)} in a {rows}-row matrix"
                )
        _check_entries(chain.from_iterable(cols))
        self.rows = rows
        self.cols = len(cols)
        self._columns = cols

    @classmethod
    def _trusted(cls, columns: tuple[tuple[Scalar, ...], ...], rows: int) -> "Matrix":
        """A matrix of entries already checked: ``rows``-long tuples of ints and Fractions."""
        m = object.__new__(cls)
        m.rows, m.cols, m._columns = rows, len(columns), columns
        return m

    @classmethod
    def from_rows(cls, rows_data: Iterable[Sequence[Scalar]]) -> "Matrix":
        rows_tup = tuple(tuple(r) for r in rows_data)
        if not rows_tup:
            raise DimensionMismatchError("from_rows needs at least one row")
        width = len(rows_tup[0])
        for r in rows_tup:
            if len(r) != width:
                raise DimensionMismatchError("rows of unequal length")
        return cls(
            tuple(tuple(r[j] for r in rows_tup) for j in range(width)),
            rows=len(rows_tup),
        )

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(
            tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n)),
            rows=n,
        )

    @property
    def columns(self) -> tuple[tuple[Scalar, ...], ...]:
        return self._columns

    def column(self, j: int) -> tuple[Scalar, ...]:
        return self._columns[j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return tuple(col[i] for col in self._columns)

    def entry(self, i: int, j: int) -> Scalar:
        return self._columns[j][i]

    def with_column(self, j: int, column: Sequence[Scalar]) -> "Matrix":
        _check_index(j, self.cols, "column")
        new = Matrix((column,), rows=self.rows).column(0)  # checks the new column only
        return Matrix._trusted(self._columns[:j] + (new,) + self._columns[j + 1 :], self.rows)

    def submatrix_rows(self, row_indices: Sequence[int]) -> "Matrix":
        idx = tuple(row_indices)
        return Matrix._trusted(tuple(tuple(col[i] for i in idx) for col in self._columns), len(idx))

    def transpose(self) -> "Matrix":
        return Matrix._trusted(tuple(self.row(i) for i in range(self.rows)), self.cols)

    def mat_vec(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatchError(
                f"vector of length {len(vec)} against {self.cols} columns"
            )
        _check_entries(vec)
        out: list[Scalar] = [0] * self.rows
        for col, scale in zip(self._columns, vec):
            if scale:
                for i, e in enumerate(col):
                    out[i] += scale * e
        return tuple(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return Matrix._trusted(tuple(self.mat_vec(col) for col in other._columns), self.rows)

    def to_int(self) -> "Matrix":
        """This matrix with plain int entries; raises ValueError on fractional input."""
        if {int}.issuperset(map(type, chain.from_iterable(self._columns))):
            return self  # already plain ints, and immutable
        for e in chain.from_iterable(self._columns):
            if e.denominator != 1:
                raise ValueError(f"non-integral entry {e}")
        return Matrix._trusted(tuple(tuple(map(int, col)) for col in self._columns), self.rows)

    def max_abs(self) -> Scalar:
        """Largest absolute entry (0 for an empty matrix)."""
        return max((abs(e) for col in self._columns for e in col), default=0)

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._columns == other._columns
        )

    def __hash__(self) -> int:
        return hash((self.rows, self._columns))

    def __repr__(self) -> str:
        if self.cols == 0:
            return f"Matrix((), rows={self.rows})"
        return f"Matrix.from_rows({self.to_rows()!r})"


def _numerators(vec: Sequence[Scalar], den: int) -> list[int]:
    """``den * vec`` as ints; every denominator in ``vec`` must divide ``den``."""
    return [e.numerator * (den // e.denominator) for e in vec]


def _integer_multiple(vec: Sequence[Scalar]) -> tuple[int, list[int]]:
    """``(mu, mu * vec)`` with ``mu = lcm_denominators(vec)``, entries as ints."""
    if all(e.__class__ is int for e in vec):
        return 1, list(vec)
    _check_entries(vec)
    mu = lcm_denominators(vec)
    return mu, _numerators(vec, mu)


def _step(a: list[list[int]], k: int, j: int, prev: int, lo: int, hi: Optional[int]) -> None:
    """Bareiss step ``k`` on columns ``lo:hi``: each row below ``a[k]`` becomes ``(e * pivot - head * p) // prev``.

    The pivot is ``a[k][j]`` and ``prev`` the one before it (1 for the
    first); a row's head is its entry in column ``j``, which no later step
    writes, and ``p`` the pivot row's entry in the column of ``e``.
    """
    pivot_row = a[k]
    pivot, tail = pivot_row[j], pivot_row[lo:hi]
    for row in a[k + 1 :]:
        head = row[j]
        row[lo:hi] = [(e * pivot - head * p) // prev for e, p in zip(row[lo:hi], tail)]


def _replay(a: list[list[int]], cols: Sequence[int], lo: int, hi: Optional[int] = None) -> None:
    """Bring columns ``lo:hi`` of ``a`` up to date through the steps :func:`_bareiss` took.

    Step ``k`` pivoted on ``a[k][cols[k]]``, and the rows below ``a[k]``
    are the rows it rewrote: a later step moves a row up only from below.
    """
    prev = 1
    for k, j in enumerate(cols):
        _step(a, k, j, prev, lo, hi)
        prev = a[k][j]


def _bareiss(a: list[list[int]], width: int) -> tuple[list[int], list[int], int, int]:
    """Fraction-free forward elimination on the first ``width`` columns of ``a``.

    Works in place on the integer rows of ``a``, any number of them; later
    columns are right-hand sides, carried along. Column ``j`` pivots on the
    first row in input order that is not yet a pivot row and is nonzero in
    ``j``; that row moves up behind the pivot rows, the others keep their
    order. A column where every row left is zero is stepped over after one
    scan of those rows, so a gap costs time linear in its width. Every
    division by the previous pivot is exact (Sylvester's identity), so each
    entry is a minor of the input. Returns the pivot rows (input indices, in
    pivot order), the pivot columns, the determinant of their minor, its
    rows in increasing order (1 for none), and the frontier.

    Rows without right-hand sides and wider than twice their number are
    eliminated lazily: a step rewrites only the columns before the
    frontier, at first ``2 * len(a)``. When the pivot search reaches it with
    rows still unpivoted, :func:`_replay` brings the next block up to date
    and the frontier doubles; the scan stops once every row has a pivot, so
    the columns from the frontier on still hold the input's entries, and
    ``_replay(a, cols, frontier)`` leaves every row as an eager elimination
    would. Right-hand sides are always eliminated in full.
    """
    n = len(a)
    end = len(a[0]) if a else 0
    frontier = min(end, 2 * n) if width == end else end
    order = list(range(n))
    cols: list[int] = []
    passed = 0  # rows the pivot rows moved up past
    prev = 1
    k = j = 0
    while k < n and j < width:
        if j == frontier:
            frontier = min(end, 2 * frontier)
            _replay(a, cols, j, frontier)
        if not a[k][j]:
            r = next((r for r in range(k + 1, n) if a[r][j]), None)
            if r is None:  # no pivot in column j
                j += 1
                continue
            a.insert(k, a.pop(r))
            order.insert(k, order.pop(r))
            passed += r - k
        _step(a, k, j, prev, j + 1, frontier)
        prev = a[k][j]
        cols.append(j)
        k += 1
        j += 1
    if k < n:
        # pivot rows moving past a row that never pivots leave the minor as
        # it is; such a row, input index q, ends at position t >= k, passed t - q times
        passed -= sum(range(k, n)) - sum(order[k:])
    return order[:k], cols, -prev if passed % 2 else prev, frontier


def _eliminate(b_mat: Matrix, rhs_columns: Sequence[Sequence[Scalar]]) -> tuple[int, list[list[int]]]:
    """``(d, [d * x for every right-hand side x])`` of a square system, in ints.

    Bareiss elimination of ``(b_mat | rhs_columns)``, rows first scaled by
    the lcm of their denominators, then back-substitution. ``d`` is the
    signed determinant of the scaled rows (``det b_mat`` for integer input),
    so ``d * x`` is integral by Cramer's rule and every division is exact.
    """
    a = [_integer_multiple(row)[1] for row in zip(*b_mat.columns, *rhs_columns)]
    return _eliminate_rows(a, b_mat.rows, len(rhs_columns))


def _eliminate_rows(a: list[list[int]], n: int, n_rhs: int) -> tuple[int, list[list[int]]]:
    """:func:`_eliminate` on the ``n`` integer rows of ``(B | R)``, ``n_rhs`` columns in ``R``.

    The rows are overwritten. Raises SingularMatrixError if some column has
    no pivot.
    """
    _, cols, d, _ = _bareiss(a, n)
    if len(cols) < n:
        raise SingularMatrixError(f"only {len(cols)} of {n} columns have a pivot")
    out = []
    for c in range(n, n + n_rhs):
        y = [0] * n
        for k in range(n - 1, -1, -1):
            row = a[k]
            acc = d * row[c]
            for j in range(k + 1, n):
                acc -= row[j] * y[j]
            y[k] = acc // row[k]
        out.append(y)
    return d, out


def _back_substitute(a: list[list[int]], cols: Sequence[int], rhs: Sequence[int], d: int) -> list[list[int]]:
    """The rows of ``d * X`` from the echelon rows ``a`` that :func:`_bareiss` leaves.

    ``cols`` are the pivot columns (row ``t`` pivots on ``cols[t]``),
    ``rhs`` the columns of ``a`` solved for, and ``d`` plus or minus the
    determinant of the pivot minor, so every division is exact. Row ``t``
    comes from the rows below it, across all right-hand sides at once.
    """
    out: list[list[int]] = [[]] * len(cols)
    for t in range(len(cols) - 1, -1, -1):
        row = a[t]
        acc = [d * row[c] for c in rhs]
        for s in range(t + 1, len(cols)):
            e = row[cols[s]]
            if e:
                acc = [x - e * y for x, y in zip(acc, out[s])]
        pivot = row[cols[t]]
        out[t] = [x // pivot for x in acc]
    return out


def solve_system(b_mat: Matrix, rhs: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Solve ``b_mat @ x == rhs`` exactly for a square nonsingular matrix.

    Fraction-free (Bareiss) elimination of ``(b_mat | rhs)`` in integers,
    then integer back-substitution for ``y = d * x``, where ``d`` is the
    determinant. The only rational step is ``x_k = y_k / d``. Fraction
    input is cleared row by row first. Raises SingularMatrixError if some
    column has no usable pivot.
    """
    n = _check_square(b_mat, "solve_system")
    if len(rhs) != n:
        raise DimensionMismatchError(
            f"right-hand side of length {len(rhs)} against {n} rows"
        )
    d, (y,) = _eliminate(b_mat, (rhs,))
    return tuple(Fraction(e, d) for e in y)


def bareiss_det(b_mat: Matrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Intermediate values stay integral (each division is exact), so there is
    no rational bookkeeping at all. Singular input returns 0; a
    non-integral entry raises ValueError.
    """
    n = _check_square(b_mat, "determinant")
    _, cols, d, _ = _bareiss([list(r) for r in zip(*b_mat.to_int().columns)], n)
    return d if len(cols) == n else 0


def invert(b_mat: Matrix) -> Matrix:
    """Exact inverse of a square nonsingular matrix, as a Fraction matrix.

    The same fraction-free elimination as :func:`solve_system`, with the
    identity as right-hand sides: back-substitution gives the integer matrix
    ``d * b_mat**-1`` (the adjugate), and each entry is divided by ``d``
    once at the end.
    """
    n = _check_square(b_mat, "invert")
    d, columns = _eliminate(b_mat, Matrix.identity(n).columns)
    return Matrix(tuple(tuple(Fraction(e, d) for e in col) for col in columns), rows=n)


def _exchange_update(num: list[list[int]], d: int, i: int, w: Sequence[int]) -> list[list[int]]:
    """Numerators over ``w[i]`` of ``F**-1 @ (num / d)``, in ints.

    ``F`` is the identity with column ``i`` set to ``w / d``. Row ``i`` is
    kept; row ``k`` becomes ``(w[i] * num[k] - w[k] * num[i]) // d``. If
    ``d == det B`` and ``num / d == B**-1 C`` for integer ``B``, ``C`` and
    ``B @ F``, the output is ``det(B @ F) * (B @ F)**-1 C``, integral by
    Cramer's rule: every division is exact and ``w[i] == det(B @ F)``.
    """
    wi, head = w[i], num[i]
    return [
        row if k == i else [(wi * e - wk * h) // d for e, h in zip(row, head)]
        for k, (row, wk) in enumerate(zip(num, w))
    ]


def _rational_exchange_update(mat: Matrix, i: int, w: Sequence[Scalar]) -> Matrix:
    """``F**-1 @ mat`` for rational ``mat`` and ``w``, ``F`` as above.

    The kernel runs over ``d = lcm**2``, ``lcm`` of every denominator in
    ``mat`` and ``w``; then each of its divisions is exact.
    """
    d = lcm_denominators(chain(chain.from_iterable(mat.columns), w)) ** 2
    w_num = _numerators(w, d)
    num = _exchange_update([_numerators(r, d) for r in zip(*mat.columns)], d, i, w_num)
    return Matrix(tuple(zip(*([Fraction(e, w_num[i]) for e in r] for r in num))), rows=mat.rows)


def column_update_inverse(b_inv: Matrix, i: int, new_column: Sequence[Scalar]) -> Matrix:
    """Inverse of the underlying matrix after replacing its column ``i``.

    Given ``b_inv == B**-1``, rewrites the cached inverse for
    ``B' = B with column i <- new_column`` in O(n^2) scalar operations
    instead of a fresh O(n^3) inversion: ``B' = B @ F`` for the identity
    ``F`` with column ``i`` set to ``w = b_inv @ new_column``. The
    replacement must keep the matrix nonsingular, which is exactly the
    condition ``w[i] != 0``.
    """
    n = _check_square(b_inv, "column_update_inverse")
    if len(new_column) != n:
        raise DimensionMismatchError(
            f"replacement column of length {len(new_column)} against {n} rows"
        )
    _check_index(i, n, "column")
    w = b_inv.mat_vec(new_column)
    if w[i] == 0:
        raise SingularUpdateError(
            "replacement column is linearly dependent on the remaining columns"
        )
    return _rational_exchange_update(b_inv, i, w)


def lcm_denominators(vec: Iterable[Scalar]) -> int:
    """Positive lcm of all denominators; 1 for an empty or integral vector."""
    return math.lcm(1, *(q.denominator if isinstance(q, Fraction) else 1 for q in vec))
