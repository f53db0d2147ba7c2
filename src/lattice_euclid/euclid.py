"""Euclidean-style lattice basis computation by column exchanges.

The classical gcd iteration replaces the larger of two numbers with a
remainder until one divides the other. The engine here does the same with
integer vectors: keep a linearly independent system ``B`` and a pool ``C``
of remaining generators, divide a pool vector ``c`` by ``B`` (solve
``B x = c`` exactly), and if ``x`` has a fractional coordinate ``i``,
replace ``B_i`` with the remainder

    c - (sum_{j != i} B_j * floor(x_j) + B_i * nearest(x_i))

while returning the old ``B_i`` to the pool. Rounding the pivot coordinate
to the *nearest* integer makes the determinant of the independent system
shrink by a factor of magnitude at most 1/2 per exchange, so a run performs
at most ``floor(log2 |det B|)`` exchanges before every pool vector divides
evenly and can be dropped. The generated lattice is invariant throughout:
old and new column are integer combinations of each other plus ``B``.

Rank-deficient inputs are handled by restricting all square solves to a
fixed set of pivot rows on which the independent system is nonsingular;
the remaining rows are verified exactly on every solve.

Every public driver in the package is a configuration of one engine kept
here, ``_Run``: a mutable run state, one exchange routine, and two pivot
orders, both of which stop once ``|det| == 1``. ``_Run.fifo`` consumes the
pool first in, first out and pivots on the coordinate nearest an integer;
``_Run.row_major`` clears fractional solution entries row by row under
enforced coefficient-growth caps. A driver only supplies how pool vectors
are solved and what it tracks besides the basis. :func:`basic_basis` is the
plainest configuration: FIFO order, every system solved from scratch.

The engine works in integers. Every run knows its determinant from the
split on: a solver returns ``num``, the numerators of ``x`` over the run's
signed determinant ``det``, and the pivot, floors, rounding and determinant
update are integer operations on them. An exchange builds one Fraction, its
trace factor, and hands ``det * w`` to the trackers in ``_Run.on_exchange``,
which keep numerators over the run's determinant; its pivot entry is the new
determinant. A run keeps its basis once, as int rows that each exchange
rewrites in place; every solver starts from one elimination of their pivot
rows, ``_Run.eliminate``, checked against the determinant (the solution
matrix, ``_Run.solution_matrix``, from the split's own), and a ``Matrix`` of the
basis is built only at the edges. ``_Run.solve`` is the one checked solve
from scratch: one elimination of all the vectors it is given, each result
checked off the pivot rows. The cached solvers keep the adjugate of
the pivot-row system over the determinant, ``_Run.adjugate``, in product
form, ``_ProductForm``: exchanges on one pivot row cost O(n) each, and fold
into the adjugate before a FIFO solve reads it or when the row-major walk
reaches a row.
Rows below the basis rows ride along: the same exchange
moves them with the vectors, so the Diophantine coordinates need no second
copy. They are carried sparsely: one row per input column that has been in
the basis, made when it first enters. The public Fraction functions
(:func:`mod_prime`, :func:`choose_pivot_argmin`, :func:`exchange_step`,
:func:`solve_in_span`, :func:`check_off_pivot_rows`) clear denominators and
call the same core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimensionMismatchError, IntegralPivotError, InvariantViolationError, SpanMismatchError
from .exact import (
    Matrix,
    Scalar,
    _back_substitute,
    _bareiss,
    _check_entries,
    _check_index,
    _eliminate,
    _eliminate_rows,
    _exchange_update,
    _integer_multiple,
    _replay,
    solve_system,  # unused here; perfbench/test_perfbench.py looks the name up in this module
)


def _nearest(e: int, d: int) -> int:
    """Nearest integer to ``e / d`` (``d`` of either sign); halves round toward +infinity."""
    return (2 * e + d) // (2 * d)


def frac_part(q: Scalar) -> Scalar:
    """Fractional part of ``q`` in [0, 1)."""
    return q - math.floor(q)


@dataclass(frozen=True)
class ExchangeRecord:
    """One exchange step of a run.

    ``factor`` is the pivot residue ``x_i - floor(x_i + 1/2)``; it equals the
    ratio of the basis determinant after and before the step, so
    ``0 < |factor| <= 1/2`` and ``det_after == factor * det_before``.
    ``column`` is the pool slot the source vector occupied when exchanged.
    """

    step: int
    pivot_row: int
    column: int
    factor: Fraction
    det_after: int


@dataclass(frozen=True)
class EuclidState:
    """Evolving (independent system, pool) pair of one run."""

    basis: Matrix
    pool: tuple[tuple[int, ...], ...]
    pivot_rows: tuple[int, ...]
    det: int
    trace: tuple[ExchangeRecord, ...] = ()


@dataclass(frozen=True)
class BasisResult:
    """Output basis plus run statistics.

    ``det_trajectory`` holds the signed determinant of the pivot-row square
    subsystem before any exchange and after each one, so consecutive values
    shrink by at least half in magnitude and ``len == exchanges + 1``.
    The transform ``Y`` with ``initial_basis @ Y == basis`` is :func:`basis_transform`.
    """

    basis: Matrix
    exchanges: int
    discards: int
    det_trajectory: tuple[int, ...]
    max_abs_entry: int
    trace: tuple[ExchangeRecord, ...]


def _rounded(num: Sequence[int], d: int, i: int) -> list[int]:
    """What an exchange at pivot ``i`` subtracts: ``num / d`` floored, rounded to nearest at ``i``."""
    if not num[i] % d:  # the one integral-pivot test: every exchange, residue and update reaches it first
        raise IntegralPivotError(f"coordinate {i} of the solution is integral")
    out = [e // d for e in num]
    out[i] = _nearest(num[i], d)
    return out


def _unit(k: int, n: int) -> tuple[int, ...]:
    return (0,) * k + (1,) + (0,) * (n - k - 1)


def _weights(num: Sequence[int], d: int, i: int) -> list[int]:
    """``d * w`` for ``w = num / d - _rounded(num, d, i)``: the remainder's coordinates in the basis."""
    return [e - d * r for e, r in zip(num, _rounded(num, d, i))]


def _pivot(num: Sequence[int], d: int) -> Optional[int]:
    """Index of the fractional entry of ``num / d`` closest to an integer, or None.

    The distance of entry ``e`` is ``min(r, |d| - r) / |d|`` for ``r = e mod |d|``;
    ties break toward the smallest index, as in :func:`choose_pivot_argmin`.
    """
    den = abs(d)
    best, best_dist = None, den
    for j, e in enumerate(num):
        r = e % den
        if r:
            dist = min(r, den - r)
            if dist < best_dist:
                best, best_dist = j, dist
    return best


def mod_prime(b_mat: Matrix, vec: Sequence[int], x: Sequence[Scalar], i: int) -> tuple[int, ...]:
    """Residue with the pivot coordinate rounded to the nearest integer.

    ``x`` must solve ``b_mat @ x == vec`` and ``x[i]`` must be fractional;
    all coordinates are floored except ``i``, which is rounded to the
    nearest integer. Swapping column ``i`` for the result scales the
    determinant by ``x[i] - floor(x[i] + 1/2)``, of magnitude at most 1/2.
    """
    if len(vec) != b_mat.rows:
        raise DimensionMismatchError(f"vector of length {len(vec)} against {b_mat.rows} rows")
    _check_entries(vec)
    _check_index(i, len(x), "pivot")
    d, num = _integer_multiple(x)
    return tuple(v - w for v, w in zip(vec, b_mat.mat_vec(_rounded(num, d, i))))


def choose_pivot_argmin(x: Sequence[Scalar]) -> Optional[int]:
    """Index of the fractional coordinate closest to an integer.

    Ties break toward the smallest index; returns None when ``x`` is
    integral. Any fractional coordinate would preserve correctness, but the
    closest one maximizes the determinant shrink of the resulting exchange.
    The distances are compared over the common denominator of ``x``, in ints.
    """
    d, num = _integer_multiple(x)
    return _pivot(num, d)


def find_independent_columns(a_mat: Matrix) -> list[int]:
    """Lexicographically first maximal set of independent column indices."""
    # One greedy left-to-right fraction-free elimination, exact._bareiss, on
    # the rows (columns scaled by their lcm). Column j is independent of the
    # kept columns iff it is nonzero on a row not yet a pivot row; the first
    # such row becomes its pivot row. Those entries are the column reduced
    # against the kept columns (a Schur complement), so the choice is that of
    # a rational column elimination. Each entry is a minor of the input and
    # stays within Hadamard's bound. The elimination is lazy: it stops once
    # every row has a pivot, and columns its pivot search never reached are
    # never rewritten.
    rows = [list(r) for r in zip(*(_integer_multiple(c)[1] for c in a_mat.columns))]
    return _bareiss(rows, a_mat.cols)[1]


def _off_rows(rows: Sequence[Sequence[Scalar]], pivot_rows: Sequence[int]) -> list:
    """``(index, row)`` for each of ``rows`` whose index is not in ``pivot_rows``."""
    covered = set(pivot_rows)
    return [(t, r) for t, r in enumerate(rows) if t not in covered]


def _check_span(off_rows: Iterable, vec: Sequence[Scalar], num: Sequence[int], d: int) -> None:
    """Raise SpanMismatchError unless ``row @ num == d * vec[t]`` for each ``(t, row)`` in ``off_rows``."""
    for t, row in off_rows:
        if sum(map(mul, row, num)) != d * vec[t]:
            raise SpanMismatchError(f"vector leaves the column span at row {t}")


def check_off_pivot_rows(basis: Matrix, pivot_rows: Sequence[int], vec: Sequence[int], x: Sequence[Scalar]) -> None:
    """Verify ``basis @ x == vec`` on the rows *not* in ``pivot_rows``.

    Compared in integers: ``x`` is scaled by the lcm ``L`` of its
    denominators and each row is checked as ``basis[i] @ (L * x) == L * vec[i]``.
    """
    if len(x) != basis.cols or len(vec) != basis.rows:
        raise DimensionMismatchError(f"lengths {len(x)} and {len(vec)} against a {basis.rows}x{basis.cols} basis")
    _check_entries(vec)
    mu, scaled = _integer_multiple(x)
    _check_span(_off_rows(basis.to_rows(), pivot_rows), vec, scaled, mu)


def solve_in_span(basis: Matrix, pivot_rows: Sequence[int], vec: Sequence[int]) -> tuple[Fraction, ...]:
    """Solve ``basis @ x == vec`` for a full-column-rank basis.

    The square subsystem on ``pivot_rows`` determines ``x``; when the basis
    has fewer columns than rows, the remaining rows are then checked
    exactly, so a vector outside the column span raises SpanMismatchError
    instead of silently returning a non-solution.

    The engine's integer solve: numerators ``num`` over the determinant
    ``d`` from one elimination of the pivot rows of ``(basis | vec)``, the
    other rows checked on ``num``; Fractions are built only for the result.
    """
    if len(pivot_rows) != basis.cols or len(vec) != basis.rows:
        raise DimensionMismatchError(
            f"{len(pivot_rows)} pivot rows and a vector of length {len(vec)} "
            f"against a {basis.rows}x{basis.cols} basis"
        )
    d, (num,) = _eliminate(basis.submatrix_rows(pivot_rows), ([vec[t] for t in pivot_rows],))
    x = tuple(Fraction(e, d) for e in num)
    check_off_pivot_rows(basis, pivot_rows, vec, x)
    return x


def coefficient_bound(n_rows: int, max_entry: int) -> int:
    """Worst-case infinity norm of a basis built under row-wise pivoting.

    ``n^2 * a * ceil(log2(n * a))`` for ambient dimension ``n`` and input
    magnitude ``a``, floored at ``a`` itself: untouched input columns can
    always appear in the output, which the formula misses when ``n * a <= 1``
    makes the log term vanish.
    """
    if max_entry <= 0:
        return 0
    ceil_log2 = (n_rows * max_entry - 1).bit_length()  # on the bit length, without floats
    return max(max_entry, n_rows * n_rows * max_entry * ceil_log2)


class _ProductForm:
    """``det * B**-1 @ C`` for fixed ``C``, in the product form of the inverse (Dantzig and Orchard-Hays 1954).

    ``g`` holds ``d0 * B0**-1 @ C`` as int rows, ``B0`` the basis at the last
    fold and ``d0`` its determinant. The exchanges since then pivoted on row
    ``i``, so the basis is ``B0 @ E``, ``E`` the identity with column ``i``
    set to ``p / d0``: ``p = d0 * B0**-1 @ B_i`` and ``p[i] == det`` (``p`` is
    None while ``E`` is the identity). :meth:`fold` multiplies ``E`` into
    ``g``, in one ``_exchange_update``; an exchange on another row folds
    first, so ``E`` composes one row's exchanges. An exchange ``(i, j, W, d)``
    costs O(n): with ``moves`` (``C`` is the pool, and slot ``j`` now holds
    the old ``B_i``) column ``j`` of ``g`` becomes ``p``, then ``p`` becomes
    the new ``B_i``, ``B @ W / d``. Every division is exact by Cramer's rule.
    """

    def __init__(self, run: "_Run", g: list[list[int]], moves: bool):
        self.g, self.moves = g, moves
        self.d0, self.i, self.p = run.det, None, None
        run.on_exchange.append(self.exchange)

    def exchange(self, i: int, j: int, w: Sequence[int], d: int) -> None:
        if self.p is not None and i != self.i:
            self.fold()
        d0, p = self.d0, self.p
        if self.moves:
            for r, e in zip(self.g, p or [d0 * (k == i) for k in range(len(w))]):
                r[j] = e
        if p is None:  # the first exchange since the fold: d0 == d, so E's column is W itself
            self.i, self.p = i, list(w)
        else:
            wi = w[i]
            self.p = [wi if k == i else (d0 * wk + pk * wi) // d for k, (wk, pk) in enumerate(zip(w, p))]

    def fold(self) -> list[list[int]]:
        """Fold ``E`` into ``g``; returns ``g``, then ``det * B**-1 @ C``."""
        if self.p is not None:
            self.g[:] = _exchange_update(self.g, self.d0, self.i, self.p)
            self.d0, self.p = self.p[self.i], None
        return self.g

    def column(self, c: Sequence[int]) -> list[int]:
        """``det * B**-1 @ v`` from ``c == d0 * B0**-1 @ v``, in O(n): row ``i`` is kept."""
        p = self.p
        if p is None:
            return list(c)
        i, d0 = self.i, self.d0
        det, ci = p[i], c[i]
        return [ci if k == i else (det * e - pk * ci) // d0 for k, (e, pk) in enumerate(zip(c, p))]


class _Run:
    """Mutable state of one exchange run, the engine behind every driver.

    ``det`` is the signed determinant of the pivot-row subsystem, known
    from the start; ``det0`` is its value before any exchange, and the trace
    holds it after each one. Solvers hand the engine ``x`` as ``num``, integer
    numerators over ``det``. An exchange is ``basis' = basis @ F``, ``F`` the
    identity with column ``i`` set to ``w = W / d``, ``d`` the determinant
    before it and ``W = _weights(num, d, i)``; the new determinant is
    ``d * w[i] == W[i]``. Each exchange then calls every hook in
    ``on_exchange`` as ``hook(i, j, W, d)``, ``j`` the source's pool slot; a
    tracker keeps numerators over ``det``, which is ``d`` before it.

    A driver picks one of three solvers and one of the two orders,
    :meth:`fifo` and :meth:`row_major`: :meth:`solve`, from scratch;
    :meth:`adjugate`, the cached adjugate, for either order; and
    :meth:`solution_matrix`, the pool's solution matrix, for the row-major
    walk. Each checks its solutions off the pivot rows through :meth:`check`,
    the one off-pivot check, which skips when ``covered``: the pivot rows are
    every basis row.

    The run keeps its basis once: ``rows``, int lists that each exchange
    rewrites in place. The first ``dim`` are the basis rows; ``off_rows`` are
    those off the pivot rows, as ``(index, row)``, and ``basis`` is a
    ``Matrix`` built from them on each access, for the edges that need one.
    Rows below the first ``dim`` are carried, when ``carried`` is not None:
    ``{input column: row}`` for each input column that has been in the
    basis, the Diophantine coordinates (``_split`` makes the chosen columns'
    rows). A pool vector holds its entries on the rows that existed when it
    joined the pool (only the ``dim`` for an input column) and reads zero on
    any row made later, then ``{input column: coefficient}`` for the columns
    that have no row: ``{j: 1}`` for input column ``j``, ``{}`` for a former
    basis column. An exchange makes the entering vector's new rows, so the
    carry holds at most ``rank + exchanges`` rows, then moves the carried
    entries with the vectors.
    A run without columns keeps no rows: ``rows`` is empty, and ``off_rows``
    yields the ``dim`` empty rows on demand.

    ``echelon``, set by :func:`_split`, is ``(a, cols, pooled, frontier)``:
    the rows ``exact._bareiss`` rewrote in place, the pivot columns, the input
    column of each pool vector before any exchange, and the frontier of the
    lazy elimination: the columns from it on still hold the input's entries.
    :meth:`solution_matrix`, its one reader, finishes the rows in place with
    ``exact._replay`` first.
    """

    def __init__(
        self,
        rows: list[list[int]],
        pool: Iterable[Sequence[int]],
        pivot_rows: Sequence[int],
        det: int,
        discards: int = 0,
        dim: Optional[int] = None,
        carried: Optional[dict[int, int]] = None,
    ):
        self.rows = rows
        self.dim = len(rows) if dim is None else dim
        self.pool = list(pool)
        self.pivot_rows = tuple(pivot_rows)
        self.det0 = self.det = det
        self.trace: list[ExchangeRecord] = []
        self.discards = discards
        self.on_exchange: list[Callable] = []
        self.carried = carried
        self.echelon: Optional[tuple] = None
        self.covered = len(self.pivot_rows) == self.dim  # else check() reads the rows off them
        self._off = _off_rows(rows[: self.dim], self.pivot_rows)

    @property
    def off_rows(self) -> Iterable:
        """``(index, row)`` for each basis row off the pivot rows; read it afresh for each pass."""
        return self._off if self.rows else ((t, ()) for t in range(self.dim))

    @property
    def basis(self) -> Matrix:
        return Matrix._trusted(tuple(zip(*self.rows[: self.dim])), self.dim)

    def eliminate(self, vecs: Sequence[Sequence[int]]) -> list[list[int]]:
        """``[num for each vec]``, ``num / det`` solving the pivot rows of ``basis @ x == vec``.

        One elimination, whose determinant of the pivot rows must equal
        ``det``. The ``vecs`` are ambient and integral; their entries off
        the pivot rows are neither read nor checked.
        """
        rows = self.rows
        a = [rows[t] + [v[t] for v in vecs] for t in self.pivot_rows]
        d, nums = _eliminate_rows(a, len(self.pivot_rows), len(vecs))
        if d != self.det:
            raise InvariantViolationError("elimination disagrees with the tracked determinant")
        return nums

    def check(self, vecs: Iterable[Sequence[int]], nums: Iterable[Sequence[int]]) -> None:
        """Raise SpanMismatchError unless ``basis @ num == det * vec`` off the pivot rows, for each pair."""
        if not self.covered:
            for vec, num in zip(vecs, nums):
                _check_span(self.off_rows, vec, num, self.det)

    def solve(self, vecs: Sequence[Sequence[int]]) -> list[list[int]]:
        """``[num for each vec]``, ``basis @ num == det * vec``: one elimination, each checked off the pivot rows."""
        nums = self.eliminate(vecs)
        self.check(vecs, nums)
        return nums

    def adjugate(self) -> tuple[Callable, Callable, Callable]:
        """``(solve, row, column)`` on the adjugate ``det * B**-1`` of the pivot-row system, a :class:`_ProductForm`.

        One elimination of the unit vectors builds it. ``solve(vec)``, for
        :meth:`fifo`, folds the exchanges since the last read in and is ``adj
        @ vec``; for :meth:`row_major`, ``row(i)`` folds and is ``adj[i]``
        times the pool, and ``column(j)`` is ``adj0 @ pool[j]`` combined with
        the row's exchanges in O(n). Both solves are checked off the pivot rows
        by :meth:`check`. All read only the pivot rows, so carried rows
        need nothing.
        """
        rows, covered, check = self.pivot_rows, self.covered, self.check
        columns = self.eliminate([_unit(t, self.dim) for t in rows])
        form = _ProductForm(self, [list(r) for r in zip(*columns)], moves=False)

        def solve(vec, pending=False):
            v = [vec[t] for t in rows]
            num = [sum(map(mul, r, v)) for r in (form.g if pending else form.fold())]
            if pending:
                num = form.column(num)
            check((vec,), (num,))
            return num

        def row(i):
            r = form.fold()[i]
            return [sum(map(mul, r, v if covered else map(v.__getitem__, rows))) for v in self.pool]

        return solve, row, lambda j: solve(self.pool[j], pending=True)

    def solution_matrix(self) -> tuple[Callable, Callable]:
        """``(row, column)`` on ``det * X``, ``X`` the solution matrix of the pool, for :meth:`row_major`.

        Read off the column split's elimination, :attr:`echelon`, before any
        exchange: ``exact._replay`` finishes the columns past its frontier,
        then one ``exact._back_substitute`` reads ``X``. A pooled column left
        of a later pivot was stepped over because every row left was zero
        there, and no later step writes it. One elimination of the pivot-row
        block, without right-hand sides, checks the split's determinant, and
        each pool vector is checked off the pivot rows by :meth:`check`.
        ``X`` is kept in a :class:`_ProductForm` over the pool: ``row(i)``
        folds and is row ``i``, and ``column(j)`` is column ``j`` at the last
        fold combined with the row's exchanges in O(n).
        """
        a, cols, pooled, frontier = self.echelon
        if a and frontier < len(a[0]):  # columns the split's pivot search never reached
            _replay(a, cols, frontier)
        x_num = _back_substitute(a, cols, pooled, self.det)
        self.eliminate(())  # the pivot-row block alone, checked against the split's determinant
        self.check(self.pool, zip(*x_num))
        form = _ProductForm(self, x_num, moves=True)
        return (lambda i: form.fold()[i]), (lambda j: form.column([r[j] for r in x_num]))

    def exchange(self, j: int, num: Sequence[int], i: int) -> None:
        """Swap basis column ``i`` for the residue of ``pool[j]``, then run the ``on_exchange`` hooks.

        ``num`` must solve ``basis @ num == det * pool[j]``, ``num[i] / det``
        fractional (:func:`_rounded` raises IntegralPivotError before any state
        changes otherwise). The old basis column takes pool slot ``j``, as the
        class docstring lays out a pool vector; the new determinant is ``W[i]``.
        """
        d = self.det
        rounded = _rounded(num, d, i)
        w = [e - d * r for e, r in zip(num, rounded)]  # _weights(num, d, i)
        self.det = w[i]
        self.trace.append(ExchangeRecord(len(self.trace), i, j, Fraction(w[i], d), self.det))
        vec, rows, carried = self.pool[j], self.rows, self.carried
        old = tuple(r[i] for r in rows)
        if carried is not None:  # vec's entry on every row, its own row made first if it is an input column
            *vec, new = vec
            vec += [0] * (len(rows) - len(vec))  # rows made since it joined the pool
            for k, e in new.items():  # no vector but this one has a coordinate on k yet
                carried[k] = len(rows)
                rows.append([0] * len(num))
                vec.append(e)
            old += ({},)
        self.pool[j] = old
        for r, v in zip(rows, vec):
            r[i] = v - sum(map(mul, r, rounded))
        for hook in self.on_exchange:
            hook(i, j, w, d)

    def fifo(self, solve: Callable) -> None:
        """Pool first in, first out; pivot as :func:`choose_pivot_argmin` does.

        ``solve(vec)`` returns ``num`` over ``det``. A pool vector whose solution is
        integral is discarded; an exchanged one's old basis column joins the
        back of the pool. Stops once ``|det| == 1``: every remaining pool vector
        then divides evenly and is discarded unexamined.
        """
        pool = self.pool
        while pool and self.det not in (1, -1):
            num = solve(pool[0])
            i = _pivot(num, self.det)
            if i is None:
                self.discards += 1
                pool.pop(0)
                continue
            self.exchange(0, num, i)
            pool.append(pool.pop(0))
        self.discards += len(pool)
        pool.clear()

    def row_major(self, row: Callable, column: Callable) -> None:
        """Clear fractional solution entries row by row, top down.

        ``row(i)`` is row ``i`` of the pool's solution matrix as ints over
        ``det``, called once per pivot row, when the walk reaches it;
        ``column(j)`` is the solution of ``pool[j]`` as ints over ``det``. Each
        exchange pivots on the first fractional entry of the topmost row that
        has one, and the walk carries that row across it on a copy: ``F**-1``
        keeps row ``i`` and slot ``j`` now holds the old ``B_i``, so slot ``j``
        becomes the old ``det`` and the row is over the new one. Each exchange
        still checks the carried entry against ``column(j)``. Rows above stay
        integral, so the walk never backtracks, and each exchange grows the
        touched column by at most ``(n-1) * ||A||``, the largest entry of the
        run's columns at the start (that of the input: zero columns add
        nothing). That per-step cap and :func:`coefficient_bound` are enforced
        on every exchange; a violation raises InvariantViolationError since it
        would falsify the pivoting argument. The walk stops once ``|det| == 1``,
        forming no further row: every solution is then integral. Unlike FIFO's
        stop it leaves the pool as it is, so a row-major run's ``discards``
        counts zero columns only.
        """
        n = self.dim
        basis_rows = self.rows[:n]
        norm_a = max(map(abs, chain(*basis_rows, *(v[:n] for v in self.pool))), default=0)
        bound = coefficient_bound(n, norm_a)
        for i in range(len(self.pivot_rows)):
            if self.det in (1, -1):  # every solution is integral: no exchange can follow
                break
            z = list(row(i))  # carried across this row's exchanges; the driver may own its list
            peak = max(abs(r[i]) for r in basis_rows)  # then only exchanges on column i write it
            while (j := next((k for k, e in enumerate(z) if e % self.det), None)) is not None:
                num = column(j)
                if num[i] != z[j]:
                    raise InvariantViolationError("row solve disagrees with the full solve")
                old_peak = peak
                # F**-1 keeps row i, and slot j now holds the old B_i, whose solution is e_i
                z[j] = self.det
                self.exchange(j, num, i)
                peak = max(abs(r[i]) for r in basis_rows)
                if peak > old_peak + (n - 1) * norm_a:
                    raise InvariantViolationError("per-step coefficient growth bound violated")
                # the other columns were checked when they entered, or are input
                if peak > bound:
                    raise InvariantViolationError("intermediate basis exceeds the coefficient bound")

    def coordinates(self, m: int) -> list[list[int]]:
        """The carry as ``m`` rows, one per input column: its carried row, or zeros if it has none."""
        u = [[0] * len(self.pivot_rows)] * m
        for k, t in self.carried.items():
            u[k] = self.rows[t]
        return u

    def result(self) -> BasisResult:
        basis = self.basis
        return BasisResult(
            basis=basis,
            exchanges=len(self.trace),
            discards=self.discards,
            det_trajectory=(self.det0, *(rec.det_after for rec in self.trace)),
            max_abs_entry=int(basis.max_abs()),
            trace=tuple(self.trace),
        )


def _split(a_mat: Matrix, coordinates: bool = False) -> _Run:
    """A run on the columns of ``a_mat``, before any exchange.

    Zero columns are discarded, the first maximal independent set of
    columns forms the basis and the rest is pooled. With ``coordinates``
    the run carries each vector's coordinates in the columns of ``a_mat``
    (see :class:`_Run`): a row per chosen column below the ``n`` basis rows,
    together the ``rank x rank`` identity, and ``{j: 1}`` after pooled
    column ``j``; nothing ``m`` long. Raises ValueError on a non-integral
    entry. Without a nonzero column the run has no columns and keeps no rows.
    """
    a_mat = a_mat.to_int()  # raises on a non-integral Fraction
    columns = a_mat.columns
    # the elimination of find_independent_columns, on entries already checked
    echelon = [list(r) for r in zip(*columns)]
    pivot_rows, col_idx, det, frontier = _bareiss(echelon, a_mat.cols)
    chosen = set(col_idx)
    pooled = [j for j, col in enumerate(columns) if j not in chosen and any(col)]
    rows = [list(r) for r in zip(*(columns[j] for j in col_idx))]
    pool, carried = [columns[j] for j in pooled], None
    if coordinates:  # only for the columns the run keeps: a zero column carries nothing
        pool = [col + ({j: 1},) for j, col in zip(pooled, pool)]
        carried = {j: a_mat.rows + p for p, j in enumerate(col_idx)}
        rows += (list(_unit(p, len(col_idx))) for p in range(len(col_idx)))
    run = _Run(
        rows,
        pool,
        sorted(pivot_rows),
        det,
        discards=a_mat.cols - len(col_idx) - len(pooled),
        dim=a_mat.rows,
        carried=carried,
    )
    run.echelon = (echelon, col_idx, pooled, frontier)
    return run


def exchange_step(state: EuclidState, vec: Sequence[int], x: Sequence[Scalar], i: int) -> EuclidState:
    """One exchange: swap basis column ``i`` for the residue of ``vec``.

    ``x`` must solve ``state.basis @ x == vec`` with ``x[i]`` fractional and
    ``vec`` must be in the pool. The old basis column joins the end of the
    pool; the generated lattice of basis plus pool is unchanged. The engine
    takes ``x`` as numerators over ``state.det``: a zero determinant, or a
    denominator of ``x`` that does not divide it, raises
    InvariantViolationError.
    """
    try:
        j = state.pool.index(tuple(vec))
    except ValueError:
        raise ValueError("exchange source vector is not in the pool") from None
    if len(x) != state.basis.cols:
        raise DimensionMismatchError(f"solution of length {len(x)} against {state.basis.cols} columns")
    _check_index(i, len(x), "pivot")
    run = _Run([list(r) for r in zip(*state.basis.columns)], state.pool, state.pivot_rows, state.det)
    run.trace = list(state.trace)
    mu, num = _integer_multiple(x)
    if not state.det or state.det % mu:
        raise InvariantViolationError("solution denominators do not divide the determinant")
    run.exchange(j, [e * (state.det // mu) for e in num], i)
    run.pool.append(run.pool.pop(j))
    return EuclidState(run.basis, tuple(run.pool), run.pivot_rows, run.det, tuple(run.trace))


def basic_basis(a_mat: Matrix) -> BasisResult:
    """Compute a lattice basis for the columns of ``a_mat``.

    Baseline driver: pool vectors are consumed first-in first-out and every
    iteration solves the current system from scratch. The output basis has
    ``rank(a_mat)`` columns and generates exactly the lattice of the input;
    an input without nonzero columns yields an empty basis.
    """
    run = _split(a_mat)
    run.fifo(lambda vec: run.solve((vec,))[0])
    return run.result()


def basis_transform(a_mat: Matrix, basis: Matrix) -> Matrix:
    """``Y`` with ``initial_basis @ Y == basis``, for the columns the split of ``a_mat`` keeps and any driver's basis.

    One ``_Run.solve`` of the split against ``basis`` gives ``d0 * Y`` (SpanMismatchError off the span); a column
    ``d0 * e_k`` comes back as the int ``e_k``, the others as Fractions over ``d0``. Raises DimensionMismatchError
    unless ``basis`` is ``a_mat.rows`` by the rank, and ValueError on a non-integral entry.
    """
    run = _split(a_mat)
    d0, rank = run.det, len(run.pivot_rows)
    if basis.rows != a_mat.rows or basis.cols != rank:
        raise DimensionMismatchError(f"a {basis.rows}x{basis.cols} basis against {a_mat.rows} rows of rank {rank}")
    units = [_unit(k, rank) for k in range(rank)]
    nums = run.solve(basis.to_int().columns)  # the columns of d0 * Y
    y = tuple(u if num == [d0 * e for e in u] else tuple(Fraction(e, d0) for e in num) for u, num in zip(units, nums))
    return Matrix._trusted(y, rank)
