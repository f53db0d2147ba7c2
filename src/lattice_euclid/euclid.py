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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import IntegralPivotError, InvariantViolationError, SpanMismatchError
from .exact import Matrix, Scalar, _integer_multiple, bareiss_det, solve_system


def next_int(q: Scalar) -> int:
    """Nearest integer to ``q``; halves round toward +infinity."""
    return math.floor(q + Fraction(1, 2))


def frac_part(q: Scalar) -> Scalar:
    """Fractional part of ``q`` in [0, 1)."""
    return q - math.floor(q)


@dataclass(frozen=True)
class ExchangeRecord:
    """One exchange step of a run.

    ``factor`` is the pivot residue ``x_i - next_int(x_i)``; it equals the
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
    ``transform`` is only populated by the solution-matrix variant: the
    rational matrix ``Y`` with ``initial_basis @ Y == basis``.
    """

    basis: Matrix
    exchanges: int
    discards: int
    det_trajectory: tuple[int, ...]
    max_abs_entry: int
    trace: tuple[ExchangeRecord, ...]
    transform: Optional[Matrix] = None


def mod_parallelepiped(b_mat: Matrix, vec: Sequence[int]) -> tuple[int, ...]:
    """Residue of ``vec`` inside the fundamental parallelepiped of ``b_mat``.

    For square nonsingular ``b_mat`` this is ``B * frac(B**-1 vec)``: the
    unique representative of ``vec`` modulo the lattice of ``b_mat`` lying in
    ``{B t : t in [0,1)^n}``. The result is integral and differs from ``vec``
    by a lattice vector.
    """
    x = solve_system(b_mat, vec)
    shifts = [math.floor(q) for q in x]
    bx = b_mat.mat_vec(shifts)
    return tuple(v - w for v, w in zip(vec, bx))


def mod_prime(b_mat: Matrix, vec: Sequence[int], x: Sequence[Scalar], i: int) -> tuple[int, ...]:
    """Residue with the pivot coordinate rounded to the nearest integer.

    ``x`` must solve ``b_mat @ x == vec`` and ``x[i]`` must be fractional;
    all coordinates are floored except ``i``, which is rounded to the
    nearest integer. Swapping column ``i`` for the result scales the
    determinant by ``x[i] - next_int(x[i])``, of magnitude at most 1/2.
    """
    if frac_part(x[i]) == 0:
        raise IntegralPivotError(f"coordinate {i} of the solution is integral")
    rounded = [math.floor(q) for q in x]
    rounded[i] = next_int(x[i])
    bx = b_mat.mat_vec(rounded)
    return tuple(v - w for v, w in zip(vec, bx))


def choose_pivot_argmin(x: Sequence[Scalar]) -> Optional[int]:
    """Index of the fractional coordinate closest to an integer.

    Ties break toward the smallest index; returns None when ``x`` is
    integral. Any fractional coordinate would preserve correctness, but the
    closest one maximizes the determinant shrink of the resulting exchange.
    """
    best: Optional[int] = None
    best_dist: Optional[Scalar] = None
    for j, q in enumerate(x):
        if frac_part(q) == 0:
            continue
        dist = abs(q - next_int(q))
        if best_dist is None or dist < best_dist:
            best, best_dist = j, dist
    return best


def _independent_columns(a_mat: Matrix) -> tuple[list[int], list[int]]:
    # Greedy left-to-right exact elimination in integers. Accepted columns
    # are kept in echelon form, divided by their content; each contributes
    # a fresh pivot row, and the accepted original columns restricted to
    # those rows are nonsingular. The cross-multiplied update
    # ``v <- u[p] * v - v[p] * u`` is a nonzero multiple of the rational one,
    # so it has the same zero pattern and picks the same columns and rows.
    echelon: list[tuple[int, list[int]]] = []
    col_idx: list[int] = []
    pivot_rows: list[int] = []
    for j, column in enumerate(a_mat.columns):
        v = _integer_multiple(column)[1]
        for p, u in echelon:
            vp = v[p]
            if vp:
                up = u[p]
                v = [up * e - vp * f for e, f in zip(v, u)]
        p = next((t for t, e in enumerate(v) if e), None)
        if p is not None:
            g = math.gcd(*v)
            if g != 1:
                v = [e // g for e in v]
            echelon.append((p, v))
            col_idx.append(j)
            pivot_rows.append(p)
    return col_idx, sorted(pivot_rows)


def find_independent_columns(a_mat: Matrix) -> list[int]:
    """Lexicographically first maximal set of independent column indices."""
    return _independent_columns(a_mat)[0]


def check_off_pivot_rows(basis: Matrix, pivot_rows: Sequence[int], vec: Sequence[int], x: Sequence[Scalar]) -> None:
    """Verify ``basis @ x == vec`` on the rows *not* in ``pivot_rows``.

    Compared in integers: ``x`` is scaled by the lcm ``L`` of its
    denominators and each row is checked as ``basis[i] @ (L * x) == L * vec[i]``.
    """
    covered = set(pivot_rows)
    mu, scaled = _integer_multiple(x)
    columns = basis.columns
    for irow in range(basis.rows):
        if irow in covered:
            continue
        acc = sum(col[irow] * s for col, s in zip(columns, scaled))
        if acc != vec[irow] * mu:
            raise SpanMismatchError(f"vector leaves the column span at row {irow}")


def solve_in_span(basis: Matrix, pivot_rows: Sequence[int], vec: Sequence[int]) -> tuple[Fraction, ...]:
    """Solve ``basis @ x == vec`` for a full-column-rank basis.

    The square subsystem on ``pivot_rows`` determines ``x``; when the basis
    has fewer columns than rows, the remaining rows are then checked
    exactly, so a vector outside the column span raises SpanMismatchError
    instead of silently returning a non-solution.
    """
    x = solve_system(basis.submatrix_rows(pivot_rows), [vec[i] for i in pivot_rows])
    if len(pivot_rows) != basis.rows:
        check_off_pivot_rows(basis, pivot_rows, vec, x)
    return x


def exchange_step(state: EuclidState, vec: Sequence[int], x: Sequence[Scalar], i: int) -> EuclidState:
    """One exchange: swap basis column ``i`` for the residue of ``vec``.

    ``x`` must solve ``state.basis @ x == vec`` with ``x[i]`` fractional and
    ``vec`` must be in the pool. The old basis column joins the end of the
    pool; the generated lattice of basis plus pool is unchanged.
    """
    factor = x[i] - next_int(x[i])
    remainder = mod_prime(state.basis, vec, x, i)
    target = tuple(vec)
    try:
        idx = state.pool.index(target)
    except ValueError:
        raise ValueError("exchange source vector is not in the pool") from None
    old_column = state.basis.column(i)
    det_frac = factor * state.det
    if det_frac.denominator != 1:
        raise InvariantViolationError("exchange factor does not divide the determinant")
    record = ExchangeRecord(
        step=len(state.trace),
        pivot_row=i,
        column=idx,
        factor=factor,
        det_after=int(det_frac),
    )
    return EuclidState(
        basis=state.basis.with_column(i, remainder),
        pool=state.pool[:idx] + state.pool[idx + 1 :] + (old_column,),
        pivot_rows=state.pivot_rows,
        det=int(det_frac),
        trace=state.trace + (record,),
    )


def _split_generators(a_mat: Matrix):
    """Zero columns out, independent columns into the basis, rest pooled.

    Returns ``(state, zero_discards)`` with ``state is None`` when the input
    has no nonzero column at all.
    """
    zero = tuple(0 for _ in range(a_mat.rows))
    zero_discards = sum(1 for j in range(a_mat.cols) if a_mat.column(j) == zero)
    col_idx, pivot_rows = _independent_columns(a_mat)
    if not col_idx:
        return None, zero_discards
    chosen = set(col_idx)
    basis = Matrix(tuple(a_mat.column(j) for j in col_idx), rows=a_mat.rows)
    pool = tuple(
        a_mat.column(j)
        for j in range(a_mat.cols)
        if j not in chosen and a_mat.column(j) != zero
    )
    det = bareiss_det(basis.submatrix_rows(pivot_rows))
    return (
        EuclidState(basis=basis, pool=pool, pivot_rows=tuple(pivot_rows), det=det),
        zero_discards,
    )


def _empty_result(n_rows: int, discards: int, transform: Optional[Matrix] = None) -> BasisResult:
    return BasisResult(
        basis=Matrix((), rows=n_rows),
        exchanges=0,
        discards=discards,
        det_trajectory=(1,),
        max_abs_entry=0,
        trace=(),
        transform=transform,
    )


def _finish(state: EuclidState, discards: int, trajectory: list[int]) -> BasisResult:
    return BasisResult(
        basis=state.basis,
        exchanges=len(state.trace),
        discards=discards,
        det_trajectory=tuple(trajectory),
        max_abs_entry=int(state.basis.max_abs()),
        trace=state.trace,
    )


def basic_basis(a_mat: Matrix) -> BasisResult:
    """Compute a lattice basis for the columns of ``a_mat``.

    Baseline driver: pool vectors are consumed first-in first-out and every
    iteration solves the current system from scratch. The output basis has
    ``rank(a_mat)`` columns and generates exactly the lattice of the input;
    an input without nonzero columns yields an empty basis.
    """
    state, discards = _split_generators(a_mat)
    if state is None:
        return _empty_result(a_mat.rows, discards)
    trajectory = [state.det]
    while state.pool:
        vec = state.pool[0]
        x = solve_in_span(state.basis, state.pivot_rows, vec)
        i = choose_pivot_argmin(x)
        if i is None:
            state = replace(state, pool=state.pool[1:])
            discards += 1
        else:
            state = exchange_step(state, vec, x, i)
            trajectory.append(state.det)
    return _finish(state, discards, trajectory)
