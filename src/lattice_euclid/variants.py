"""Accelerated configurations of the exchange engine.

Each driver here is a configuration of the engine ``euclid._Run``: it picks
one of the engine's solvers and one of its two pivot orders, nothing else.

* ``inverse_variant_basis``: the FIFO order of ``basic_basis`` (same pivots,
  same trace), on the cached solver the run's shape picks,
  ``_Run.fifo_solver``: the pool's solution matrix while the pool is no wider
  than the rank, else the cached adjugate, ``_Run.adjugate``. Determinant
  mode (:mod:`lattice_euclid.applications`) is this run on ``(B | I)``.
* ``solution_variant_basis``: the row-major order, on the pool's solution
  matrix read off the column split, ``_Run.solution_matrix``.
* ``rowwise_variant_basis``: the row-major order, each row formed once as one
  row of the cached adjugate times the pool, ``_Run.adjugate``.

The last two produce the same trace. That order is what tames coefficient
growth: when rows above ``i`` are integral, the exchanged column is a
combination of the current column ``i`` and *untouched* input columns only,
so each exchange adds at most ``(n - 1) * ||A||`` to the column's magnitude,
and every basis entry ever produced stays within
``n^2 * ||A|| * ceil(log2(n * ||A||))``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DimensionMismatchError, InvariantViolationError
from .exact import (
    Matrix,
    Scalar,
    _eliminate,
    _check_index,
    _check_square,
    _integer_multiple,
    _rational_exchange_update,
    solve_system,  # unused here; perfbench/test_perfbench.py looks the name up in this module
)
from .euclid import BasisResult, _split, _unit, _weights


def inverse_variant_basis(a_mat: Matrix) -> BasisResult:
    """Basis computation with a cached inverse or solution matrix, updated per exchange.

    Behaves exactly like :func:`lattice_euclid.euclid.basic_basis` (same
    pivots, same trace, same early stop once ``|det| == 1``) except that no
    solve eliminates. While the pool is no wider than the rank, ``d * X``
    for the pool is read off the column split, and a solve reads one column
    of it in O(n); otherwise each solve is an integer matrix-vector product
    against the cached adjugate ``d * B**-1``. Either is handed to the engine
    as numerators over ``d``.
    """
    run = _split(a_mat)
    run.fifo(run.fifo_solver()[1])
    return run.result()


def solution_update(x_mat: Matrix, i: int, j: int) -> Matrix:
    """Rewrite the solution matrix after exchanging on entry ``(i, j)``.

    If ``X == B**-1 C`` and basis column ``i`` is swapped for the residue of
    pool column ``j`` (which inherits the old basis column ``B e_i``), the
    basis becomes ``B @ F``, ``F`` the identity with column ``i`` set to
    ``w = X_j - rounded(X_j)``. So ``X' = F**-1 @ Z`` for ``Z`` = ``X`` with
    column ``j`` replaced by ``e_i``::

        X'[i][l] = Z[i][l] / w[i]
        X'[k][l] = Z[k][l] - w[k] * Z[i][l] / w[i]             (k != i)

    computed in O(rows * cols) integer operations over a common
    denominator, with no linear solve. A row ``k`` of ``X`` that is
    integral stays integral (``w[k] == 0``), which is what makes row-by-row
    pivoting converge top-down.
    """
    _check_index(i, x_mat.rows, "pivot")
    z = x_mat.with_column(j, _unit(i, x_mat.rows))  # IndexError for j out of range
    d, num = _integer_multiple(x_mat.column(j))
    w = _weights(num, d, i)  # IntegralPivotError if entry (i, j) is integral
    return _rational_exchange_update(z, i, [Fraction(e, d) for e in w])


def y_update(y_mat: Matrix, v: Sequence[Scalar], i: int) -> Matrix:
    """Fold one exchange vector ``v`` into the accumulated transform.

    The exchange rewrites the transform as ``Y @ (e_0, ..., v, ..., e_{n-1})``
    with ``v`` in slot ``i``, which only changes column ``i`` to ``Y @ v``.
    """
    if len(v) != _check_square(y_mat, "y_update"):
        raise DimensionMismatchError("y_update needs a vector as long as the transform")
    return y_mat.with_column(i, y_mat.mat_vec(v))


def solution_variant_basis(a_mat: Matrix, *, check_invariants: bool = False) -> BasisResult:
    """Basis computation via bulk solution-matrix updates.

    Reads ``det * X`` for the whole pool off the column split's elimination
    (``_Run.solution_matrix``, which checks it against the split's
    determinant and off the pivot rows). Then the driver repeatedly exchanges
    on the minimal fractional row (smallest column on ties), updating ``X``
    as :func:`solution_update` does but over the determinant in ints, in
    product form: each exchange costs O(n), and ``X`` absorbs a row's
    exchanges when the walk reaches the next row. The
    per-step growth bound ``new <= old + (n-1)*||A||`` and
    :func:`coefficient_bound` are enforced on every exchange.

    ``check_invariants`` additionally checks the multiplicative determinant
    and ``X`` at the end against a fresh elimination. Violations raise
    InvariantViolationError.
    """
    run = _split(a_mat)
    _, row, column = run.solution_matrix()
    run.row_major(row, column)
    if check_invariants and run.solve(run.pool) != [column(j) for j in range(len(run.pool))]:
        raise InvariantViolationError("solution matrix disagrees with a fresh elimination")
    return run.result()


def solve_row(b_mat: Matrix, c_mat: Matrix, i: int) -> tuple[Fraction, ...]:
    """Row ``i`` of the exact solution matrix of ``b_mat @ X == c_mat``.

    Solves the single transposed system ``B^T y = e_i`` (so ``y`` is row
    ``i`` of the inverse) as ``det * y`` in ints and takes integer dot
    products with the columns of ``c_mat``; no other row of ``X`` is formed.
    """
    n = _check_square(b_mat, "solve_row")
    if c_mat.rows != n:
        raise DimensionMismatchError("right-hand-side rows must match the system")
    _check_index(i, n, "row")
    d, (y,) = _eliminate(b_mat.transpose(), (_unit(i, n),))
    return tuple(Fraction(sum(map(mul, y, col)), d) for col in c_mat.columns)


def rowwise_variant_basis(a_mat: Matrix, *, check_invariants: bool = False) -> BasisResult:
    """Basis computation with row-by-row pivoting and bounded entries.

    Walks solution rows top-down: row ``i`` is formed once, as row ``i`` of
    the cached adjugate times the pool (``_Run.adjugate``: the product form
    that :func:`inverse_variant_basis` folds before each solve on a wide
    pool folds here once per row); while it has a fractional entry, exchange on it, and
    carry the row across the exchange rather than form it again. Once a row is integral it stays
    integral, so the walk never backtracks; once ``|det| == 1`` it forms no
    further row. Both the per-step
    growth cap ``new <= old + (n-1)*||A||`` and the global :func:`coefficient_bound`
    are enforced on every exchange; a violation raises
    InvariantViolationError since it would falsify the pivoting argument.

    ``check_invariants`` additionally re-solves the whole pool at the end
    and verifies every solution is integral.
    """
    run = _split(a_mat)
    _, row, column = run.adjugate()
    run.row_major(row, column)
    if check_invariants and any(e % run.det for num in run.solve(run.pool) for e in num):
        raise InvariantViolationError("pool vector left fractional at exit")
    return run.result()
