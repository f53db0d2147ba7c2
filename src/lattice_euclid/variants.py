"""Accelerated configurations of the exchange engine.

Each driver here is a configuration of the engine in
:mod:`lattice_euclid.euclid` that only swaps in a faster way to solve pool
vectors against the basis:

* ``inverse_variant_basis`` runs the FIFO order of ``basic_basis`` (same
  pivots, same trace) against the engine's cached adjugate of the
  independent system, ``_Run.adjugate``.
* ``solution_variant_basis`` solves all pool vectors up front into a
  solution matrix ``X``; exchanges also accumulate into the transform
  ``Y``, kept as the integer matrix ``d0 * Y`` (``d0`` the initial
  determinant) and returned as Fractions.
* ``rowwise_variant_basis`` forms one row of ``X`` at a time as one row of
  that same adjugate times the pool.

Every solver hands the engine ``(num, d)``, integer numerators over the
tracked determinant ``d``. An exchange is ``B' = B @ F``, ``F`` the identity
with column ``i`` set to ``w``: ``Y`` advances by ``F`` (:func:`y_update`), the
cached inverse and ``X`` in integer numerators over ``det B`` by ``F**-1``
(``exact._exchange_update``); all three updates run in ints on ``d * w``.

The last two run the engine's row-major order, so they produce the same
trace. That order is what tames coefficient growth: when rows above ``i``
are integral, the exchanged column is a combination of the current column
``i`` and *untouched* input columns only, so each exchange adds at most
``(n - 1) * ||A||`` to the column's magnitude, and every basis entry ever
produced stays within ``n^2 * ||A|| * ceil(log2(n * ||A||))``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DimensionMismatchError, IntegralPivotError, InvariantViolationError
from .exact import (
    Matrix,
    Scalar,
    _eliminate,
    _integer_multiple,
    _rational_exchange_update,
    solve_system,  # unused here; perfbench/test_perfbench.py looks the name up in this module
)
from .euclid import (
    BasisResult,
    _advance,
    _Run,
    _check_pivot,
    _check_span,
    _split,
    _unit,
    _weights,
    coefficient_bound,  # re-exported: defined beside the engine that enforces it
)


def _pool_numerators(run: _Run) -> tuple[int, list[list[int]]]:
    """``(det, rows of det * X)`` for the pool against the basis, by one elimination."""
    d, columns = run.eliminate(run.pool)
    for vec, col in zip(run.pool, columns):  # the other rows, checked as solve_in_span does
        _check_span(run.off_rows, vec, col, d)
    return d, [list(r) for r in zip(*columns)] if columns else [[] for _ in run.pivot_rows]


def inverse_variant_basis(a_mat: Matrix) -> BasisResult:
    """Basis computation with a cached inverse, updated per exchange.

    Behaves exactly like :func:`lattice_euclid.euclid.basic_basis` (same
    pivots, same trace, same early stop once ``|det| == 1``) except that
    each solve is an integer matrix-vector product against the cached
    adjugate ``d * B**-1``, handed to the engine as numerators over ``d``.
    """
    run = _split(a_mat)
    solve, _, exchanged = run.adjugate()
    run.fifo(solve, exchanged)
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
    if not 0 <= j < x_mat.cols:
        raise IndexError(f"column {j} out of range for {x_mat.cols} columns")
    _check_pivot(i, x_mat.rows)
    d, num = _integer_multiple(x_mat.column(j))
    w = _weights(num, d, i)
    if w[i] == 0:
        raise IntegralPivotError(f"entry ({i}, {j}) of the solution matrix is integral")
    return _rational_exchange_update(x_mat, i, [Fraction(e, d) for e in w], j)


def _y_column(columns: Sequence[Sequence[Scalar]], v: Sequence[Scalar], i: int, units: Sequence[Sequence[Scalar]]):
    """``Y @ v``, column ``i`` of ``Y @ F`` for ``F`` the identity with column ``i`` set to ``v``.

    ``columns`` are those of ``Y``, which started as the columns ``units`` of
    ``u * I``. When ``v`` vanishes above ``i`` and every column of ``Y`` below
    ``i`` is still its unit, the product collapses to ``Y_i * v[i]`` plus ``u``
    times the tail of ``v``: O(n) operations instead of O(n^2).
    """
    r = len(v)
    if any(v[:i]) or any(columns[k] != units[k] for k in range(i + 1, r)):
        return Matrix._trusted(tuple(columns), r).mat_vec(v)
    old, vi, u = columns[i], v[i], units[i][i]
    return tuple(old[t] * vi + u * v[t] if t > i else old[t] * vi for t in range(r))


def y_update(y_mat: Matrix, v: Sequence[Scalar], i: int) -> Matrix:
    """Fold one exchange vector ``v`` into the accumulated transform.

    The exchange rewrites the transform as ``Y @ (e_0, ..., v, ..., e_{n-1})``
    with ``v`` in slot ``i``, which only changes column ``i`` to ``Y @ v``.
    Under row-wise pivoting ``v`` vanishes above ``i`` and the columns of
    ``Y`` below ``i`` are still unit vectors, so the product collapses to
    ``Y_i * v[i]`` plus the raw tail of ``v`` -- O(n) scalar operations. The
    full O(n^2) product is used whenever those preconditions do not hold.
    """
    r = y_mat.rows
    if y_mat.cols != r or len(v) != r:
        raise DimensionMismatchError("y_update needs a square transform and a matching vector")
    return y_mat.with_column(i, _y_column(y_mat.columns, v, i, Matrix.identity(r).columns))


def solution_variant_basis(a_mat: Matrix, *, check_invariants: bool = False) -> BasisResult:
    """Basis computation via bulk solution-matrix updates.

    Solves every pool vector in one elimination, then repeatedly exchanges
    on the minimal fractional row (smallest column on ties), updating ``X``
    as :func:`solution_update` does but over the determinant in ints, and
    folding each exchange into the transform ``Y`` as :func:`y_update` does.
    ``Y`` is kept as the integer ``d0 * Y``, ``d0`` the initial determinant:
    ``d0 * Y == adj(B0) @ B`` for the initial basis ``B0``, so column ``i``
    advances exactly by ``(d0 * Y) @ (d * w) // d``. ``initial_basis @ Y``
    must reproduce the basis at the end; ``result.transform`` is ``Y`` as
    Fractions, with the untouched columns left as int unit vectors. The
    per-step growth bound ``new <= old + (n-1)*||A||`` and
    :func:`coefficient_bound` are enforced on every exchange.

    ``check_invariants`` additionally verifies, per iteration, that
    ``initial_basis @ Y`` reproduces the basis, and at the end checks the
    multiplicative determinant and ``X`` against a fresh elimination.
    Violations raise InvariantViolationError.
    """
    run = _split(a_mat)
    initial_rows = [r[:] for r in run.rows]
    d, x_num = _pool_numerators(run)
    d0, n = d, len(run.pivot_rows)
    units = [tuple(d0 if t == k else 0 for t in range(n)) for k in range(n)]
    y = list(units)  # columns of d0 * Y

    def check_transform():
        for col, b in zip(y, run.basis.columns):
            if [sum(map(mul, r, col)) for r in initial_rows] != [d0 * e for e in b]:
                raise InvariantViolationError("transform product drifted from the basis")

    def exchanged(i, j, x):
        nonlocal d, x_num
        w = _weights(x[0], d, i)
        y[i] = tuple(e // d for e in _y_column(y, w, i, units))
        x_num, d = _advance(x_num, d, i, w, run.det, j)
        if check_invariants:
            check_transform()

    run.row_major(int(a_mat.max_abs()), lambda i: (x_num[i], d), lambda j: ([r[j] for r in x_num], d), exchanged)
    check_transform()
    if check_invariants and _pool_numerators(run) != (run.det, x_num):
        raise InvariantViolationError("determinant or solution matrix disagrees with a fresh elimination")
    transform = tuple(_unit(k, n) if c is units[k] else tuple(Fraction(e, d0) for e in c) for k, c in enumerate(y))
    return run.result(transform=Matrix._trusted(transform, n))


def solve_row(b_mat: Matrix, c_mat: Matrix, i: int) -> tuple[Fraction, ...]:
    """Row ``i`` of the exact solution matrix of ``b_mat @ X == c_mat``.

    Solves the single transposed system ``B^T y = e_i`` (so ``y`` is row
    ``i`` of the inverse) as ``det * y`` in ints and takes integer dot
    products with the columns of ``c_mat``; no other row of ``X`` is formed.
    """
    n = b_mat.rows
    if b_mat.cols != n:
        raise DimensionMismatchError("solve_row needs a square system")
    if c_mat.rows != n:
        raise DimensionMismatchError("right-hand-side rows must match the system")
    if not 0 <= i < n:
        raise IndexError(f"row {i} out of range")
    d, (y,) = _eliminate(b_mat.transpose(), (_unit(i, n),))
    return tuple(Fraction(sum(map(mul, y, col)), d) for col in c_mat.columns)


def rowwise_variant_basis(a_mat: Matrix, *, check_invariants: bool = False) -> BasisResult:
    """Basis computation with row-by-row pivoting and bounded entries.

    Walks solution rows top-down: row ``i`` is row ``i`` of the cached adjugate
    (as :func:`inverse_variant_basis` keeps it) times the pool; while it has a
    fractional entry, exchange on it and form the row again. Once a row is
    integral it stays integral, so the walk never backtracks. Both the per-step
    growth cap ``new <= old + (n-1)*||A||`` and the global :func:`coefficient_bound`
    are enforced on every exchange; a violation raises
    InvariantViolationError since it would falsify the pivoting argument.

    ``check_invariants`` additionally re-solves the whole pool at the end
    and verifies every solution is integral.
    """
    run = _split(a_mat)
    solve, row, exchanged = run.adjugate()
    run.row_major(int(a_mat.max_abs()), row, lambda j: solve(run.pool[j]), exchanged)
    if check_invariants:
        d, x_num = _pool_numerators(run)
        if any(e % d for r in x_num for e in r):
            raise InvariantViolationError("pool vector left fractional at exit")
    return run.result()
