"""Accelerated configurations of the exchange engine.

Each driver here is a configuration of the engine in
:mod:`lattice_euclid.euclid` that only swaps in a faster way to solve pool
vectors against the basis:

* ``inverse_variant_basis`` runs the FIFO order of ``basic_basis`` (same
  pivots, same trace) against a cached inverse of the independent system.
* ``solution_variant_basis`` solves all pool vectors up front into a
  solution matrix ``X``; exchanges also accumulate into a rational
  transform ``Y``.
* ``rowwise_variant_basis`` recomputes one row of ``X`` at a time with a
  single transposed solve.

An exchange is ``B' = B @ F`` with ``F`` the identity whose column ``i`` is
the engine's ``w``: the cached inverse and ``X`` advance by ``F**-1`` on the
left (``exact._exchange_update``), ``Y`` by ``F`` on the right (:func:`y_update`).

The last two run the engine's row-major order, so they produce the same
trace. That order is what tames coefficient growth: when rows above ``i``
are integral, the exchanged column is a combination of the current column
``i`` and *untouched* input columns only, so each exchange adds at most
``(n - 1) * ||A||`` to the column's magnitude, and every basis entry ever
produced stays within ``n^2 * ||A|| * ceil(log2(n * ||A||))``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError, IntegralPivotError, InvariantViolationError
from .exact import (
    Matrix,
    Scalar,
    _exchange_update,
    _integer_multiple,
    bareiss_det,
    invert,
    solve_system,
)
from .euclid import (
    BasisResult,
    _split,
    _unit,
    _weights,
    check_off_pivot_rows,
    coefficient_bound,  # re-exported: defined beside the engine that enforces it
    frac_part,
)

def inverse_variant_basis(a_mat: Matrix) -> BasisResult:
    """Basis computation with a cached inverse, updated per exchange.

    Behaves exactly like :func:`lattice_euclid.euclid.basic_basis` (same
    pivots, same trace, same early stop once ``|det| == 1``) except that
    each solve is a matrix-vector product against the cached inverse.
    """
    run = _split(a_mat)
    rows = run.pivot_rows
    covered = len(rows) == run.basis.rows
    b_inv = invert(run.basis.submatrix_rows(rows))

    def solve(vec):
        x = b_inv.mat_vec([vec[r] for r in rows])
        if not covered:
            # same off-pivot-row guard the direct solver applies
            check_off_pivot_rows(run.basis, rows, vec, x)
        return x

    def exchanged(i, j, w):
        nonlocal b_inv
        b_inv = _exchange_update(b_inv, i, w)

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

    computed in O(rows * cols) scalar operations, with no linear solve. A
    row ``k`` of ``X`` that is integral stays integral (``w[k] == 0``, so
    the row is kept), which is what makes row-by-row pivoting converge
    top-down.
    """
    w = _weights(x_mat.column(j), i)
    if w[i] == 0:
        raise IntegralPivotError(f"entry ({i}, {j}) of the solution matrix is integral")
    return _exchange_update(x_mat.with_column(j, _unit(i, x_mat.rows)), i, w)


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
    shortcut = all(v[k] == 0 for k in range(i)) and all(
        y_mat.column(k) == _unit(k, r)
        for k in range(i + 1, r)
    )
    if shortcut:
        old = y_mat.column(i)
        new_col = tuple(
            old[t] * v[i] + (v[t] if t > i else 0) for t in range(r)
        )
    else:
        new_col = y_mat.mat_vec(v)
    return y_mat.with_column(i, new_col)


def solution_variant_basis(a_mat: Matrix, *, check_invariants: bool = False) -> BasisResult:
    """Basis computation via bulk solution-matrix updates.

    Solves every pool vector once up front, then repeatedly exchanges on the
    minimal fractional row (smallest column on ties) using
    :func:`solution_update`, folding each exchange into the transform ``Y``
    with :func:`y_update`; ``initial_basis @ Y`` must reproduce the basis
    at the end. The per-step growth bound ``new <= old + (n-1)*||A||`` and
    :func:`coefficient_bound` are enforced on every exchange.

    ``check_invariants`` additionally verifies, per iteration, that
    ``initial_basis @ Y`` reproduces the basis, and cross-checks the
    multiplicative determinant against a fresh elimination at the end.
    Violations raise InvariantViolationError.
    """
    run = _split(a_mat)
    initial = run.basis
    x_mat = Matrix(tuple(run.solve(vec) for vec in run.pool), rows=initial.cols)
    y_mat = Matrix.identity(initial.cols)

    def check_transform():
        if initial @ y_mat != run.basis:
            raise InvariantViolationError("transform product drifted from the basis")

    def exchanged(i, j, w):
        nonlocal x_mat, y_mat
        y_mat = y_update(y_mat, w, i)
        x_mat = solution_update(x_mat, i, j)
        if check_invariants:
            check_transform()

    run.row_major(int(a_mat.max_abs()), lambda i: x_mat.row(i), lambda j: x_mat.column(j), exchanged)
    check_transform()
    if check_invariants and bareiss_det(run.basis.submatrix_rows(run.pivot_rows)) != run.det:
        raise InvariantViolationError("multiplicative determinant disagrees with elimination")
    return run.result(transform=y_mat)


def solve_row(b_mat: Matrix, c_mat: Matrix, i: int) -> tuple[Fraction, ...]:
    """Row ``i`` of the exact solution matrix of ``b_mat @ X == c_mat``.

    Solves the single transposed system ``B^T y = e_i`` (so ``y`` is row
    ``i`` of the inverse), scales ``y`` integral by the lcm of its
    denominators, and takes integer dot products with the columns of
    ``c_mat``; no other row of ``X`` is ever formed.
    """
    n = b_mat.rows
    if b_mat.cols != n:
        raise DimensionMismatchError("solve_row needs a square system")
    if c_mat.rows != n:
        raise DimensionMismatchError("right-hand-side rows must match the system")
    if not 0 <= i < n:
        raise IndexError(f"row {i} out of range")
    y = solve_system(b_mat.transpose(), _unit(i, n))
    mu, scaled = _integer_multiple(y)
    return tuple(
        Fraction(sum(s * e for s, e in zip(scaled, col)), mu) for col in c_mat.columns
    )


def rowwise_variant_basis(a_mat: Matrix, *, check_invariants: bool = False) -> BasisResult:
    """Basis computation with row-by-row pivoting and bounded entries.

    Walks solution rows top-down: recompute row ``i`` via :func:`solve_row`,
    and while it has a fractional entry, exchange on it (full solve for that
    one pool column) and recompute. Once a row is integral it stays integral,
    so the walk never backtracks. Both the per-step growth cap
    ``new <= old + (n-1)*||A||`` and the global :func:`coefficient_bound`
    are enforced on every exchange; a violation raises
    InvariantViolationError since it would falsify the pivoting argument.

    ``check_invariants`` additionally re-solves the whole pool at the end
    and verifies every solution is integral.
    """
    run = _split(a_mat)
    rows = run.pivot_rows

    def row(i):
        restricted = Matrix(tuple(tuple(vec[t] for t in rows) for vec in run.pool), rows=len(rows))
        return solve_row(run.basis.submatrix_rows(rows), restricted, i)

    run.row_major(int(a_mat.max_abs()), row, lambda j: run.solve(run.pool[j]))
    if check_invariants:
        for vec in run.pool:
            if any(frac_part(e) != 0 for e in run.solve(vec)):
                raise InvariantViolationError("pool vector left fractional at exit")
    return run.result()
