"""Determinant and Diophantine solving built on the exchange engine.

Both are configurations of the engine's FIFO order, the order of
:func:`lattice_euclid.euclid.basic_basis`:

* The determinant of a square ``B`` falls out of running the exchange loop
  on ``(B | I)``. The identity block forces the generated lattice to be all
  of ``Z^n``, so the run ends on a unimodular basis; since every exchange
  scales the determinant by its pivot residue, the accumulated product of
  residues is ``det(final) / det(B)``, and ``det(B)`` is the sign
  ``det(final)``, the run's tracked determinant, over that product.
  The run is that of ``inverse_variant_basis`` on ``(B | I)``: the column
  split eliminates ``B`` once (a rank below ``n`` means ``det(B) == 0``),
  the unit vectors are pooled, and the FIFO steps solve on the pool's
  solution matrix, which for the unit vectors is the adjugate, one
  elimination of them; so the run knows each determinant as it happens. One
  ``_Run.eliminate`` of the end basis checks the sign, as it checks every
  solver's; the value from the factors must equal the split's determinant.
* ``A x = b`` over the integers is solved on the columns of ``A`` stacked
  over ``I_m`` (Cohen 1993, section 2.4): every vector holds its integer
  coordinates with respect to the original columns, and each exchange moves
  them with it. The run carries them sparsely, below the basis rows: a row
  only for an input column that has been in the basis, so at most ``rank +
  exchanges`` rows, made when the column first enters.
  The run itself is that of ``basic_basis``, trace included, solved
  as in ``inverse_variant_basis``, on the pool's solution matrix or the
  cached adjugate by the rule of ``_Run.fifo_solver``; both read only the
  pivot rows, so the carried rows need nothing. At the end
  the carried rows, each at its input column and zero elsewhere, are an
  integral ``U`` with ``A @ U = basis``; feasibility then reduces to whether
  ``basis`` divides ``b`` evenly, which one call of the same solver's
  ``solve`` settles (the solution matrix holds the pool alone, so its
  ``solve`` is one more elimination), and a witness is ``U @ (basis**-1 b)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatchError, InvariantViolationError, SpanMismatchError
from .exact import Matrix, _check_square, _integer_multiple
from .euclid import ExchangeRecord, _split, _unit


def lattice_determinant(b_mat: Matrix) -> int:
    """Exact signed determinant via exchange-factor accumulation.

    Singular input returns 0 (the column split finds a rank below ``n``).
    The column split eliminates ``B`` once; the FIFO steps solve on the
    adjugate, the unit vectors' solution matrix, and the run's elimination
    of the unimodular end basis checks its sign. The value is checked
    against the split's determinant.
    """
    value, _ = determinant_with_trace(b_mat)
    return value


def determinant_with_trace(b_mat: Matrix) -> tuple[int, tuple[ExchangeRecord, ...]]:
    """Like :func:`lattice_determinant` but also returns the exchange trace.

    The trace is that of :func:`lattice_euclid.variants.inverse_variant_basis`
    on ``(B | I)``: each record holds the determinant after its exchange, as
    the run knew it then. Singular input returns ``(0, ())``.
    """
    n = _check_square(b_mat, "determinant")
    run = _split(b_mat)
    if len(run.pivot_rows) < n:
        return 0, ()
    run.pool, run.echelon = [_unit(k, n) for k in range(n)], None
    run.fifo(run.fifo_solver()[1])
    run.eliminate(())  # the end basis, checked against the tracked determinant
    if abs(run.det) != 1:
        raise InvariantViolationError("exchange run did not end on a unimodular basis")
    if Fraction(run.det) / math.prod(rec.factor for rec in run.trace) != run.det0:
        raise InvariantViolationError("accumulated residues disagree with the determinant")
    return run.det0, tuple(run.trace)


def diophantine_solve(
    a_mat: Matrix, rhs: Sequence[int], *, check_invariants: bool = False
) -> Optional[tuple[int, ...]]:
    """Some integral ``x`` with ``a_mat @ x == rhs``, or None if none exists.

    Raises SpanMismatchError when ``rhs`` is not even in the *rational*
    column span; a None return means the rational solution exists but is
    fractional, i.e. the system is integrally infeasible.
    """
    solution, _, _ = diophantine_run(a_mat, rhs, check_invariants=check_invariants)
    return solution


def diophantine_run(
    a_mat: Matrix, rhs: Sequence[int], *, check_invariants: bool = False
) -> tuple[Optional[tuple[int, ...]], Matrix, tuple[ExchangeRecord, ...]]:
    """Full Diophantine run: witness (or None), transform ``U``, exchange trace.

    ``U`` is the m-by-rank integer matrix with ``a_mat @ U == basis`` for the
    final basis of the run; with ``check_invariants`` that identity is
    re-verified after every exchange, each FIFO solve on the cached solver
    against a fresh elimination, and the closing solve by its residual.
    The trace is that of
    :func:`lattice_euclid.euclid.basic_basis` on ``a_mat``; a SpanMismatchError carries it as ``trace``.
    """
    if len(rhs) != a_mat.rows:
        raise DimensionMismatchError(f"right-hand side of length {len(rhs)} against {a_mat.rows} rows")
    mu, vec = _integer_multiple(rhs)  # TypeError before the run on entries not int or Fraction
    run = _split(a_mat, coordinates=True)
    solve, tracked = run.fifo_solver()

    def check(i, j, w, d):
        if a_mat.mat_vec([r[i] for r in run.coordinates(a_mat.cols)]) != run.basis.column(i):
            raise InvariantViolationError("coordinate tracking drifted from the basis")

    def checked(j):
        num = tracked(j)
        if run.solve((run.pool[j],)) != [num]:
            raise InvariantViolationError("tracked FIFO solve disagrees with a fresh elimination")
        return num

    if check_invariants:
        run.on_exchange.append(check)
    run.fifo(checked if check_invariants else tracked)
    coords = run.coordinates(a_mat.cols)  # U, m rows: A @ U == basis
    transform = Matrix._trusted(tuple(zip(*coords)), a_mat.cols)
    if check_invariants and (a_mat @ transform) != run.basis:
        raise InvariantViolationError("transform does not reproduce the basis")
    try:
        num = solve(vec)
    except SpanMismatchError as exc:  # outside the rational span: the run's exchanges still happened
        exc.trace = tuple(run.trace)
        raise
    if check_invariants and run.basis.mat_vec(num) != tuple(run.det * e for e in vec):
        raise InvariantViolationError("closing solve does not reproduce the right-hand side")
    d = run.det * mu  # x == num / d
    if any(e % d for e in num):
        return None, transform, tuple(run.trace)
    y = [e // d for e in num]
    return tuple(sum(map(mul, r, y)) for r in coords), transform, tuple(run.trace)
