"""Fault injection: each internal check raises when its invariant is broken.

On correct code these checks never fire, so no other test reaches them. Each
test here breaks one invariant on purpose (a monkeypatched helper, an
inflated solution, a corrupted coordinate) and requires the check's own
error, an InvariantViolationError or a SpanMismatchError; ``tests/mutants.py``
confirms that each test fails once its check is gone.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from lattice_euclid import (
    EuclidState,
    Matrix,
    determinant_with_trace,
    diophantine_run,
    exchange_step,
    rowwise_variant_basis,
    solution_variant_basis,
)
from lattice_euclid import applications, euclid
from lattice_euclid.errors import InvariantViolationError, SpanMismatchError

WORKED = Matrix.from_rows([[2, 0, 1], [0, 3, 1]])  # det 6; row 0 of X is (1/2), its first pivot


def _row_major_on_the_adjugate(a, column):
    """The row-wise driver's walk on ``a``, its column solves passed through ``column``."""
    run = euclid._split(a)
    _, row, solve = run.adjugate()
    run.row_major(row, lambda j: column(run, solve(j)))
    return run


def test_row_major_enforces_the_per_step_growth_cap():
    # off-pivot numerators inflated by 10 * det floor to 10 more, so the new
    # column subtracts 10 more copies of B_1 and grows from 2 to 29: past the
    # cap 2 + (n - 1) * 3, within coefficient_bound(2, 3) == 36. The pivot
    # entry still matches the row.
    def inflated(run, num):
        return [num[0]] + [e + 10 * run.det for e in num[1:]]

    _row_major_on_the_adjugate(WORKED, lambda run, num: num)
    with pytest.raises(InvariantViolationError, match="per-step coefficient growth"):
        _row_major_on_the_adjugate(WORKED, inflated)


def test_row_major_enforces_the_coefficient_bound(monkeypatch):
    monkeypatch.setattr(euclid, "coefficient_bound", lambda n_rows, max_entry: 0)
    with pytest.raises(InvariantViolationError, match="exceeds the coefficient bound"):
        rowwise_variant_basis(WORKED)
    with pytest.raises(InvariantViolationError, match="exceeds the coefficient bound"):
        solution_variant_basis(WORKED)


def _corrupt_last_pool_solve(monkeypatch, corrupt):
    """Make ``_Run.solve`` return ``corrupt(run, columns)``.

    A row-major driver calls it once, for its closing re-solve of the pool.
    """
    original = euclid._Run.solve
    monkeypatch.setattr(euclid._Run, "solve", lambda run, vecs: corrupt(run, original(run, vecs)))


def test_solution_driver_checks_its_solution_matrix(monkeypatch):
    # the solution driver reads X off the column split, then re-solves the
    # pool to check it: a different X there must raise
    solution_variant_basis(WORKED, check_invariants=True)
    _corrupt_last_pool_solve(monkeypatch, lambda run, columns: [[e + run.det for e in c] for c in columns])
    with pytest.raises(InvariantViolationError, match="disagrees with a fresh elimination"):
        solution_variant_basis(WORKED, check_invariants=True)


def test_solution_driver_checks_the_split_determinant(monkeypatch):
    # X is read off the split's elimination, over its determinant; a split
    # that claims twice the determinant still divides exactly, so only the
    # elimination of the pivot-row block can refute it
    original = euclid._bareiss

    def doubled(a, width):
        pivot_rows, cols, det, frontier = original(a, width)
        return pivot_rows, cols, 2 * det, frontier

    solution_variant_basis(WORKED)
    monkeypatch.setattr(euclid, "_bareiss", doubled)
    with pytest.raises(InvariantViolationError, match="elimination disagrees with the tracked determinant"):
        solution_variant_basis(WORKED)


# rank 2: row 2 is the sum of rows 0 and 1, so the pivot rows miss it
DEFICIENT = Matrix.from_rows([[2, 0, 1], [0, 3, 1], [2, 3, 2]])


def test_solution_driver_checks_its_solution_matrix_off_the_pivot_rows(monkeypatch):
    # the back-substitution reads the pivot rows only; det * X shifted by det
    # in every entry leaves the span on row 2
    solution_variant_basis(DEFICIENT)
    original = euclid._back_substitute
    monkeypatch.setattr(euclid, "_back_substitute", lambda *args: [[e + args[-1] for e in r] for r in original(*args)])
    with pytest.raises(SpanMismatchError, match="at row 2"):
        solution_variant_basis(DEFICIENT)


def test_rowwise_driver_checks_the_pool_is_integral_at_exit(monkeypatch):
    # the run ends on |det| == 1, so the corrupt solve doubles the determinant
    # and adds 1/2 to every entry
    rowwise_variant_basis(WORKED, check_invariants=True)

    def halves(run, columns):
        run.det *= 2
        return [[2 * e + 1 for e in c] for c in columns]

    _corrupt_last_pool_solve(monkeypatch, halves)
    with pytest.raises(InvariantViolationError, match="left fractional at exit"):
        rowwise_variant_basis(WORKED, check_invariants=True)


def _corrupt_determinant_run(monkeypatch, corrupt):
    """Make determinant mode's FIFO run end with ``corrupt(run)``."""
    original = euclid._Run.fifo

    def fifo(run, solve):
        original(run, solve)
        corrupt(run)

    monkeypatch.setattr(euclid._Run, "fifo", fifo)


SQUARE = Matrix.from_rows([[0, -9], [-6, -6]])  # det -54, three exchanges


def test_determinant_mode_checks_the_end_basis_is_unimodular(monkeypatch):
    # a run that makes no exchange keeps det0 == -54: its end basis is B,
    # which the end elimination confirms, and only the unimodular check refutes
    assert determinant_with_trace(SQUARE)[0] == -54
    monkeypatch.setattr(euclid._Run, "fifo", lambda run, solve: None)
    with pytest.raises(InvariantViolationError, match="unimodular"):
        determinant_with_trace(SQUARE)


def test_determinant_mode_checks_the_factors_against_the_split(monkeypatch):
    # one factor negated gives -det(B) from the factors, which the split's
    # determinant refutes; the end basis is untouched
    def negate_first_factor(run):
        run.trace[0] = replace(run.trace[0], factor=-run.trace[0].factor)

    _corrupt_determinant_run(monkeypatch, negate_first_factor)
    with pytest.raises(InvariantViolationError, match="disagree with the determinant"):
        determinant_with_trace(SQUARE)


def test_determinant_mode_checks_the_end_basis_against_the_tracked_determinant(monkeypatch):
    # the tracked determinant negated with the last factor and det_after: still
    # unimodular, and the factors still give det(B), so only the end basis's
    # elimination can refute the sign
    def negate_last_exchange(run):
        last = run.trace[-1]
        run.trace[-1] = replace(last, factor=-last.factor, det_after=-last.det_after)
        run.det = -run.det

    _corrupt_determinant_run(monkeypatch, negate_last_exchange)
    with pytest.raises(InvariantViolationError, match="elimination disagrees with the tracked determinant"):
        determinant_with_trace(SQUARE)


def test_exchange_step_checks_the_solution_against_the_determinant():
    # x == (1/2, 1/3) solves B x == (1, 1) over det 6; a state claiming det 5
    # or 0 (or an x over 12) cannot be numerators over the determinant
    basis = Matrix.from_rows([[2, 0], [0, 3]])
    x = (Fraction(1, 2), Fraction(1, 3))
    assert exchange_step(EuclidState(basis, ((1, 1),), (0, 1), 6), (1, 1), x, 1).det == 2
    for det in (5, 0):
        with pytest.raises(InvariantViolationError, match="do not divide the determinant"):
            exchange_step(EuclidState(basis, ((1, 1),), (0, 1), det), (1, 1), x, 1)
    with pytest.raises(InvariantViolationError, match="do not divide the determinant"):
        exchange_step(EuclidState(basis, ((1, 1),), (0, 1), 6), (1, 1), (Fraction(1, 4), Fraction(1, 3)), 1)


def _corrupt_coordinate(monkeypatch, column):
    """Make the Diophantine run's split add 1 to basis ``column``'s carried coordinate of input column 0."""
    original = applications._split

    def wrapped(a_mat, coordinates=False):
        run = original(a_mat, coordinates)
        run.rows[run.carried[0]][column] += 1
        return run

    monkeypatch.setattr(applications, "_split", wrapped)


# basis (1, 0), (0, 2) and pool (0, 1): one exchange, on column 1, rounds
# nothing onto column 0, so only column 1's coordinates reach an exchange
UNTOUCHED = Matrix.from_rows([[1, 0, 0], [0, 2, 1]])


def test_diophantine_run_checks_coordinates_after_each_exchange(monkeypatch):
    assert diophantine_run(UNTOUCHED, (1, 1), check_invariants=True)[2]
    _corrupt_coordinate(monkeypatch, 1)
    diophantine_run(UNTOUCHED, (1, 1))
    with pytest.raises(InvariantViolationError, match="coordinate tracking drifted"):
        diophantine_run(UNTOUCHED, (1, 1), check_invariants=True)


def test_diophantine_run_checks_the_transform_at_the_end(monkeypatch):
    # a column no exchange reads keeps its corrupt coordinates to the end
    _corrupt_coordinate(monkeypatch, 0)
    with pytest.raises(InvariantViolationError, match="transform does not reproduce the basis"):
        diophantine_run(UNTOUCHED, (1, 1), check_invariants=True)


def _skew_fresh_solves(monkeypatch):
    """Make every solve from scratch, ``_Run.solve``, add 1 to each numerator."""
    original = euclid._Run.solve
    monkeypatch.setattr(euclid._Run, "solve", lambda run, vecs: [[e + 1 for e in num] for num in original(run, vecs)])


# each split is unimodular, so no FIFO step solves and the closing solve alone
# reads the tracker: a pool of one against rank 1 runs on the pool's solution
# matrix, whose closing solve is _Run.solve, and a pool of two on the adjugate


def test_diophantine_run_checks_the_closing_solve_on_the_solution_matrix(monkeypatch):
    a = Matrix.from_rows([[1, 2]])
    _skew_fresh_solves(monkeypatch)
    diophantine_run(a, (5,))
    with pytest.raises(InvariantViolationError, match="closing solve does not reproduce the right-hand side"):
        diophantine_run(a, (5,), check_invariants=True)


def test_diophantine_run_checks_the_closing_solve_on_the_adjugate(monkeypatch):
    a = Matrix.from_rows([[1, 2, 3]])
    original = euclid._Run.adjugate

    def skewed(run):
        solve, row, column = original(run)
        return (lambda vec, pending=False: [e + 1 for e in solve(vec, pending)]), row, column

    monkeypatch.setattr(euclid._Run, "adjugate", skewed)
    diophantine_run(a, (5,))
    with pytest.raises(InvariantViolationError, match="closing solve does not reproduce the right-hand side"):
        diophantine_run(a, (5,), check_invariants=True)


def test_diophantine_run_checks_each_tracked_fifo_solve_against_an_elimination(monkeypatch):
    # UNTOUCHED's pool of one runs on its solution matrix, whose closing
    # solve is itself a fresh elimination; [6, 10, 15]'s pool of two runs on
    # the adjugate. Each run's first FIFO step reads its tracker.
    _skew_fresh_solves(monkeypatch)
    for a, rhs in ((UNTOUCHED, (1, 1)), (Matrix.from_rows([[6, 10, 15]]), (1,))):
        diophantine_run(a, rhs)
        with pytest.raises(InvariantViolationError, match="tracked FIFO solve disagrees"):
            diophantine_run(a, rhs, check_invariants=True)
