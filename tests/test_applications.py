import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from lattice_euclid import (
    DimensionMismatchError,
    ExchangeRecord,
    Matrix,
    SpanMismatchError,
    bareiss_det,
    determinant_with_trace,
    diophantine_run,
    diophantine_solve,
    lattice_determinant,
    member,
)
from lattice_euclid import applications, euclid

from _oracles import random_int_matrix, random_system, reference_run
from test_reference import _diophantine_equals_the_reference, _systems


# --- determinant mode --------------------------------------------------------


def test_determinant_examples():
    assert lattice_determinant(Matrix.from_rows([[2, 0], [0, 2]])) == 4
    assert lattice_determinant(Matrix.from_rows([[2, 1], [1, 3]])) == 5
    assert lattice_determinant(Matrix.from_rows([[1, 2], [2, 4]])) == 0


def test_determinant_sign_and_edges():
    assert lattice_determinant(Matrix.from_rows([[0, 1], [1, 0]])) == -1
    assert lattice_determinant(Matrix.from_rows([[-7]])) == -7
    assert lattice_determinant(Matrix((), rows=0)) == 1
    with pytest.raises(DimensionMismatchError):
        lattice_determinant(Matrix.from_rows([[1, 2]]))


def test_determinant_trace_reconstructs_running_values():
    value, trace = determinant_with_trace(Matrix.from_rows([[2, 1], [1, 3]]))
    assert value == 5
    assert trace  # at least one exchange happened
    running = value
    for rec in trace:
        running_frac = rec.factor * running
        assert running_frac.denominator == 1
        running = int(running_frac)
        assert rec.det_after == running
    assert abs(running) == 1  # ends unimodular


def test_determinant_agrees_with_elimination():
    rng = random.Random(1001)
    for _ in range(80):
        n = rng.randint(1, 7)
        b = random_int_matrix(rng, n, n, 10)
        assert lattice_determinant(b) == bareiss_det(b)


def test_determinant_forced_singular():
    rng = random.Random(1002)
    for _ in range(10):
        n = rng.randint(2, 6)
        b = random_int_matrix(rng, n, n, 10)
        b = b.with_column(n - 1, b.column(0))  # duplicate column
        assert lattice_determinant(b) == 0


# --- Diophantine mode ----------------------------------------------------------


def test_diophantine_gcd_feasible():
    a = Matrix.from_rows([[12, 18]])
    x = diophantine_solve(a, (6,))
    assert x is not None
    assert a.mat_vec(x) == (6,)


def test_diophantine_run_types_its_right_hand_side_before_the_run(monkeypatch):
    splits = []

    def split(*args, **kwargs):
        splits.append(args)
        return euclid._split(*args, **kwargs)

    monkeypatch.setattr(applications, "_split", split)
    a_mat = Matrix.from_rows([[12, 18]])
    for rhs in ((6.0,), (True,)):
        with pytest.raises(TypeError):
            diophantine_run(a_mat, rhs)
    with pytest.raises(TypeError):  # the right-hand side first, then the matrix's ValueError
        diophantine_run(Matrix.from_rows([[Fraction(1, 2)]]), (1.0,))
    assert splits == []
    assert diophantine_solve(a_mat, (6,)) == (2, -1)
    assert len(splits) == 1


def test_diophantine_gcd_infeasible():
    assert diophantine_solve(Matrix.from_rows([[12, 18]]), (7,)) is None


def test_diophantine_identity():
    assert diophantine_solve(Matrix.identity(2), (4, -9)) == (4, -9)


def test_diophantine_span_mismatch_is_an_error():
    a = Matrix.from_rows([[1], [0]])
    with pytest.raises(SpanMismatchError):
        diophantine_solve(a, (0, 1))
    assert diophantine_solve(a, (5, 0)) == (5,)
    with pytest.raises(DimensionMismatchError):
        diophantine_solve(a, (5,))


def test_diophantine_span_mismatch_carries_the_run_trace():
    # the run's exchanges happen before the right-hand side is solved, so a
    # right-hand side outside the span still has a trace: that of (5, 0)
    a = Matrix.from_rows([[12, 18], [0, 0]])
    solution, _, trace = diophantine_run(a, (5, 0))
    assert solution is None and len(trace) == 1
    with pytest.raises(SpanMismatchError) as info:
        diophantine_run(a, (6, 1))
    assert info.value.trace == trace
    with pytest.raises(SpanMismatchError):
        diophantine_solve(a, (6, 1))


def test_diophantine_rational_right_hand_side():
    # a fractional right-hand side has a rational solution but no integral one
    assert diophantine_solve(Matrix.from_rows([[2]]), (Fraction(1, 2),)) is None
    a = Matrix.from_rows([[12, 18], [0, 0]])
    assert diophantine_solve(a, (Fraction(7, 3), 0)) is None
    x = diophantine_solve(a, (Fraction(12, 2), 0))
    assert x is not None and a.mat_vec(x) == (6, 0)
    with pytest.raises(SpanMismatchError):
        diophantine_solve(a, (6, Fraction(1, 3)))
    with pytest.raises(TypeError):
        diophantine_solve(Matrix.from_rows([[2]]), (1.0,))


def test_diophantine_all_zero_system():
    a = Matrix.from_rows([[0, 0], [0, 0]])
    assert diophantine_solve(a, (0, 0)) == (0, 0)
    with pytest.raises(SpanMismatchError):
        diophantine_solve(a, (1, 0))


def test_diophantine_matrix_without_columns():
    # n x 0: only the zero vector is in the span, and its witness is empty
    for n in (0, 1, 5):
        a = Matrix((), rows=n)
        for check in (False, True):
            assert diophantine_solve(a, (0,) * n, check_invariants=check) == ()
            if n:
                with pytest.raises(SpanMismatchError):
                    diophantine_solve(a, (0,) * (n - 1) + (3,), check_invariants=check)


def test_diophantine_zero_columns_carry_no_coordinates():
    # the run carries coordinates only for the columns it keeps, so a header-only
    # file such as "0 1048576" costs memory linear in m, not m**2 (134 MB at
    # m = 4096 when every column carried a unit vector)
    m = 4096
    sparse = Matrix(((6,), (10,)) + ((0,),) * (m - 2), rows=1)
    cases = [(Matrix(((),) * m, rows=0), (), (0,) * m), (sparse, (2,), (2, -1) + (0,) * (m - 2))]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for a, rhs, witness in cases:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert diophantine_solve(a, rhs) == witness
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < 4 * 10**6, (a.rows, peak)
    finally:
        if started:
            tracemalloc.stop()


def test_diophantine_carry_memory_is_linear_in_m():
    # a 1 x 2000 row without zero columns: each pooled column carries its index,
    # and a coordinate row exists only for a column that has been in the
    # basis (a carry of all m coordinates under every vector peaked at 32 MB)
    rng = random.Random(1)
    a = Matrix.from_rows([[rng.randint(1, 1000) for _ in range(2000)]])
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        x = diophantine_solve(a, (1,))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert a.mat_vec(x) == (1,)
    assert peak < 4 * 10**6, peak


def test_diophantine_carry_holds_at_most_rank_plus_exchanges_rows(monkeypatch):
    # a coordinate row is made only when its input column first enters the
    # basis: the rank chosen columns, then one per input column the reference brings in
    runs = []
    original = applications._split

    def capture(a_mat, coordinates=False):
        run = original(a_mat, coordinates)
        rank = len(run.pivot_rows)

        def bounded(i, j, w, d):
            assert len(run.rows) - run.dim == len(run.carried) <= rank + len(run.trace)

        run.on_exchange.append(bounded)
        runs.append(run)
        return run

    monkeypatch.setattr(applications, "_split", capture)
    rng = random.Random(4007)
    cases = [random_system(rng) for _ in range(60)] + [(random_int_matrix(rng, 2, 40, 50), (1, 1)) for _ in range(4)]
    skipped = 0
    for a, rhs in cases:
        try:
            diophantine_run(a, rhs)
        except SpanMismatchError:
            pass
        run, ref = runs.pop(), reference_run(a, "fifo")
        assert len(run.carried) == len(ref.basis) + sum(k is not None for k in ref.entered)
        skipped += len(run.carried) < sum(map(any, a.columns))
    assert skipped


def test_diophantine_constructed_feasible_instances():
    rng = random.Random(2002)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(n, n + 4)
        a = random_int_matrix(rng, n, m, 12)
        hidden = tuple(rng.randint(-6, 6) for _ in range(m))
        rhs = a.mat_vec(hidden)
        x = diophantine_solve(a, rhs, check_invariants=True)
        assert x is not None
        assert a.mat_vec(x) == rhs


def test_diophantine_one_dimensional_divisibility():
    rng = random.Random(3003)
    for _ in range(60):
        m = rng.randint(1, 6)
        entries = [rng.randint(-30, 30) for _ in range(m)]
        if not any(entries):
            continue
        a = Matrix.from_rows([entries])
        target = rng.randint(-60, 60)
        x = diophantine_solve(a, (target,))
        g = math.gcd(*entries)
        if target % g == 0:
            assert x is not None and a.mat_vec(x) == (target,)
        else:
            assert x is None


def test_diophantine_rank_deficient_system():
    # rows are dependent: row1 = 2 * row0
    a = Matrix.from_rows([[2, 3, 5], [4, 6, 10]])
    x = diophantine_solve(a, (7, 14))
    assert x is not None
    assert a.mat_vec(x) == (7, 14)
    with pytest.raises(SpanMismatchError):
        diophantine_solve(a, (7, 13))


def test_diophantine_run_builds_matrices_only_at_the_edges(monkeypatch):
    # the coordinates U ride the run's rows: no exchange builds a Matrix or
    # takes a matrix-vector product, and with_column is never called
    rng = random.Random(4005)
    cases = [random_int_matrix(rng, n, n + 4, 50) for n in (2, 4, 6)]
    cases = [(a, a.mat_vec(range(a.cols))) for a in cases]
    calls = Counter()
    for name in ("__init__", "mat_vec", "with_column"):

        def counting(*args, _name=name, _original=getattr(Matrix, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(Matrix, name, counting)
    seen = {}
    for a, rhs in cases:
        calls.clear()
        _, _, trace = diophantine_run(a, rhs)
        seen[len(trace)] = dict(calls)
    assert len(seen) == len(cases)  # runs of different lengths...
    assert len({tuple(sorted(c.items())) for c in seen.values()}) == 1  # ...build alike
    assert "with_column" not in next(iter(seen.values()))


def test_diophantine_transform_tracks_basis():
    # the run with coordinates tagged along is the plain FIFO reference run:
    # A @ U is its basis and the traces are equal
    rng = random.Random(4004)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rng.randint(n, n + 3)
        a = random_int_matrix(rng, n, m, 10)
        rhs = a.mat_vec(tuple(rng.randint(-5, 5) for _ in range(m)))
        solution, transform, trace = diophantine_run(a, rhs, check_invariants=True)
        assert solution is not None
        ref = reference_run(a, "fifo")
        assert trace == tuple(ExchangeRecord(*rec) for rec in ref.trace)
        assert a @ transform == Matrix(ref.basis, rows=n)
        for rec in trace:
            assert 0 < abs(rec.factor) <= 1


@settings(max_examples=200, deadline=None)
@given(_systems())
@example((Matrix.from_rows([[6, 10, 15]]), (1,)))
@example((Matrix.from_rows([[12, 18]]), (5,)))
def test_diophantine_run_is_the_fifo_run_and_solves(system):
    # the witness, None or SpanMismatchError, U and trace are the reference's
    # with checks on and off, and member agrees with the outcome
    a, rhs = system
    want, _ = _diophantine_equals_the_reference(a, rhs, (False, True))
    assert member(a, rhs) == (want[0] not in ("span", None))
