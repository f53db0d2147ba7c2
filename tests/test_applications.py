import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_euclid import (
    DimensionMismatchError,
    Matrix,
    SpanMismatchError,
    bareiss_det,
    basic_basis,
    determinant_with_trace,
    diophantine_run,
    diophantine_solve,
    inverse_variant_basis,
    lattice_determinant,
    member,
)
from lattice_euclid import applications, euclid

from _oracles import random_int_matrix


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


@st.composite
def _squares(draw):
    """A square integer matrix, ``n <= 6``, about a third of them singular."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.integers(0, 2)) == 0:
        r = draw(st.integers(0, n - 1))
        left = [draw(st.lists(st.integers(-5, 5), min_size=r, max_size=r)) for _ in range(n)]
        rows = [[sum(map(mul, row, col)) for col in zip(*rows[:r])] if r else [0] * n for row in left]
    return Matrix.from_rows(rows)


@settings(max_examples=200, deadline=None)
@given(_squares())
def test_determinant_mode_is_the_inverse_run_on_b_beside_the_identity(b):
    n = b.rows
    value, trace = determinant_with_trace(b)
    det = bareiss_det(b)
    if det == 0:
        assert (value, trace) == (0, ())
        return
    stacked = Matrix(b.columns + Matrix.identity(n).columns, rows=n)
    inverse = inverse_variant_basis(stacked)
    assert (value, trace) == (det, inverse.trace)
    assert inverse.trace == basic_basis(stacked).trace


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


def _rational_solve(cols, v):
    """``x`` with ``sum(x[k] * cols[k]) == v`` for independent ``cols``, as Fractions, or None off their span."""
    r = len(cols)
    rows = [[Fraction(c[t]) for c in cols] + [Fraction(v[t])] for t in range(len(v))]
    for c in range(r):
        p = next(t for t in range(c, len(rows)) if rows[t][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [e / rows[c][c] for e in rows[c]]
        for t, row in enumerate(rows):
            if t != c and row[c]:
                rows[t] = [e - row[c] * g for e, g in zip(row, rows[c])]
    if any(row[r] for row in rows[r:]):
        return None
    return [rows[k][r] for k in range(r)]


def _dense_replay(a, trace):
    """Replay a Diophantine ``trace`` FIFO on ``a`` stacked over ``I_m``: every vector carries all m coordinates.

    Returns the final basis columns (n entries, then m coordinates) and, for
    each exchange, the input column that entered, or None for a former basis column.
    """
    n, m = a.rows, a.cols
    columns = [tuple(a.column(j)) + tuple(int(k == j) for k in range(m)) for j in range(m)]
    basis, pool = [], []
    for j, col in enumerate(columns):
        if any(col[:n]):
            if _rational_solve([b[:n] for b in basis], col[:n]) is None:
                basis.append(col)
            else:
                pool.append((col, j))
    entered = []
    for rec in trace:
        while True:  # FIFO: integral solutions are discarded
            vec, origin = pool.pop(0)
            x = _rational_solve([b[:n] for b in basis], vec[:n])
            if any(e.denominator != 1 for e in x):
                break
        i = rec.pivot_row
        rounded = [math.floor(e) for e in x]
        rounded[i] = math.floor(x[i] + Fraction(1, 2))
        assert (rec.column, rec.factor) == (0, x[i] - rounded[i])
        pool.append((basis[i], None))
        basis[i] = tuple(v - sum(map(mul, rounded, (b[t] for b in basis))) for t, v in enumerate(vec))
        entered.append(origin)
    return basis, entered


def _carry_case(rng):
    """A small random Diophantine input: rank-deficient in a third of cases, with zero columns in another third."""
    n, m = rng.randint(1, 4), rng.randint(1, 7)
    a = random_int_matrix(rng, n, m, 9)
    kind = rng.randrange(3)
    if kind == 1 and n > 1:  # the last row a combination of the others
        rows = a.to_rows()
        a = Matrix.from_rows(rows[:-1] + [[2 * x - y for x, y in zip(rows[0], rows[-2])]])
    elif kind == 2:
        zero = set(rng.sample(range(m), rng.randint(1, m)))
        a = Matrix.from_rows([[0 if j in zero else e for j, e in enumerate(r)] for r in a.to_rows()])
    if rng.randrange(2):
        rhs = a.mat_vec([rng.randint(-4, 4) for _ in range(m)])
    else:
        rhs = tuple(rng.randint(-9, 9) for _ in range(n))
    return a, rhs


def test_diophantine_run_matches_a_dense_replay_of_its_trace():
    # the sparse carry against a replay in which every vector carries all m
    # coordinates: same witness (or span error), U and trace
    rng = random.Random(4006)
    mid_run = reentered = 0
    seen = Counter()
    for case in range(320):
        a, rhs = _carry_case(rng)
        try:
            witness, transform, trace = diophantine_run(a, rhs, check_invariants=case % 2 == 0)
        except SpanMismatchError as exc:
            witness, transform, trace = "span", None, exc.trace
        basis, entered = _dense_replay(a, trace)
        n = a.rows
        y = _rational_solve([b[:n] for b in basis], rhs)
        if y is None:
            assert witness == "span"
        else:
            assert (transform.rows, transform.cols) == (a.cols, len(basis))
            assert transform.columns == tuple(b[n:] for b in basis)
            if all(e.denominator == 1 for e in y):
                assert witness == tuple(sum(map(mul, y, (b[n + k] for b in basis))) for k in range(a.cols))
            else:
                assert witness is None
        mid_run += any(k is not None for k in entered[1:])  # a coordinate row made after the first exchange
        reentered += None in entered
        seen["deficient"] += len(basis) < min(a.rows, sum(map(any, a.columns)))
        seen["zero columns"] += not all(map(any, a.columns))
        seen[witness if witness in ("span", None) else "feasible"] += 1
    assert mid_run and reentered
    assert len(seen) == 5, seen


def test_diophantine_carry_holds_at_most_rank_plus_exchanges_rows(monkeypatch):
    # a coordinate row is made only when its input column first enters the
    # basis: the rank chosen columns, then one per pooled column that enters
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
    cases = [_carry_case(rng) for _ in range(60)] + [(random_int_matrix(rng, 2, 40, 50), (1, 1)) for _ in range(4)]
    skipped = 0
    for a, rhs in cases:
        try:
            diophantine_run(a, rhs)
        except SpanMismatchError:
            pass
        run = runs.pop()
        basis, entered = _dense_replay(a, run.trace)
        assert len(run.carried) == len(basis) + sum(k is not None for k in entered)
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
    rng = random.Random(4004)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rng.randint(n, n + 3)
        a = random_int_matrix(rng, n, m, 10)
        rhs = a.mat_vec(tuple(rng.randint(-5, 5) for _ in range(m)))
        solution, transform, trace = diophantine_run(a, rhs, check_invariants=True)
        assert solution is not None
        # the Diophantine run is the basic run with coordinates tagged along
        basic = basic_basis(a)
        assert trace == basic.trace
        assert a @ transform == basic.basis
        for rec in trace:
            assert 0 < abs(rec.factor) <= 1


@st.composite
def _systems(draw):
    """``(A, rhs)`` with ``A`` at most 5x9, about a third of them rank-deficient.

    ``rhs`` is either an image of ``A`` before it is scaled by 1, 2 or 3 (so
    often infeasible once scaled), or free (so often outside the span).
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 9))
    entries = st.lists(st.integers(-9, 9), min_size=m, max_size=m)
    if draw(st.integers(0, 2)) == 0:
        r = draw(st.integers(0, n - 1))
        left = [[draw(st.integers(-9, 9)) for _ in range(r)] for _ in range(n)]
        right = [draw(entries) for _ in range(r)]
        rows = [[sum(row[k] * right[k][j] for k in range(r)) for j in range(m)] for row in left]
    else:
        rows = [draw(entries) for _ in range(n)]
    scale = draw(st.sampled_from((1, 1, 2, 3)))
    a = Matrix(tuple(tuple(scale * e for e in col) for col in zip(*rows)), rows=n)
    if draw(st.booleans()):
        hidden = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
        rhs = tuple(sum(map(mul, row, hidden)) for row in rows)
    else:
        rhs = tuple(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
    return a, rhs


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_diophantine_run_is_the_fifo_run_and_solves(system):
    a, rhs = system
    basic = basic_basis(a)
    assert inverse_variant_basis(a).trace == basic.trace
    outcomes = []
    for check in (False, True):
        try:
            outcomes.append(diophantine_run(a, rhs, check_invariants=check))
        except SpanMismatchError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]  # the checks change no output
    if outcomes[0] is None:
        assert not member(a, rhs)
        return
    solution, transform, trace = outcomes[0]
    assert trace == basic.trace
    assert a @ transform == basic.basis
    if solution is None:
        assert not member(a, rhs)
    else:
        assert a.mat_vec(solution) == rhs
