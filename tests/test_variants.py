import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_euclid import (
    InstanceParams,
    IntegralPivotError,
    Matrix,
    basic_basis,
    basis_transform,
    coefficient_bound,
    find_independent_columns,
    frac_part,
    hnf,
    invert,
    inverse_variant_basis,
    lattice_equal,
    diophantine_run,
    mod_prime,
    random_instance,
    rowwise_variant_basis,
    solution_update,
    solution_variant_basis,
    solve_row,
    solve_system,
    y_update,
)

from lattice_euclid import euclid, variants
from lattice_euclid.errors import DimensionMismatchError
from lattice_euclid.euclid import _split, _weights
from lattice_euclid.exact import _back_substitute, _exchange_update

from _oracles import is_integral, random_int_matrix, random_nonsingular, round_half_up

WORKED = Matrix.from_rows([[2, 0, 1], [0, 3, 1]])  # initial det 6, ends unimodular


# --- inverse variant ---------------------------------------------------------


def test_inverse_variant_matches_basic_on_gcd():
    a = Matrix.from_rows([[12, 18]])
    left, right = basic_basis(a), inverse_variant_basis(a)
    assert left.basis == right.basis
    assert left.trace == right.trace
    assert left.det_trajectory == right.det_trajectory
    assert (left.exchanges, left.discards) == (right.exchanges, right.discards)


def test_inverse_variant_merges_to_unit_lattice():
    res = inverse_variant_basis(WORKED)
    assert abs(res.det_trajectory[-1]) == 1
    assert lattice_equal(res.basis, Matrix.identity(2))


def test_inverse_variant_early_exit_discards_in_bulk():
    # det is already 1: duplicates never get solved, only dropped
    a = Matrix.from_rows([[1, 0, 0, 1, 0], [0, 1, 0, 0, 1], [0, 0, 1, 0, 0]])
    res = inverse_variant_basis(a)
    assert res.basis == Matrix.identity(3)
    assert res.exchanges == 0 and res.discards == 2
    assert res.det_trajectory == (1,)


def test_inverse_variant_stops_exchanging_once_unimodular():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = random_int_matrix(rng, n, rng.randint(n, n + 4), 15)
        res = inverse_variant_basis(a)
        unimodular_seen = False
        for rec in res.trace:
            assert not unimodular_seen  # no exchange after |det| hits 1
            if abs(rec.det_after) == 1:
                unimodular_seen = True


def test_inverse_variant_identical_to_basic_random():
    # each pair runs one pivot order with two different solvers
    pairs = (
        (basic_basis, inverse_variant_basis),
        (solution_variant_basis, rowwise_variant_basis),
    )
    rng = random.Random(88)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = random_int_matrix(rng, n, rng.randint(n, n + 4), 15)
        for first, second in pairs:
            left, right = first(a), second(a)
            assert left.basis == right.basis
            assert left.trace == right.trace
            assert left.det_trajectory == right.det_trajectory
            assert (left.exchanges, left.discards) == (right.exchanges, right.discards)


# --- solution-matrix updates --------------------------------------------------


def test_solution_update_scalar():
    x = Matrix.from_rows([[Fraction(3, 2)]])
    updated = solution_update(x, 0, 0)
    assert updated.to_rows() == [[-2]]
    # direct check on the underlying exchange: B=(2), C=(3) -> B'=(-1), C'=(2)
    assert solve_system(Matrix.from_rows([[-1]]), (2,)) == (-2,)


def test_solution_update_hand_checked_column():
    b = Matrix.from_rows([[2, 1], [1, 3]])
    x = Matrix((solve_system(b, (1, 0)),), rows=2)
    updated = solution_update(x, 0, 0)
    assert updated.column(0) == (Fraction(-5, 2), 2)
    new_col = mod_prime(b, (1, 0), x.column(0), 0)
    b_new = b.with_column(0, new_col)
    assert solve_system(b_new, b.column(0)) == updated.column(0)


def test_solution_update_second_column():
    b = Matrix.from_rows([[2, 1], [1, 3]])
    x = Matrix(
        (solve_system(b, (1, 0)), solve_system(b, (0, 1))),
        rows=2,
    )
    updated = solution_update(x, 0, 0)
    assert updated.column(1) == (Fraction(1, 2), 0)
    new_col = mod_prime(b, (1, 0), x.column(0), 0)
    assert solve_system(b.with_column(0, new_col), (0, 1)) == updated.column(1)


def test_solution_update_rejects_integral_pivot():
    with pytest.raises(IntegralPivotError):
        solution_update(Matrix.from_rows([[3, Fraction(1, 2)]]), 0, 0)


def test_solution_update_rejects_a_column_out_of_range():
    x = Matrix.from_rows([[Fraction(1, 2), Fraction(3, 2)]])
    for j in (-1, 2):
        with pytest.raises(IndexError):
            solution_update(x, 0, j)


def test_solution_update_rejects_a_pivot_row_out_of_range():
    # -1 would read the last row and return a wrong matrix
    x = Matrix.from_rows([[Fraction(1, 2), 1], [Fraction(1, 3), 2]])
    for i in (-1, 2):
        with pytest.raises(IndexError, match=f"pivot {i} out of range"):
            solution_update(x, i, 0)


def _random_exchange_config(rng, max_n=6, max_extra=4):
    while True:
        n = rng.randint(1, max_n)
        b = random_nonsingular(rng, n, 10)
        k = rng.randint(1, max_extra)
        c = random_int_matrix(rng, n, k, 10)
        x = Matrix(tuple(solve_system(b, c.column(j)) for j in range(k)), rows=n)
        fractional = [
            (i, j)
            for i in range(n)
            for j in range(k)
            if frac_part(x.entry(i, j)) != 0
        ]
        if fractional:
            return b, c, x, fractional[rng.randrange(len(fractional))]


def test_solution_update_equals_direct_resolve():
    rng = random.Random(99)
    for _ in range(60):
        b, c, x, (i, j) = _random_exchange_config(rng)
        updated = solution_update(x, i, j)
        new_col = mod_prime(b, c.column(j), x.column(j), i)
        b_new = b.with_column(i, new_col)
        c_new = c.with_column(j, b.column(i))
        direct = Matrix(
            tuple(solve_system(b_new, c_new.column(l)) for l in range(c.cols)),
            rows=b.rows,
        )
        assert updated == direct


def test_solution_update_keeps_integral_rows_integral():
    rng = random.Random(111)
    for _ in range(40):
        b, c, x, (i, j) = _random_exchange_config(rng)
        integral_rows = {
            k
            for k in range(x.rows)
            if all(frac_part(e) == 0 for e in x.row(k))
        }
        updated = solution_update(x, i, j)
        for k in integral_rows:
            assert all(frac_part(e) == 0 for e in updated.row(k))


# --- transform updates ---------------------------------------------------------


def test_y_update_identity_exchange_is_noop():
    y = Matrix.from_rows([[Fraction(1, 3), 0], [Fraction(2, 5), 1]])
    assert y_update(y, (0, 1), 1) == y


def test_y_update_first_exchange_writes_column():
    updated = y_update(Matrix.identity(2), (Fraction(-2, 5), Fraction(4, 5)), 0)
    assert updated == Matrix.from_rows([[Fraction(-2, 5), 0], [Fraction(4, 5), 1]])


def test_y_update_shortcut_matches_full_product():
    rng = random.Random(123)
    for _ in range(30):
        r = rng.randint(1, 6)
        i = rng.randrange(r)
        # columns below i are unit vectors, as row-wise pivoting guarantees
        cols = []
        for k in range(r):
            if k <= i:
                cols.append(
                    tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r))
                )
            else:
                cols.append(tuple(1 if t == k else 0 for t in range(r)))
        y = Matrix(cols, rows=r)
        v = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if k >= i else 0
            for k in range(r)
        )
        assert y_update(y, v, i).column(i) == y.mat_vec(v)


def test_y_update_rejects_wrong_shapes():
    with pytest.raises(DimensionMismatchError):  # not square
        y_update(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]), (1, 0), 0)
    with pytest.raises(DimensionMismatchError):  # wrong length
        y_update(Matrix.identity(2), (1, 0, 0), 0)


def test_y_update_fallback_is_plain_product():
    y = Matrix.from_rows([[1, 2], [3, 4]])
    v = (Fraction(1, 2), Fraction(1, 3))  # violates the zero-head precondition
    assert y_update(y, v, 1).column(1) == y.mat_vec(v)


# --- solution variant ------------------------------------------------------------


def test_solution_variant_worked_instance():
    res = solution_variant_basis(WORKED, check_invariants=True)
    assert res.basis == Matrix.from_rows([[-1, 0], [1, -1]])
    assert res.det_trajectory == (6, -3, 1)
    transform = basis_transform(WORKED, res.basis)
    assert transform == Matrix.from_rows([[Fraction(-1, 2), 0], [Fraction(1, 3), Fraction(-1, 3)]])
    initial = Matrix(tuple(WORKED.column(j) for j in find_independent_columns(WORKED)), rows=2)
    assert (initial @ transform).to_int() == res.basis
    assert lattice_equal(res.basis, Matrix.identity(2))


def test_solution_variant_square_input_is_returned_unchanged():
    a = Matrix.from_rows([[3, 1], [0, 2]])
    res = solution_variant_basis(a)
    assert res.basis == a
    assert res.exchanges == 0
    assert basis_transform(a, res.basis) == Matrix.identity(2)


def test_solution_variant_gcd():
    a = Matrix.from_rows([[12, 18]])
    res = solution_variant_basis(a)
    assert res.basis.to_rows() == [[-6]]
    assert res.exchanges == 1
    assert basis_transform(a, res.basis) == Matrix.from_rows([[Fraction(-1, 2)]])


def test_solution_variant_transform_reproduces_basis_random():
    rng = random.Random(321)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = random_int_matrix(rng, n, rng.randint(n, n + 4), 15)
        res = solution_variant_basis(a, check_invariants=True)
        if res.basis.cols == 0:
            continue
        initial = Matrix(
            tuple(a.column(j) for j in find_independent_columns(a)), rows=n
        )
        product = initial @ basis_transform(a, res.basis)
        assert is_integral(product)
        assert product.to_int() == res.basis
        assert lattice_equal(a, res.basis)


def test_solution_matrix_read_off_the_split_matches_a_fresh_solve():
    # the solution driver reads det * X off the column split's elimination:
    # its rows must be those of a checked solve of the pool from scratch. A
    # pooled column left of a later pivot was stepped over with every row
    # below the pivot rows zero, and no later step writes it. The split
    # eliminates lazily past 2n columns; the engine's tracker,
    # _Run.solution_matrix, replays its steps over the columns past the
    # frontier, in place, and reads the same before any exchange
    rng = random.Random(4246)
    seen = set()
    for _ in range(1200):
        n, m = rng.randint(1, 4), rng.randint(0, 10)
        rank = rng.randint(1, n)
        a = random_int_matrix(rng, n, rank, 4) @ random_int_matrix(rng, rank, m, 4)
        zeroed = {j for j in range(m) if rng.random() < 0.15}
        a = Matrix(tuple((0,) * n if j in zeroed else col for j, col in enumerate(a.columns)), rows=n)
        run = _split(a)
        rows, cols, pooled, frontier = run.echelon
        row, column = run.solution_matrix()
        got = _back_substitute(rows, cols, pooled, run.det)
        want = run.solve(run.pool)
        assert got == [[num[t] for num in want] for t in range(len(run.pivot_rows))]
        assert [row(i) for i in range(len(cols))] == got
        assert [column(j) for j in range(len(run.pool))] == want
        seen.update(
            case for case, occurred in (
                ("rank-deficient", 0 < len(cols) < n),
                ("zero column", any(not any(col) for col in a.columns)),
                ("square, empty pool", m == n == len(cols)),
                ("no columns", not m),
                ("pooled left of a later pivot", any(j < cols[-1] for j in pooled)),
                ("pooled past the frontier", any(j >= frontier for j in pooled)),
                ("a frontier replay", frontier > 2 * n),
            ) if occurred
        )
    assert seen == {
        "rank-deficient", "zero column", "square, empty pool", "no columns", "pooled left of a later pivot",
        "pooled past the frontier", "a frontier replay",
    }


# --- row solving and row-wise variant ----------------------------------------------


def test_solve_row_identity():
    c = Matrix.from_rows([[1, 2], [3, 4]])
    assert solve_row(Matrix.identity(2), c, 0) == (1, 2)
    assert solve_row(Matrix.identity(2), c, 1) == (3, 4)


def test_solve_row_hand_checked():
    b = Matrix.from_rows([[2, 1], [1, 3]])
    assert solve_row(b, Matrix.identity(2), 0) == (Fraction(3, 5), Fraction(-1, 5))
    assert solve_row(b, Matrix.from_rows([[1], [1]]), 1) == (Fraction(1, 5),)


def test_solve_row_rejects_bad_shapes_and_indices():
    c = Matrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatchError):  # not square
        solve_row(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]), c, 0)
    with pytest.raises(DimensionMismatchError):  # right-hand side rows
        solve_row(Matrix.identity(2), Matrix.from_rows([[1, 2]]), 0)
    for i in (-1, 2):
        with pytest.raises(IndexError):
            solve_row(Matrix.identity(2), c, i)


def test_solve_row_matches_inverse_row():
    rng = random.Random(432)
    for _ in range(40):
        n = rng.randint(1, 6)
        b = random_nonsingular(rng, n, 10)
        c = random_int_matrix(rng, n, rng.randint(1, 5), 10)
        i = rng.randrange(n)
        assert solve_row(b, c, i) == (invert(b) @ c).row(i)


def test_rowwise_variant_worked_instance():
    res = rowwise_variant_basis(WORKED, check_invariants=True)
    assert res.basis == Matrix.from_rows([[-1, 0], [1, -1]])
    assert res.det_trajectory == (6, -3, 1)
    assert lattice_equal(res.basis, Matrix.identity(2))


def test_rowwise_variant_no_exchanges_when_pool_divides():
    a = Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    res = rowwise_variant_basis(a)
    assert res.basis == Matrix.identity(2)
    assert res.exchanges == 0


def test_rowwise_variant_gcd():
    res = rowwise_variant_basis(Matrix.from_rows([[12, 18]]))
    assert res.basis.to_rows() == [[-6]]


def test_exchanges_build_no_basis_matrix(monkeypatch):
    # the run keeps its basis once, as int rows rewritten in place; a Matrix
    # of it is built only for the result
    a = random_instance(InstanceParams(10, 16, 1000, 7))
    calls = []
    with_column = Matrix.with_column

    def counting(self, *args):
        calls.append(args[0])
        return with_column(self, *args)

    monkeypatch.setattr(Matrix, "with_column", counting)
    for driver in (basic_basis, inverse_variant_basis, solution_variant_basis, rowwise_variant_basis):
        calls.clear()
        assert driver(a).exchanges > 0
        assert calls == [], driver.__name__


def test_rowwise_pivot_rows_are_nondecreasing():
    rng = random.Random(543)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = random_int_matrix(rng, n, rng.randint(n, n + 4), 15)
        res = rowwise_variant_basis(a, check_invariants=True)
        pivots = [rec.pivot_row for rec in res.trace]
        assert pivots == sorted(pivots)


def test_bounded_variants_respect_coefficient_bound():
    rng = random.Random(654)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = random_int_matrix(rng, n, rng.randint(n, n + 4), 15)
        cap = coefficient_bound(n, int(a.max_abs()))
        for runner in (rowwise_variant_basis, solution_variant_basis):
            res = runner(a, check_invariants=True)
            assert res.max_abs_entry <= cap


def test_coefficient_bound_values():
    assert coefficient_bound(2, 3) == 36  # 4 * 3 * ceil(log2 6)
    assert coefficient_bound(1, 1) == 1  # degenerate: floored at the input size
    assert coefficient_bound(3, 0) == 0
    assert coefficient_bound(1, 20) == 100  # 1 * 20 * ceil(log2 20)


# --- cross-variant agreement ---------------------------------------------------


ALL_VARIANTS = (
    basic_basis,
    inverse_variant_basis,
    solution_variant_basis,
    rowwise_variant_basis,
)


def test_all_variants_generate_the_same_lattice():
    rng = random.Random(765)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(n, n + 4)
        a = random_int_matrix(rng, n, m, 15)
        forms = [hnf(r.basis) for r in (fn(a) for fn in ALL_VARIANTS)]
        assert all(f == forms[0] for f in forms[1:])
        assert forms[0] == hnf(a)


def test_variants_agree_on_gcd_and_edge_shapes():
    cases = [
        Matrix.from_rows([[12, 18]]),
        Matrix.from_rows([[0, 0], [0, 0]]),
        Matrix.from_rows([[2, 6], [4, 12]]),  # rank deficient
        Matrix.identity(3),
    ]
    for a in cases:
        forms = [hnf(fn(a).basis) for fn in ALL_VARIANTS]
        assert all(f == forms[0] for f in forms[1:])


@st.composite
def _generators(draw):
    """``A`` with at most 6 rows and ``n + 8`` columns, about a third of them rank-deficient products.

    Entries take both signs, so negative determinants occur.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, n + 8))
    entries = st.lists(st.integers(-60, 60), min_size=m, max_size=m)
    if draw(st.integers(0, 2)) == 0:
        r = draw(st.integers(0, n - 1))
        left = [[draw(st.integers(-9, 9)) for _ in range(r)] for _ in range(n)]
        right = [draw(entries) for _ in range(r)]
        rows = [[sum(row[k] * right[k][j] for k in range(r)) for j in range(m)] for row in left]
    else:
        rows = [draw(entries) for _ in range(n)]
    return Matrix(tuple(zip(*rows)), rows=n)


@settings(max_examples=200, deadline=None)
@given(_generators())
def test_row_major_drivers_agree(a):
    # the solution driver advances all of X, so it is an oracle for the row
    # that the row-wise driver carries across its exchanges
    for check in (False, True):
        rowwise = rowwise_variant_basis(a, check_invariants=check)
        solution = solution_variant_basis(a, check_invariants=check)
        assert rowwise.basis == solution.basis
        assert rowwise.trace == solution.trace
        assert (rowwise.discards, rowwise.det_trajectory) == (solution.discards, solution.det_trajectory)

def test_matrix_without_columns_builds_no_per_row_list():
    # a header-only matrix file such as "1000000 0" costs no memory per row:
    # the run keeps no rows and checks the off-pivot rows on demand
    a = Matrix((), rows=10**6)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for fn in ALL_VARIANTS:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = fn(a)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert (res.basis.rows, res.basis.cols, res.exchanges) == (10**6, 0, 0)
            assert peak < 10**6, (fn.__name__, peak)
    finally:
        if started:
            tracemalloc.stop()


def test_integer_weights_match_the_fraction_weights():
    # the engine builds d * w in ints, as _weights(x_num, d, i); it must be d
    # times the Fraction definition, and with num = d * I the kernel's
    # column i is -W off the pivot row and d on it. An exchange pivots only
    # on a fractional coordinate, and _weights refuses an integral one.
    rng = random.Random(707)
    cases = [([3, -3, 9, -9], 6, 0), ([3, -3, 9, -9], -6, 1), ([0, 5, -5], 10, 2)]  # halves
    for _ in range(300):
        n = rng.randint(1, 5)
        d = rng.choice([-1, 1]) * rng.randint(1, 40)
        cases.append(([rng.randint(-200, 200) for _ in range(n)], d, rng.randrange(n)))
    cases = [(x_num, d, i) for x_num, d, i in cases if x_num[i] % d]
    for x_num, d, i in cases:
        n = len(x_num)
        x = [Fraction(e, d) for e in x_num]
        w = [d * (q - round_half_up(q) if k == i else frac_part(q)) for k, q in enumerate(x)]
        assert _weights(x_num, d, i) == w
        num = _exchange_update([[d * (k == t) for t in range(n)] for k in range(n)], d, i, w)
        assert [r[i] for r in num] == [d if k == i else -w[k] for k in range(n)]


def test_the_exchange_path_builds_one_fraction_per_exchange(monkeypatch):
    # solvers hand the engine integer numerators; the only Fraction an
    # exchange builds is its trace factor, and no driver builds a transform
    a = random_instance(InstanceParams(n=10, m=16, bound=1000, seed=7))
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    for module in (euclid, variants):
        monkeypatch.setattr(module, "Fraction", counting)
    for driver in (basic_basis, inverse_variant_basis, solution_variant_basis, rowwise_variant_basis):
        made.clear()
        res = driver(a)
        assert res.exchanges > 0
        assert len(made) == res.exchanges, driver.__name__
    made.clear()
    _, _, trace = diophantine_run(a, a.mat_vec(range(a.cols)))
    assert len(made) == len(trace) > 0


def _eager_walk(a, *hooks):
    """The row-major walk on ``a`` as a reference: all of ``det * X`` advanced by ``_exchange_update`` on every exchange.

    The ``hooks`` run after that update on each exchange.
    """
    run = _split(a)
    x_num = [list(r) for r in zip(*run.solve(run.pool))] or [[] for _ in run.pivot_rows]

    def advance(i, j, w, d):
        for k, r in enumerate(x_num):  # slot j now holds the old B_i, whose solution is e_i
            r[j] = d * (k == i)
        x_num[:] = _exchange_update(x_num, d, i, w)

    run.on_exchange += [advance, *hooks]
    run.row_major(x_num.__getitem__, lambda j: [r[j] for r in x_num])
    return run


def _small_inputs(rng, count):
    """``count`` inputs of at most 6 rows and 9 columns, about 30% of them rank-deficient products."""
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 6), rng.randint(0, 9)
        if rng.random() < 0.3:  # rank r < n: a product, or zero columns for r == 0
            r = rng.randint(0, n - 1)
            out.append(random_int_matrix(rng, n, r, 9) @ random_int_matrix(rng, r, m, 30) if r else Matrix(((0,) * n,) * m, rows=n))
        else:
            out.append(random_int_matrix(rng, n, m, 60))
    return out


def test_row_major_drivers_equal_the_eager_walk():
    # both row-major drivers compose each pivot row's exchanges into one
    # product-form column (euclid._ProductForm) and fold it in when the walk
    # reaches the next row; the eager walk advances all of det * X on every
    # exchange. Basis, trace and counters must agree, with the drivers' own
    # checks on and off, and some runs must exchange on two or more rows, or
    # no fold between rows is exercised
    rows_exchanged, deficient = [], 0
    for a in _small_inputs(random.Random(2121), 400):
        run = _eager_walk(a)
        want = run.result()
        rows_exchanged.append(len({rec.pivot_row for rec in want.trace}))
        deficient += len(run.pivot_rows) < a.rows
        for check in (False, True):
            assert solution_variant_basis(a, check_invariants=check) == want
            assert rowwise_variant_basis(a, check_invariants=check) == want
    assert sum(k >= 2 for k in rows_exchanged) >= 50 and deficient >= 50


def test_integer_transform_divides_exactly_and_matches_the_rational_one():
    # basis_transform solves d0 * Y once, against the solution driver's final
    # basis (d0 the initial determinant); it must equal the product form of
    # the same exchanges, replayed here with the rational y_update on the
    # eager walk, in values and in entry types
    rng = random.Random(909)
    cases = [Matrix.from_rows([[0, 2, 1], [3, 0, 1]])]  # d0 == -6
    cases += [random_int_matrix(rng, n, n + 3, 15) for n in (1, 2, 3, 4, 5, 6) for _ in range(5)]
    signs = set()
    for a in cases:
        y_rat = Matrix.identity(len(find_independent_columns(a)))

        def replay(i, j, w, d):
            nonlocal y_rat
            y_rat = y_update(y_rat, [Fraction(e, d) for e in w], i)

        run = _eager_walk(a, replay)
        signs.add(run.det0 > 0)
        transform = basis_transform(a, solution_variant_basis(a).basis)
        assert transform == y_rat
        assert [[type(e) for e in c] for c in transform.columns] == [[type(e) for e in c] for c in y_rat.columns]
    assert signs == {False, True}


def test_drivers_agree_at_benchmark_scale():
    # the acceptance suite stops at entries of 20; these are the benchmark's
    # shapes: 10x16 and 6x96 at entries to 1000, and a rank-8 16x32 product
    rng = random.Random(4242)
    lowrank = random_int_matrix(rng, 16, 8, 9) @ random_int_matrix(rng, 8, 32, 9)
    assert len(find_independent_columns(lowrank)) == 8
    cases = [
        random_instance(InstanceParams(n=10, m=16, bound=1000, seed=31)),
        random_instance(InstanceParams(n=6, m=96, bound=1000, seed=32)),
        lowrank,
    ]
    for a in cases:
        basic, inverse = basic_basis(a), inverse_variant_basis(a)
        solution = solution_variant_basis(a, check_invariants=True)
        rowwise = rowwise_variant_basis(a, check_invariants=True)
        assert solution.exchanges > 0
        assert (inverse.basis, inverse.trace) == (basic.basis, basic.trace)
        assert (solution.basis, solution.trace) == (rowwise.basis, rowwise.trace)
        assert lattice_equal(solution.basis, basic.basis)
