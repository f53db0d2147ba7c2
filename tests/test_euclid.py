import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattice_euclid import (
    DimensionMismatchError,
    EuclidState,
    InstanceParams,
    IntegralPivotError,
    Matrix,
    SingularMatrixError,
    SpanMismatchError,
    bareiss_det,
    basic_basis,
    basis_transform,
    choose_pivot_argmin,
    determinant_with_trace,
    diophantine_run,
    diophantine_solve,
    exchange_step,
    find_independent_columns,
    frac_part,
    hnf,
    inverse_variant_basis,
    lattice_equal,
    member,
    mod_prime,
    random_instance,
    rowwise_variant_basis,
    solution_variant_basis,
    solve_in_span,
    solve_system,
)
from lattice_euclid import euclid, exact
from lattice_euclid.errors import InvariantViolationError
from lattice_euclid.euclid import _nearest, _pivot, _ProductForm, _Run, _split, _unit, _weights
from lattice_euclid.exact import _bareiss, _exchange_update, _integer_multiple

from _oracles import fraction_echelon, pivot_argmin_fraction, random_int_matrix, right_looking_bareiss, round_half_up

B23 = Matrix.from_rows([[2, 1], [1, 3]])  # det 5, used throughout


# --- rounding helpers ------------------------------------------------------


def test_nearest_rounds_halves_up_for_either_sign_of_d():
    assert _nearest(1, -2) == 0  # -1/2
    assert _nearest(-3, -2) == 2  # 3/2
    assert (_nearest(3, 2), _nearest(-3, 2), _nearest(7, 3), _nearest(10, 2)) == (2, -1, 2, 5)


@given(st.integers(-500, 500), st.integers(1, 64), st.booleans())
def test_nearest_is_nearest_with_ties_up(e, den, negative):
    d = -den if negative else den
    q = Fraction(e, d)
    n = _nearest(e, d)
    assert n == round_half_up(q)
    assert abs(q - n) <= Fraction(1, 2)
    if frac_part(q) == Fraction(1, 2):
        assert n == math.floor(q) + 1
    assert 0 <= frac_part(q) < 1


# --- residue operators -----------------------------------------------------


def test_mod_prime_scalar():
    b = Matrix.from_rows([[4]])
    x = solve_system(b, (7,))
    assert x == (Fraction(7, 4),)
    assert mod_prime(b, (7,), x, 0) == (-1,)


def test_mod_prime_single_fractional_coordinate():
    b = Matrix.from_rows([[2, 0], [0, 2]])
    x = solve_system(b, (1, 0))
    assert mod_prime(b, (1, 0), x, 0) == (-1, 0)


def test_mod_prime_hand_checked_with_det_ratio():
    x = solve_system(B23, (1, 0))
    r = mod_prime(B23, (1, 0), x, 0)
    assert r == (0, 2)
    replaced = B23.with_column(0, r)
    assert bareiss_det(replaced) == -2
    assert Fraction(bareiss_det(replaced), bareiss_det(B23)) == x[0] - round_half_up(x[0])


def test_mod_prime_integral_pivot_rejected():
    x = solve_system(Matrix.identity(2), (3, 4))
    with pytest.raises(IntegralPivotError):
        mod_prime(Matrix.identity(2), (3, 4), x, 0)


def test_mod_prime_rejects_wrong_lengths():
    b = Matrix.from_rows([[2, 0], [0, 3]])
    x = (Fraction(1, 2), Fraction(1, 3))
    assert mod_prime(b, (1, 1), x, 0) == (-1, 1)
    for vec, sol in (((1, 1, 99), x), ((1,), x), ((1, 1), x + (Fraction(1, 2),))):
        with pytest.raises(DimensionMismatchError):
            mod_prime(b, vec, sol, 0)


def test_mod_prime_rejects_a_pivot_out_of_range():
    # -1 would wrap to the last coordinate, 2 would be a bare list IndexError
    b = Matrix.from_rows([[2, 0], [0, 3]])
    for i in (-1, 2):
        with pytest.raises(IndexError, match=f"pivot {i} out of range"):
            mod_prime(b, (1, 1), (Fraction(1, 2), Fraction(1, 3)), i)


def test_mod_prime_consistency_random():
    # r' = a - B*xt with xt floored except the rounded pivot, and equally
    # B applied to the fractional vector with the pivot entry recentred
    rng = random.Random(11)
    done = 0
    while done < 30:
        n = rng.randint(1, 5)
        b = random_int_matrix(rng, n, n, 9)
        if bareiss_det(b) == 0:
            continue
        a = tuple(rng.randint(-30, 30) for _ in range(n))
        x = solve_system(b, a)
        i = choose_pivot_argmin(x)
        if i is None:
            continue
        r = mod_prime(b, a, x, i)
        rounded = [round_half_up(q) if k == i else math.floor(q) for k, q in enumerate(x)]
        assert r == tuple(v - w for v, w in zip(a, b.mat_vec(rounded)))
        d, num = _integer_multiple(x)
        assert b.mat_vec(_weights(num, d, i)) == tuple(d * e for e in r)
        done += 1


# --- pivot and column selection --------------------------------------------


def test_choose_pivot_examples():
    assert choose_pivot_argmin((1, Fraction(3, 5), Fraction(-1, 5))) == 2
    assert choose_pivot_argmin((2, -7)) is None
    assert choose_pivot_argmin((Fraction(1, 2), Fraction(1, 2))) == 0


def test_choose_pivot_matches_fraction_distances():
    # Equal distances to the nearest integer imply equal denominators, so
    # ties come from values like 1/3, -1/3, 2/3, 5/3; across denominators
    # the cross-multiplied comparison meets near-ties such as 1/3 vs 2/7.
    cases = [
        (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)),
        (Fraction(-1, 2), 3, Fraction(1, 2)),
        (Fraction(2, 3), Fraction(-1, 3), Fraction(5, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 7), Fraction(-5, 16), Fraction(-2, 7)),
        (Fraction(2, 7), Fraction(1, 3), Fraction(4, 2), -7),
        (Fraction(-7, 10), Fraction(3, 10), Fraction(13, 10)),
        (4, 0, -1),
        (),
    ]
    rng = random.Random(5)
    for _ in range(3000):
        cases.append(tuple(
            rng.randint(-9, 9) if rng.random() < 0.2
            else Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            for _ in range(rng.randint(1, 6))
        ))
    for x in cases:
        assert choose_pivot_argmin(x) == pivot_argmin_fraction(x), x


def test_pivot_ties_go_to_the_smallest_index():
    # the engine's integer pivot on num / d, with d of either sign
    assert _pivot([1, 3, -1], 2) == 0  # all halves
    assert _pivot([4, 1, 7], -6) == 1  # -1/6 and -7/6 tie at 1/6
    assert _pivot([2, 5, -1], -3) == 0  # -2/3, -5/3 and 1/3 tie at 1/3
    assert _pivot([5, 3], -4) == 0  # -5/4 and -3/4 tie at 1/4
    assert _pivot([6, -12, 0], -6) is None
    assert _pivot([], 5) is None
    rng = random.Random(6)
    for _ in range(2000):
        d = rng.choice([-1, 1]) * rng.randint(1, 12)
        num = [rng.randint(-40, 40) for _ in range(rng.randint(0, 6))]
        assert _pivot(num, d) == pivot_argmin_fraction([Fraction(e, d) for e in num]), (num, d)


def test_find_independent_columns_examples():
    assert find_independent_columns(Matrix.from_rows([[1, 0, 1], [0, 1, 1]])) == [0, 1]
    assert find_independent_columns(Matrix.from_rows([[1, 2], [2, 4]])) == [0]
    assert find_independent_columns(Matrix.from_rows([[0, 1, 1], [0, 0, 1]])) == [1, 2]


def test_find_independent_columns_rank_matches_hnf():
    rng = random.Random(22)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 7)
        a = random_int_matrix(rng, n, m, 6)
        assert len(find_independent_columns(a)) == hnf(a).cols


def _low_rank(rng, n, m, rank, bound):
    left = random_int_matrix(rng, n, rank, bound)
    right = random_int_matrix(rng, rank, m, bound)
    return left @ right


def _echelon(a):
    # find_independent_columns' elimination, with its pivot rows: exact._bareiss
    # on the rows of a with each column cleared of its denominators
    rows = [list(r) for r in zip(*(_integer_multiple(c)[1] for c in a.columns))]
    pivot_rows, col_idx, _, _ = _bareiss(rows, a.cols)
    return col_idx, sorted(pivot_rows)


def test_independent_columns_match_fraction_echelon():
    rng = random.Random(23)
    cases = []
    for trial in range(120):
        n, m = rng.randint(1, 6), rng.randint(1, 8)
        if trial % 3 == 0:
            a = _low_rank(rng, n, m, rng.randint(1, n), 5)
        elif trial % 3 == 1:
            a = random_int_matrix(rng, n, m, 1)  # many zeros, zero columns
        else:
            a = Matrix(
                tuple(
                    tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
                    for _ in range(m)
                ),
                rows=n,
            )
        cases.append(a)
    # zero gaps: rows zero up to a late column, so runs of columns have no pivot
    cases.append(Matrix.from_rows([[1] * 9, [0] * 8 + [1]]))
    cases.append(Matrix.from_rows([[0] * 5 + [2, 1], [0] * 6 + [3], [0] * 7]))
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 12)
        starts = [rng.randint(0, m) for _ in range(n)]
        cases.append(Matrix.from_rows([[0] * s + [rng.randint(-2, 2) for _ in range(m - s)] for s in starts]))
    for a in cases:
        expected = fraction_echelon(a)
        assert _echelon(a) == expected
        assert find_independent_columns(a) == expected[0]


def _zero_gaps(m):
    """2 x m and 3 x m inputs whose second row is zero up to its last column; the third row is twice the first plus the second."""
    first, second = [1] * m, [0] * (m - 1) + [1]
    return Matrix.from_rows([first, second]), Matrix.from_rows([first, second, [2] * (m - 1) + [3]])


def test_independent_columns_step_over_a_zero_gap_in_linear_time():
    # a column without a pivot costs one scan of the rows left, so a gap of
    # m columns costs time linear in m; with a third row below, the first
    # pivot is tested for a pair, taken alone, and the gap follows it
    m = 2**16
    for a in _zero_gaps(m):
        start = time.perf_counter()
        assert find_independent_columns(a) == [0, m - 1]
        assert time.perf_counter() - start < 2


def test_drivers_step_over_a_zero_gap_in_linear_time():
    # the split already ends unimodular, on the first and last columns: no
    # driver exchanges, and the row-major walks form no solution row
    for a, basis in zip(_zero_gaps(2**17), ([[1, 1], [0, 1]], [[1, 1], [0, 1], [2, 3]])):
        for driver in (basic_basis, inverse_variant_basis, solution_variant_basis, rowwise_variant_basis):
            start = time.perf_counter()
            res = driver(a)
            assert time.perf_counter() - start < 3, driver.__name__
            assert (res.basis.to_rows(), res.exchanges) == (basis, 0), driver.__name__


def test_independent_columns_stay_within_hadamards_bound():
    # the split divides by the previous pivot (Sylvester's identity), so every
    # entry it computes is a minor of order <= rank: at most the product of
    # the rank largest column norms. Without the division the reduced columns
    # of such a product grow past 150 bits.
    rng = random.Random(4242)
    a = random_int_matrix(rng, 16, 8, 9) @ random_int_matrix(rng, 8, 32, 9)
    squares = sorted((sum(e * e for e in col) for col in a.columns), reverse=True)
    bound_bits = (math.prod(squares[:8]).bit_length() + 1) // 2
    widest = []
    for width in range(1, a.cols + 1):
        rows = a.to_rows()  # _bareiss(rows, width): the state after the first width columns
        if len(_bareiss(rows, width)[1]) > len(widest):  # this column was a pivot step
            widest.append(max(abs(e).bit_length() for r in rows for e in r))
    assert _echelon(a) == fraction_echelon(a)
    assert len(widest) == 8
    assert max(widest) <= bound_bits < 100


def test_split_sign_counts_only_rows_that_pivot():
    # row 0 is zero: column 0 pivots on row 1, moved up past row 0, which
    # never pivots, so the determinant keeps its sign
    a = Matrix([[0, 5], [0, 3]])
    for driver in (basic_basis, inverse_variant_basis, solution_variant_basis, rowwise_variant_basis):
        assert driver(a).det_trajectory == (5, -2, 1)
    rng = random.Random(25)
    for _ in range(200):
        n, m = rng.randint(2, 7), rng.randint(1, 9)
        rows = _low_rank(rng, n, m, rng.randint(1, n), 5).to_rows()
        a = Matrix.from_rows([[0] * m if rng.random() < 0.4 else r for r in rows])
        run = _split(a)
        assert run.det == bareiss_det(run.basis.submatrix_rows(run.pivot_rows))


def test_split_checks_integer_entries_once(monkeypatch):
    # Matrix.to_int's one type scan at entry is the only check: no column is
    # cleared of denominators, as find_independent_columns does
    calls = []

    def counting(original):
        def call(*args):
            calls.append(args)
            return original(*args)
        return call

    for module in (euclid, exact):
        monkeypatch.setattr(module, "_integer_multiple", counting(module._integer_multiple))
    rng = random.Random(27)
    for a in (random_int_matrix(rng, 6, 10, 9), _low_rank(rng, 8, 12, 4, 9)):
        run = _split(a)
        assert run.det == bareiss_det(run.basis.submatrix_rows(run.pivot_rows))
    assert calls == []


def test_split_carries_coordinates_below_the_basis_rows():
    # one coordinate row per chosen column sits below the n basis rows (the
    # rank x rank identity, no m-long rows), a pooled column j carries its
    # index j after its entries, and the run reads nothing of the carry: same
    # pivot rows, off-pivot rows and basis
    rng = random.Random(28)
    a = _low_rank(rng, 8, 12, 4, 9)
    run, plain = _split(a, coordinates=True), _split(a)
    assert run.off_rows == plain.off_rows and len(run.off_rows) == 4
    assert (run.dim, run.pivot_rows, run.det, run.basis) == (8, plain.pivot_rows, plain.det, plain.basis)
    chosen = find_independent_columns(a)
    assert run.carried == {k: run.dim + p for p, k in enumerate(chosen)}
    assert run.rows[run.dim :] == [list(_unit(p, 4)) for p in range(4)]
    assert a @ Matrix.from_rows(run.coordinates(a.cols)) == run.basis  # the coordinates U
    assert [v[: run.dim] for v in run.pool] == plain.pool
    pooled = [j for j in range(a.cols) if j not in chosen]
    assert [v[run.dim :] for v in run.pool] == [(j,) for j in pooled]


def test_split_leaves_the_columns_past_its_frontier_as_input():
    # 6x96 with its first 6 columns independent: every row pivots before
    # column 12, the first frontier, so the split writes nothing from there
    # on; the solution matrix replays the split's steps over those columns
    rng = random.Random(29)
    a = random_int_matrix(rng, 6, 96, 1000)
    assert bareiss_det(Matrix(a.columns[:6], rows=6))
    run = _split(a)
    rows, cols, pooled, frontier = run.echelon
    order, want_cols, det, eager = right_looking_bareiss(a.to_rows(), a.cols)
    assert cols == want_cols == list(range(6))
    assert (frontier, run.det) == (12, det)
    assert [r[:12] for r in rows] == [r[:12] for r in eager]
    assert [r[12:] for r in rows] == [list(a.row(t)[12:]) for t in order]
    run.solution_matrix()
    assert rows == eager


def test_split_rejects_non_integral_input():
    ints = Matrix.from_rows([[2, 4, 3], [1, 5, 7]])
    half = Matrix.from_rows([[2, Fraction(1, 2), 3], [1, 5, 7]])
    off_pivot = Matrix([[6, 1, Fraction(1, 2)]])  # 1/2 on a row that never pivots
    four = Matrix.from_rows([[2, Fraction(4), 3], [1, 5, 7]])  # integral: accepted
    for driver in (basic_basis, inverse_variant_basis, solution_variant_basis, rowwise_variant_basis):
        for bad in (half, off_pivot):
            with pytest.raises(ValueError):
                driver(bad)
        assert driver(four) == driver(ints)
        assert {type(e) for c in driver(four).basis.columns for e in c} == {int}
    for bad in (half, off_pivot):
        with pytest.raises(ValueError):
            diophantine_run(bad, (1,) * bad.rows)
    assert diophantine_run(four, (1, 1)) == diophantine_run(ints, (1, 1))
    assert find_independent_columns(half) == [0, 1]  # columns scaled by their lcm


def test_solve_in_span_rank_deficient_random():
    rng = random.Random(24)
    fractional = 0
    for _ in range(60):
        n, r = rng.randint(2, 6), rng.randint(1, 3)
        basis = random_int_matrix(rng, n, min(r, n - 1), 6)
        cols, pivot_rows = fraction_echelon(basis)
        if len(cols) != basis.cols:
            continue
        # in the span, with a fractional solution once divided by the content
        inside = basis.mat_vec([rng.randint(-5, 5) for _ in range(basis.cols)])
        g = math.gcd(*inside) or 1
        inside = tuple(e // g for e in inside)
        x = solve_in_span(basis, pivot_rows, inside)
        assert basis.mat_vec(x) == inside
        off = next(t for t in range(n) if t not in pivot_rows)
        outside = tuple(e + (t == off) for t, e in enumerate(inside))
        with pytest.raises(SpanMismatchError):
            solve_in_span(basis, pivot_rows, outside)
        fractional += any(frac_part(q) for q in x)
    assert fractional  # some pivot-row solutions were fractional


def test_solve_in_span_guards_off_pivot_rows():
    basis = Matrix.from_rows([[1], [2]])
    assert solve_in_span(basis, (0,), (3, 6)) == (3,)
    with pytest.raises(SpanMismatchError):
        solve_in_span(basis, (0,), (3, 5))
    # fractional pivot-row solution, checked on the off-pivot row
    basis = Matrix.from_rows([[2, 0], [0, 2], [1, 1]])
    assert solve_in_span(basis, (0, 1), (1, 1, 1)) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(SpanMismatchError):
        solve_in_span(basis, (0, 1), (1, 1, 0))
    # rows with Fractions are cleared row by row, as solve_system does
    basis = Matrix.from_rows([[Fraction(1, 2), 0], [0, 1], [1, 1]])
    assert solve_in_span(basis, (0, 1), (Fraction(1, 4), 3, Fraction(7, 2))) == (Fraction(1, 2), 3)
    with pytest.raises(SpanMismatchError):
        solve_in_span(basis, (0, 1), (Fraction(1, 4), 3, 3))


def test_solve_in_span_checks_dimensions():
    basis = Matrix.from_rows([[2, 0], [0, 2], [1, 1]])
    with pytest.raises(DimensionMismatchError):
        solve_in_span(basis, (0,), (1, 1, 1))
    with pytest.raises(DimensionMismatchError):
        solve_in_span(basis, (0, 1), (1, 1))
    with pytest.raises(SingularMatrixError):
        solve_in_span(Matrix.from_rows([[1, 1], [1, 1]]), (0, 1), (1, 1))


def test_a_bool_in_a_vector_is_no_entry():
    # bool is an int subclass, but no entry of a vector, as of a Matrix
    half = Fraction(1, 2)
    for call in (
        lambda: solve_system(Matrix.identity(2), (True, False)),
        lambda: solve_in_span(Matrix.identity(2), (0, 1), (True, False)),
        lambda: choose_pivot_argmin((True, half)),
        lambda: diophantine_solve(Matrix.from_rows([[2]]), (True,)),
    ):
        with pytest.raises(TypeError):
            call()


def test_step_functions_type_their_whole_vector():
    # a float or a bool is no entry of vec either, off the pivot rows too
    b_mat, x = Matrix.from_rows([[2, 0], [0, 3]]), (Fraction(1, 2), Fraction(1, 3))
    column, pair = Matrix.from_rows([[1], [1], [1]]), Matrix.from_rows([[1], [1]])
    for bad in (1.0, True):
        for call in (
            lambda: mod_prime(b_mat, (bad, 1), x, 0),
            lambda: euclid.check_off_pivot_rows(column, (0,), (1, 1, bad), (1,)),
            lambda: solve_in_span(pair, (0,), (1, bad)),
        ):
            with pytest.raises(TypeError):
                call()


def test_check_off_pivot_rows():
    basis = Matrix.from_rows([[2, 0], [0, 2], [1, 1]])
    half = (Fraction(1, 2), Fraction(1, 2))
    euclid.check_off_pivot_rows(basis, (0, 1), (1, 1, 1), half)
    euclid.check_off_pivot_rows(basis, (0, 1, 2), (9, 9, 9), half)  # no row left to check
    with pytest.raises(SpanMismatchError):
        euclid.check_off_pivot_rows(basis, (0, 1), (1, 1, 0), half)
    with pytest.raises(SpanMismatchError):
        euclid.check_off_pivot_rows(basis, (1, 2), (2, 1, 1), half)


def test_check_off_pivot_rows_rejects_wrong_lengths():
    basis = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
    euclid.check_off_pivot_rows(basis, (0, 1), (1, 0, 1), (1, 0))
    for vec, x in (((1, 0, 1), (1, 0, 5)), ((1, 0, 1), (1,)), ((1, 0), (1, 0)), ((1, 0, 1, 7), (1, 0))):
        with pytest.raises(DimensionMismatchError):
            euclid.check_off_pivot_rows(basis, (0, 1), vec, x)


# --- exchange step ----------------------------------------------------------


def _state(basis, pool):
    return EuclidState(
        basis=basis,
        pool=tuple(tuple(v) for v in pool),
        pivot_rows=tuple(range(basis.rows)),
        det=bareiss_det(basis),
    )


def test_exchange_step_hand_checked():
    state = _state(B23, [(1, 0)])
    x = solve_system(B23, (1, 0))
    nxt = exchange_step(state, (1, 0), x, 0)
    assert nxt.basis == Matrix.from_rows([[0, 1], [2, 3]])
    assert nxt.pool == ((2, 1),)
    assert nxt.det == -2
    rec = nxt.trace[0]
    assert (rec.pivot_row, rec.column) == (0, 0)
    assert rec.factor == Fraction(-2, 5)
    assert rec.det_after == -2


def test_exchange_step_gcd_trace():
    b = Matrix.from_rows([[12]])
    state = _state(b, [(18,)])
    x = solve_system(b, (18,))
    nxt = exchange_step(state, (18,), x, 0)
    assert nxt.basis.to_rows() == [[-6]]
    assert nxt.pool == ((12,),)


def test_exchange_step_rejects_integral_pivot():
    state = _state(Matrix.identity(2), [(3, 4)])
    x = solve_system(Matrix.identity(2), (3, 4))
    with pytest.raises(IntegralPivotError):
        exchange_step(state, (3, 4), x, 0)


def test_exchange_step_requires_pool_membership():
    state = _state(B23, [(1, 0)])
    x = solve_system(B23, (2, 0))
    with pytest.raises(ValueError):
        exchange_step(state, (2, 0), x, 0)


def test_exchange_step_rejects_a_solution_of_the_wrong_length():
    state = _state(B23, [(1, 0)])
    x = solve_system(B23, (1, 0))
    for bad in (x[:1], x + (Fraction(1, 2),)):
        with pytest.raises(DimensionMismatchError):
            exchange_step(state, (1, 0), bad, 0)


def test_exchange_step_rejects_a_pivot_out_of_range():
    state = _state(B23, [(1, 0)])
    x = solve_system(B23, (1, 0))
    for i in (-1, 2):
        with pytest.raises(IndexError, match=f"pivot {i} out of range"):
            exchange_step(state, (1, 0), x, i)


def test_exchange_step_preserves_generated_lattice():
    rng = random.Random(33)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        basis = random_int_matrix(rng, n, n, 8)
        if bareiss_det(basis) == 0:
            continue
        vec = tuple(rng.randint(-20, 20) for _ in range(n))
        x = solve_system(basis, vec)
        i = choose_pivot_argmin(x)
        if i is None:
            continue
        state = _state(basis, [vec])
        nxt = exchange_step(state, vec, x, i)
        before = Matrix(basis.columns + (vec,), rows=n)
        after = Matrix(nxt.basis.columns + nxt.pool, rows=n)
        assert lattice_equal(before, after)
        assert 0 < abs(nxt.trace[0].factor) <= Fraction(1, 2)
        done += 1


# --- full runs --------------------------------------------------------------


def test_basic_basis_gcd_instance():
    res = basic_basis(Matrix.from_rows([[12, 18]]))
    assert res.basis.to_rows() == [[-6]]
    assert (res.exchanges, res.discards) == (1, 1)
    assert res.det_trajectory == (12, -6)
    assert hnf(res.basis).to_rows() == [[6]]


def test_basic_basis_merges_to_unit_lattice():
    a = Matrix.from_rows([[2, 0, 1], [0, 3, 1]])
    res = basic_basis(a)
    assert abs(res.det_trajectory[-1]) == 1
    assert lattice_equal(res.basis, Matrix.identity(2))
    assert res.det_trajectory == (6, 2, -1)
    assert res.exchanges == 2 and res.discards == 1


def test_basic_basis_already_a_basis():
    res = basic_basis(Matrix.identity(2))
    assert res.basis == Matrix.identity(2)
    assert res.exchanges == 0 and res.discards == 0
    assert res.det_trajectory == (1,)


def test_basic_basis_degenerate_inputs():
    res = basic_basis(Matrix.from_rows([[0, 0], [0, 0]]))
    assert res.basis.cols == 0 and res.basis.rows == 2
    assert res.discards == 2 and res.exchanges == 0

    mixed = basic_basis(Matrix.from_rows([[0, 3], [0, 0]]))
    assert mixed.basis.to_rows() == [[3], [0]]
    assert mixed.discards == 1


def test_basic_basis_rank_deficient():
    # rank-1 plane inside Z^2: generators all multiples of (2, 4)
    a = Matrix.from_rows([[2, 6], [4, 12]])
    res = basic_basis(a)
    assert res.basis.cols == 1
    assert lattice_equal(res.basis, a)


def test_basic_basis_gcd_property():
    rng = random.Random(44)
    for _ in range(60):
        m = rng.randint(1, 6)
        entries = [rng.randint(-40, 40) for _ in range(m)]
        res = basic_basis(Matrix.from_rows([entries]))
        g = math.gcd(*entries)
        if g == 0:
            assert res.basis.cols == 0
        else:
            assert [abs(e) for e in res.basis.row(0)] == [g]


def test_basic_basis_random_runs_preserve_lattice_and_halve():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = rng.randint(n, n + 4)
        a = random_int_matrix(rng, n, m, 15)
        res = basic_basis(a)
        assert lattice_equal(a, res.basis)
        # trajectory halves exactly and matches the recorded factors
        for prev, rec in zip(res.det_trajectory, res.trace):
            assert 2 * abs(rec.det_after) <= abs(prev)
            assert Fraction(rec.det_after, prev) == rec.factor
        start = abs(res.det_trajectory[0])
        assert res.exchanges <= (start.bit_length() - 1 if start else 0)
        assert res.discards <= a.cols - res.basis.cols
        assert res.max_abs_entry == int(res.basis.max_abs())
        # stop condition: every original column divides evenly at the end
        if res.basis.cols:
            pivots = tuple(range(res.basis.rows)) if res.basis.cols == res.basis.rows else None
            for j in range(a.cols):
                assert member(res.basis, a.column(j))
                if pivots:
                    x = solve_system(res.basis, a.column(j))
                    assert all(frac_part(e) == 0 for e in x)


def test_fifo_stops_once_the_basis_is_unimodular():
    # once |det| == 1 every pool vector divides evenly, so FIFO discards the
    # rest of the pool without solving it: (2) exchanges with 3 once, to -1
    for entries, solves, exchanges in (([1, 5, 7], 0, 0), ([2, 3, 5], 1, 1)):
        run = _split(Matrix.from_rows([entries]))
        solved = []
        run.fifo(lambda j: solved.append(j) or run.solve((run.pool[j],))[0])
        assert (len(solved), len(run.trace), run.discards) == (solves, exchanges, 2)
        assert run.det in (1, -1) and run.pool == []


# --- row-major order ---------------------------------------------------------


def test_row_major_scans_integer_rows_over_a_negative_denominator():
    # basis (-2, 0), (0, 3) has det -6; the pool's solutions are (1, 1) and
    # (-1/2, 1/3), so row 0 is (-6, 3) over -6: the first entry divides
    # evenly, the second is the pivot. The solver hands out numerators over
    # the signed determinant, -6.
    a = Matrix.from_rows([[-2, 0, -2, 1], [0, 3, 3, 1]])
    run = _split(a)
    assert run.det == -6
    assert run.solve(run.pool[1:]) == [[3, -2]]
    run.row_major(lambda i: [num[i] for num in run.solve(run.pool)], lambda j: run.solve((run.pool[j],))[0])
    assert (run.trace[0].pivot_row, run.trace[0].column) == (0, 1)
    assert tuple(run.trace) == rowwise_variant_basis(a).trace

    # over the basis (5), the pool vector 7 exchanges and leaves 5 / 2 in its
    # slot, so the row carried over the new determinant is read again
    b = Matrix.from_rows([[5, 7]])
    run = _split(b)
    run.row_major(lambda i: [num[i] for num in run.solve(run.pool)], lambda j: run.solve((run.pool[j],))[0])
    assert [(rec.pivot_row, rec.column) for rec in run.trace] == [(0, 0), (0, 0)]
    assert tuple(run.trace) == rowwise_variant_basis(b).trace

    run = _split(a)
    with pytest.raises(InvariantViolationError):  # row disagrees with the column
        run.row_major(lambda i: [-6, 3 - 6], lambda j: run.solve((run.pool[j],))[0])


def test_elimination_checks_the_tracked_determinant():
    # an elimination is where a tracker's denominator is born: every run
    # knows its determinant and checks each one against it
    a = Matrix.from_rows([[-2, 0, -2, 1], [0, 3, 3, 1]])
    for start in (lambda run: run.solve(run.pool), _Run.adjugate):
        run = _split(a)
        start(run)
        run.det = -run.det
        with pytest.raises(InvariantViolationError):
            start(run)


def test_checked_solve_checks_every_vector_off_the_pivot_rows():
    # basis (1, 0) on pivot row 0: the pool vector (1, 1) agrees with it on
    # the pivot row, so only the check of row 1 can refuse it
    pool = [(1, 0), (1, 1)]
    run = _Run([[1], [0]], pool, (0,), 1)
    assert run.solve(pool[:1]) == [[1]]
    with pytest.raises(SpanMismatchError, match="at row 1"):
        run.solve(pool)


def test_every_solver_refuses_a_vector_off_the_span_on_a_rank_deficient_run():
    # basis (1, 0) on pivot row 0 of 2: (2, 1) agrees with the pool vector
    # (2, 0) on the pivot row, so only the off-pivot check of row 1 can
    # refuse it, whichever solver reads it; the solution matrix holds the
    # pool alone, so its solve of any vector is a checked solve from scratch
    off = (2, 1)
    run = _Run([[1], [0]], [(2, 0), off], (0,), 1)
    solve, _, column = run.adjugate()
    assert run.solve([(2, 0)]) == [[2]] and solve((2, 0)) == column(0) == [2]
    for call in (lambda: run.solve([off]), lambda: solve(off), lambda: column(1)):
        with pytest.raises(SpanMismatchError, match="at row 1"):
            call()
    a = Matrix.from_rows([[1, 2], [0, 0]])
    solve, _, column = _split(a).solution_matrix()
    assert solve((2, 0)) == column(0) == [2]
    with pytest.raises(SpanMismatchError, match="at row 1"):
        solve(off)
    run = _split(a)
    run.pool[0] = off  # its numerators still come from the split's column (2, 0)
    with pytest.raises(SpanMismatchError, match="at row 1"):
        run.solution_matrix()


def test_no_solver_checks_off_the_pivot_rows_when_they_cover_every_row(monkeypatch):
    # full row rank leaves no basis row off the pivot rows, so no solver, the
    # checked solve from scratch included, reaches the span check; a
    # rank-deficient input does
    calls = []
    original = euclid._check_span
    monkeypatch.setattr(euclid, "_check_span", lambda *args: calls.append(args) or original(*args))
    a = random_instance(InstanceParams(n=6, m=12, bound=50, seed=3))
    assert len(find_independent_columns(a)) == a.rows
    for driver in (basic_basis, inverse_variant_basis):
        assert driver(a).exchanges > 0
    for driver in (solution_variant_basis, rowwise_variant_basis):
        assert driver(a, check_invariants=True).exchanges > 0
    determinant_with_trace(Matrix(a.columns[: a.rows], rows=a.rows))
    diophantine_run(a, a.mat_vec(range(a.cols)), check_invariants=True)
    basis_transform(a, basic_basis(a).basis)
    assert calls == []
    basic_basis(Matrix.from_rows([[2, 0, 1], [0, 3, 1], [2, 3, 2]]))
    assert calls


def test_row_major_forms_each_row_once():
    # an exchange on row i leaves that row's numerators but slot j and moves its
    # denominator, so the walk carries the row rather than forming it again;
    # once |det| == 1 every row is integral, so it forms no further row
    rng = random.Random(4242)  # the rank-8 product of test_drivers_agree_at_benchmark_scale
    lowrank = random_int_matrix(rng, 16, 8, 9) @ random_int_matrix(rng, 8, 32, 9)
    cases = [
        (random_instance(InstanceParams(n=6, m=96, bound=1000, seed=32)), 25),
        (random_instance(InstanceParams(n=10, m=16, bound=1000, seed=31)), 44),
        (lowrank, 10),
        (Matrix.from_rows([[6, 10, 15]]), 2),
        (Matrix.from_rows([[1, 0, 3], [0, 1, 5]]), 0),
        (Matrix((), rows=3), 0),
    ]
    for a, exchanges in cases:
        run = _split(a)
        _, row, column = run.adjugate()  # the row-wise driver's walk
        calls = []

        def counted(i):
            z = row(i)
            calls.append((i, z, list(z)))
            return z

        run.row_major(counted, column)
        # rows up to the one on which |det| reaches 1, none if the run starts there
        formed = next((rec.pivot_row + 1 for rec in run.trace if rec.det_after in (1, -1)), len(run.pivot_rows))
        assert [i for i, _, _ in calls] == list(range(0 if run.det0 in (1, -1) else formed))
        assert all(z == handed for _, z, handed in calls)  # the walk writes into no list it was handed
        assert len(run.trace) == exchanges
        assert tuple(run.trace) == solution_variant_basis(a).trace


def test_product_form_columns_equal_the_eager_numerators_after_each_exchange():
    # _ProductForm keeps g at the last fold and one column p for the exchanges
    # since, on the walk's current row; combined, they must equal the
    # numerators that _exchange_update advances on every exchange, over the
    # pool (moves) and over the unit vectors (the adjugate), and each row the
    # walk reaches must be the eager one after the fold
    rng = random.Random(5151)
    cases = [Matrix.from_rows([[-6, -5, -6], [1, -5, -2]])]  # two exchanges on row 0, then two on row 1
    cases += [random_int_matrix(rng, n, n + 4, 40) for n in (2, 3, 4, 5) for _ in range(6)]
    cases += [random_int_matrix(rng, 6, 3, 9) @ random_int_matrix(rng, 3, 8, 9) for _ in range(4)]
    folds = 0
    for a in cases:
        run = _split(a)
        adj = [list(r) for r in zip(*run.eliminate([_unit(t, run.dim) for t in run.pivot_rows]))]
        x_num = [list(r) for r in zip(*run.solve(run.pool))]

        def advance(i, j, w, d):
            adj[:] = _exchange_update(adj, d, i, w)
            for k, r in enumerate(x_num):  # slot j now holds the old B_i, whose solution is e_i
                r[j] = d * (k == i)
            x_num[:] = _exchange_update(x_num, d, i, w)

        run.on_exchange.append(advance)
        on_units = _ProductForm(run, [list(r) for r in adj], moves=False)
        on_pool = _ProductForm(run, [list(r) for r in x_num], moves=True)

        def check(i, j, w, d):
            assert on_pool.p[i] == run.det
            assert [on_units.column(c) for c in zip(*on_units.g)] == [list(c) for c in zip(*adj)]
            assert [on_pool.column(c) for c in zip(*on_pool.g)] == [list(c) for c in zip(*x_num)]

        def row(i):
            nonlocal folds
            folds += on_pool.p is not None
            assert on_units.fold()[i] == adj[i] and on_pool.fold()[i] == x_num[i]
            assert on_units.p is on_pool.p is None
            return x_num[i]

        run.on_exchange.append(check)
        run.row_major(row, lambda j: [r[j] for r in x_num])
    assert folds >= 10


def test_product_form_equals_the_eager_adjugate_in_fifo_order():
    # FIFO pivots on any row: an exchange on a row other than the pending one
    # folds first, so the form over the unit vectors, read in O(n) after each
    # exchange, equals the adjugate _exchange_update advances on every
    # exchange; folded after each exchange, as a FIFO solve folds, it is that
    # adjugate itself
    rng = random.Random(6161)
    cases = [Matrix.from_rows([[-6, -5, -6], [1, -5, -2]])]  # FIFO pivots on rows 0, 1 and 0
    cases += [random_int_matrix(rng, n, n + rng.randint(1, 5), 40) for n in (2, 3, 4, 5) for _ in range(8)]
    cases += [random_int_matrix(rng, n, 3, 9) @ random_int_matrix(rng, 3, 8, 9) for n in (4, 6) for _ in range(4)]
    row_changes = 0
    for a in cases:
        run = _split(a)
        adj = [list(r) for r in zip(*run.eliminate([_unit(t, run.dim) for t in run.pivot_rows]))]

        def advance(i, j, w, d):
            adj[:] = _exchange_update(adj, d, i, w)

        run.on_exchange.append(advance)
        unfolded = _ProductForm(run, [list(r) for r in adj], moves=False)
        folded = _ProductForm(run, [list(r) for r in adj], moves=False)

        def check(i, j, w, d):
            assert [unfolded.column(c) for c in zip(*unfolded.g)] == [list(c) for c in zip(*adj)]
            assert folded.fold() == adj

        run.on_exchange.append(check)
        run.fifo(lambda j: run.solve((run.pool[j],))[0])
        assert tuple(run.trace) == inverse_variant_basis(a).trace
        row_changes += sum(r.pivot_row != s.pivot_row for r, s in zip(run.trace, run.trace[1:]))
    assert row_changes >= 10


@st.composite
def _fifo_shapes(draw):
    """``A`` of rank at most ``r <= n <= 4`` whose pool is ``r - 2`` to ``r + 1`` columns, plus up to two zero columns.

    ``A`` is a product ``L @ R`` of entries in [-4, 4], so zero entries are
    common, ``r < n`` leaves it rank-deficient and ``L`` may lower its rank.
    """
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, n))
    m = r + draw(st.integers(max(0, r - 2), r + 1))
    entries = st.integers(-4, 4)
    left = [[draw(entries) for _ in range(r)] for _ in range(n)]
    right = [[draw(entries) for _ in range(m)] for _ in range(r)]
    columns = [tuple(sum(row[k] * right[k][j] for k in range(r)) for row in left) for j in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        columns.insert(draw(st.integers(0, len(columns))), (0,) * n)
    return Matrix(columns, rows=n)


@settings(max_examples=200, deadline=None)
@given(_fifo_shapes())
@example(Matrix.from_rows([[4, 0, 0, 1], [0, 6, 0, 1], [0, 0, 9, 1]]))  # a pool narrower than the rank
@example(Matrix.from_rows([[-6, -5, -6, 4], [1, -5, -2, 3]]))  # as wide as the rank
@example(Matrix.from_rows([[6, 10, 15]]))  # one wider than the rank
@example(Matrix.from_rows([[2, 3, 5, 7], [4, 1, 0, 3], [6, 4, 5, 10]]))  # rank-deficient: row 2 is row 0 plus row 1
@example(Matrix.from_rows([[0, 4, 0, 6], [0, 0, 3, 0]]))  # a zero column and zero entries
@example(Matrix.from_rows([[2, 0, 4, 1], [0, 3, 3, 1]]))  # (4, 3) divides evenly: discarded before the exchanges
def test_both_fifo_trackers_solve_each_step_as_a_fresh_elimination(a):
    # whichever side of the shape rule a pool falls on, the pool's solution
    # matrix and the adjugate each solve the vector at the front of the queue
    # as _Run.solve does, before every FIFO step; the inverse driver, which
    # picks one by the rule, ends as the baseline does
    want = basic_basis(a)
    for tracker in ("solution matrix", "adjugate"):
        run = _split(a)
        if tracker == "solution matrix":
            column = run.solution_matrix()[2]
        else:
            solve = run.adjugate()[0]
            column = lambda j: solve(run.pool[j])

        def checked(j):
            num = column(j)
            assert num == run.solve((run.pool[j],))[0], tracker
            return num

        run.fifo(checked)
        got = run.result()
        assert (got.basis, got.trace, got.det_trajectory, got.discards) == (want.basis, want.trace, want.det_trajectory, want.discards)
    got = inverse_variant_basis(a)
    assert (got.basis, got.trace, got.det_trajectory, got.discards) == (want.basis, want.trace, want.det_trajectory, want.discards)


def test_fifo_folds_at_most_once_per_exchange(monkeypatch):
    # the adjugate folds an exchange in when a solve reads it: determinant
    # mode's last exchange reaches |det| == 1, and no solve follows it
    calls = []

    def counting(*args):
        calls.append(args)
        return _exchange_update(*args)

    monkeypatch.setattr(euclid, "_exchange_update", counting)
    value, trace = determinant_with_trace(Matrix.from_rows([[0, -9], [-6, -6]]))
    assert (value, len(trace), abs(trace[-1].det_after)) == (-54, 3, 1)
    assert len(calls) == 2
    rng = random.Random(6262)
    folds = 0
    for _ in range(12):
        a = random_int_matrix(rng, 4, 8, 50)
        for run_driver in (
            lambda: inverse_variant_basis(a).trace,
            lambda: determinant_with_trace(Matrix(a.columns[:4], rows=4))[1],
            lambda: diophantine_run(a, a.mat_vec(range(8)))[2],
        ):
            calls.clear()
            trace = run_driver()
            assert len(calls) <= len(trace)
            folds += len(calls)
    assert folds >= 30


# --- basis_transform -------------------------------------------------------------


def test_basis_transform_rejects_bad_input():
    a = Matrix.from_rows([[12, 18]])  # rank 1
    assert basis_transform(a, Matrix.from_rows([[-6]])) == Matrix.from_rows([[Fraction(-1, 2)]])
    for basis in (
        Matrix.from_rows([[-6], [0]]),  # a row too many, the right column count
        Matrix((), rows=1),  # a column too few
        Matrix.from_rows([[-6, 12]]),  # a column too many
    ):
        with pytest.raises(DimensionMismatchError):
            basis_transform(a, basis)
    with pytest.raises(DimensionMismatchError):  # a row too few
        basis_transform(Matrix.from_rows([[1, 0], [0, 1]]), Matrix.from_rows([[1, 0]]))
    with pytest.raises(ValueError):  # a non-integral entry of the basis
        basis_transform(a, Matrix.from_rows([[Fraction(-13, 2)]]))
    with pytest.raises(ValueError):  # ... and of the input
        basis_transform(Matrix.from_rows([[Fraction(1, 2), 18]]), Matrix.from_rows([[-6]]))


def test_basis_transform_serves_every_driver_on_rank_deficient_input():
    rng = random.Random(4246)
    lowrank = random_int_matrix(rng, 6, 3, 9) @ random_int_matrix(rng, 3, 8, 9)
    cols = find_independent_columns(lowrank)
    assert len(cols) == 3
    initial = Matrix(tuple(lowrank.column(j) for j in cols), rows=6)
    for driver in (basic_basis, inverse_variant_basis, solution_variant_basis, rowwise_variant_basis):
        res = driver(lowrank)
        assert res.exchanges > 0
        y = basis_transform(lowrank, res.basis)
        assert (y.rows, y.cols) == (3, 3)
        assert initial @ y == res.basis
    # a column no exchange touched comes back as the int unit vector
    assert [[type(e) for e in c] for c in basis_transform(lowrank, initial).columns] == [[int] * 3] * 3
    assert basis_transform(lowrank, initial) == Matrix.identity(3)


def test_basis_transform_of_an_input_without_columns():
    for n in (0, 1, 4):
        a = Matrix((), rows=n)
        assert basis_transform(a, basic_basis(a).basis) == Matrix((), rows=0)
        if n:
            with pytest.raises(DimensionMismatchError):
                basis_transform(a, Matrix(((0,) * n,), rows=n))


def test_basis_transform_refuses_a_basis_outside_the_span():
    # rank 1 on pivot row 0: (1, 1) agrees with the initial basis on row 0,
    # so only the check of row 1 can refuse it
    a = Matrix.from_rows([[2, 4], [0, 0]])
    assert basis_transform(a, Matrix.from_rows([[2], [0]])) == Matrix.identity(1)
    with pytest.raises(SpanMismatchError, match="at row 1"):
        basis_transform(a, Matrix.from_rows([[1], [1]]))


# --- one elimination rule ----------------------------------------------------
#
# A run eliminates once at its split (_split: one _bareiss over every column of
# its input, lazy past its frontier), and after that only through
# _Run.eliminate (one _bareiss of its pivot rows beside the vectors it
# solves). For each public entry point the table below pins the sequence of
# those seam calls; each _bareiss must follow the seam call that makes it, so
# no elimination runs outside the seams. The solution matrix finishes the
# split's own elimination, with one _replay right after it, when the split
# stopped short of its last column. A FIFO run on a cached solver takes, by the
# shape rule of _Run.fifo_solver, the pool's solution matrix (the split, its
# _replay if any, and the determinant check) or the adjugate (one elimination
# of the unit vectors).


def _seam_log(monkeypatch) -> list:
    """Log ``("split",)``, ``("eliminate", len(vecs))``, ``("_bareiss", width)``, ``("_replay",)`` and each FIFO step, ``("step",)``.

    ``_split`` is wrapped wherever the package binds it, ``_bareiss`` in
    ``euclid`` and ``exact``, and ``_replay`` where the engine binds it (the
    replays inside ``_bareiss`` are part of its one elimination); the FIFO
    order pivots once per step, in ``_pivot``.
    """
    log = []

    def logged(original, entry):
        def call(*args, **kwargs):
            log.append(entry(*args))
            return original(*args, **kwargs)
        return call

    split = euclid._split
    for name, module in list(sys.modules.items()):
        if name.startswith("lattice_euclid") and getattr(module, "_split", None) is split:
            monkeypatch.setattr(module, "_split", logged(split, lambda a_mat, *_: ("split",)))
    monkeypatch.setattr(_Run, "eliminate", logged(_Run.eliminate, lambda run, vecs: ("eliminate", len(vecs))))
    for module in (euclid, exact):
        monkeypatch.setattr(module, "_bareiss", logged(module._bareiss, lambda a, width: ("_bareiss", width)))
    monkeypatch.setattr(euclid, "_replay", logged(euclid._replay, lambda *_: ("_replay",)))
    monkeypatch.setattr(euclid, "_pivot", logged(euclid._pivot, lambda num, d: ("step",)))
    return log


def _split_seam(width):
    return [("split",), ("_bareiss", width)]


def _eliminate_seam(vecs, rank):
    return [("eliminate", vecs), ("_bareiss", rank)]


def _steps(log):
    return [("step",)] * log.count(("step",))


def _split_row(a, log):
    euclid._split(a)  # the package's binding: this module's own name is not wrapped
    return _split_seam(a.cols)


def _basic_row(a, log):
    res = basic_basis(a)
    steps = log.count(("step",))
    assert steps >= res.exchanges
    return _split_seam(a.cols) + (_eliminate_seam(1, res.basis.cols) + [("step",)]) * steps


def _fifo_seams(a, log) -> tuple[list, bool]:
    """``(seams, narrow)``: the split and cached-solver seams of a FIFO run on ``a``, and whether they are the solution matrix's.

    While the pool is no wider than the rank, the pool's solution matrix:
    the split, a ``_replay`` when it stopped short of its last column, then
    ``eliminate(0)``. Otherwise the adjugate: ``eliminate(rank)``.
    """
    run = _split(a)
    rank, narrow = len(run.pivot_rows), len(run.pool) <= len(run.pivot_rows)
    log.clear()
    if not narrow:
        return _split_seam(a.cols) + _eliminate_seam(rank, rank), narrow
    finish = [("_replay",)] if run.echelon[3] < a.cols else []
    return _split_seam(a.cols) + finish + _eliminate_seam(0, rank), narrow


def _inverse_row(a, log):
    seams, _ = _fifo_seams(a, log)
    inverse_variant_basis(a)
    return seams + _steps(log)


def _solution_row(a, log):
    frontier = _split(a).echelon[3]
    log.clear()
    res = solution_variant_basis(a)
    assert (res.exchanges > 0) == (a.cols > a.rows)  # every case with a pool exchanges
    finish = [("_replay",)] if frontier < a.cols else []
    return _split_seam(a.cols) + finish + _eliminate_seam(0, res.basis.cols)


def _rowwise_row(a, log):
    want = solution_variant_basis(a)
    log.clear()
    res = rowwise_variant_basis(a)
    assert (res.basis, res.trace) == (want.basis, want.trace)
    return _split_seam(a.cols) + _eliminate_seam(res.basis.cols, res.basis.cols)


def _transform_row(a, log):
    basis = solution_variant_basis(a).basis
    log.clear()
    basis_transform(a, basis)
    return _split_seam(a.cols) + _eliminate_seam(basis.cols, basis.cols)


def _determinant_row(case, log):
    b, exchanges = case
    det = bareiss_det(b)
    log.clear()
    value, trace = determinant_with_trace(b)
    if not det:
        assert (value, trace) == (0, ())
        return _split_seam(b.cols)
    assert value == det
    assert exchanges is None or len(trace) == exchanges
    n = b.rows
    # the pool of n unit vectors is never wider than the rank n: its solution
    # matrix, the adjugate, is one elimination of them; the end basis, one more
    return _split_seam(n) + _eliminate_seam(n, n) + _steps(log) + _eliminate_seam(0, n)


def _diophantine_row(case, log):
    a, rhs, outcome = case
    want = basic_basis(a)
    seams, narrow = _fifo_seams(a, log)
    if outcome is SpanMismatchError:
        with pytest.raises(SpanMismatchError) as exc:
            diophantine_run(a, rhs)
        trace = exc.value.trace
    else:
        solution, _, trace = diophantine_run(a, rhs)
        assert (solution is None) == (outcome is None)
        assert solution is None or a.mat_vec(solution) == tuple(rhs)
    assert trace == want.trace
    # the solution matrix holds only the pool: the right-hand side is one more elimination
    closing = _eliminate_seam(1, want.basis.cols) if narrow else []
    return seams + _steps(log) + closing


_FULL = random_instance(InstanceParams(n=6, m=10, bound=1000, seed=33))
_DEFICIENT = _low_rank(random.Random(4243), 8, 12, 4, 9)


def _doubled(a):
    return Matrix.from_rows([[2 * e for e in r] for r in a.to_rows()])


_EVEN = _doubled(_DEFICIENT)
_ZERO = Matrix.from_rows([[0, 0], [0, 0]])
_WIDE_ROWS = random_instance(InstanceParams(n=3, m=40, bound=9, seed=37)).to_rows()
_WIDE_DEFICIENT = Matrix.from_rows(_WIDE_ROWS[:2] + _WIDE_ROWS[:1])  # row 2 repeats row 0
_BASIS_CASES = {
    "full": _FULL,
    "deficient": _DEFICIENT,
    "wide": random_instance(InstanceParams(n=3, m=40, bound=1000, seed=36)),
    "wide-deficient": _WIDE_DEFICIENT,  # no pivot for row 2: the split replays block by block to the end
    "square": Matrix.from_rows([[3, 1], [0, 2]]),
    "no-columns": Matrix((), rows=3),
}
_DETERMINANT_CASES = {  # (B, its number of exchanges if pinned)
    "three-exchanges": (Matrix.from_rows([[0, -9], [-6, -6]]), 3),
    "2x2": (B23, None),
    "1x1": (Matrix.from_rows([[-7]]), None),
    "unimodular": (Matrix.identity(2), 0),
    "0x0": (Matrix((), rows=0), 0),
    "6x6": (random_int_matrix(random.Random(1003), 6, 6, 1000), None),
    "singular": (Matrix.from_rows([[1, 2], [2, 4]]), None),
    "zero": (_ZERO, None),
}
_DIOPHANTINE_CASES = {  # (A, b, outcome): a witness, None (infeasible) or off the span
    "full": (_FULL, _FULL.mat_vec(range(_FULL.cols)), "witness"),
    "deficient": (_DEFICIENT, _DEFICIENT.mat_vec(range(_DEFICIENT.cols)), "witness"),
    "infeasible": (_EVEN, _DEFICIENT.column(0), None),  # in the span of 2 * A, not its lattice
    "narrow-infeasible": (_doubled(_FULL), _FULL.column(0), None),  # the same, on the solution matrix
    "off-span": (_DEFICIENT, _unit(0, 8), SpanMismatchError),
    "zero": (_ZERO, (0, 0), "witness"),
    "zero-off-span": (_ZERO, (1, 0), SpanMismatchError),
}
_SEAM_TABLE = [
    pytest.param(row, case, id=f"{row.__name__[1:-4]}-{name}")
    for rows, cases in (
        ((_split_row, _basic_row, _inverse_row, _solution_row, _rowwise_row, _transform_row), _BASIS_CASES),
        ((_determinant_row,), _DETERMINANT_CASES),
        ((_diophantine_row,), _DIOPHANTINE_CASES),
    )
    for row in rows
    for name, case in cases.items()
]


def test_the_seam_cases_fall_on_both_sides_of_the_shape_rule():
    def narrow(a):
        run = _split(a)
        return len(run.pool) <= len(run.pivot_rows)

    assert [name for name, a in _BASIS_CASES.items() if narrow(a)] == ["full", "square", "no-columns"]
    narrow_systems = [name for name, (a, _, _) in _DIOPHANTINE_CASES.items() if narrow(a)]
    assert narrow_systems == ["full", "narrow-infeasible", "zero", "zero-off-span"]


@pytest.mark.parametrize("row, case", _SEAM_TABLE)
def test_a_run_eliminates_only_at_its_seams(row, case, monkeypatch):
    log = _seam_log(monkeypatch)
    expected = row(case, log)
    assert log == expected
    seams = [e for e in log if e[0] in ("split", "eliminate")]
    assert sum(e[0] == "_bareiss" for e in log) == len(seams)
    assert all(log[t - 2] == ("split",) for t, e in enumerate(log) if e == ("_replay",))
