import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattice_euclid import (
    DimensionMismatchError,
    Matrix,
    SingularMatrixError,
    SingularUpdateError,
    bareiss_det,
    column_update_inverse,
    invert,
    lcm_denominators,
    solve_system,
)

from lattice_euclid.exact import _eliminate, _exchange_update, _rational_exchange_update

from _oracles import (
    adjugate_inverse,
    cofactor_det,
    exchange_update_fraction,
    is_integral,
    random_int_matrix,
    random_nonsingular,
)


# --- Matrix type -----------------------------------------------------------


def test_matrix_shape_and_accessors():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.column(1) == (2, 5)
    assert m.row(0) == (1, 2, 3)
    assert m.entry(1, 2) == 6
    assert m.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]
    assert m.submatrix_rows([1]).to_rows() == [[4, 5, 6]]


def test_matrix_validation():
    with pytest.raises(DimensionMismatchError):
        Matrix([(1, 2), (1,)])
    with pytest.raises(DimensionMismatchError):
        Matrix(())
    with pytest.raises(TypeError):
        Matrix([(1.5, 2.0)])
    with pytest.raises(TypeError):  # bool is an int subclass, but no entry
        Matrix.from_rows([[True, False], [False, True]])
    with pytest.raises(TypeError):
        Matrix.identity(2).mat_vec((0.5, 1))
    with pytest.raises(TypeError):
        column_update_inverse(Matrix.identity(2), 0, (1.5, 0))
    assert Matrix((), rows=3).cols == 0
    with pytest.raises(DimensionMismatchError):
        Matrix.from_rows([])
    with pytest.raises(DimensionMismatchError):
        Matrix.from_rows([[1, 2], [3]])


def test_matrix_repr_round_trips_through_eval():
    for m in (Matrix.from_rows([[1, Fraction(-2, 3)], [0, 5]]), Matrix((), rows=3)):
        assert eval(repr(m), {"Matrix": Matrix, "Fraction": Fraction}) == m


def test_matrix_with_column_shares_rest():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    m2 = m.with_column(0, (7, 8))
    assert m2.to_rows() == [[7, 2], [8, 4]]
    assert m.to_rows() == [[1, 2], [3, 4]]  # original untouched
    assert m2.column(1) is m.column(1)


def test_with_column_rejects_an_index_out_of_range():
    for j in (-1, 2):
        with pytest.raises(IndexError):
            Matrix.identity(2).with_column(j, (1, 0))


def test_with_column_checks_only_the_new_column():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    for bad in ((1.5, 2), (1, True)):
        with pytest.raises(TypeError):
            m.with_column(0, bad)
    for bad in ((1,), (1, 2, 3)):
        with pytest.raises(DimensionMismatchError):
            m.with_column(1, bad)
    assert m.with_column(1, [Fraction(1, 2), 5]) == Matrix.from_rows([[1, Fraction(1, 2)], [3, 5]])


def test_derived_matrices_equal_checked_ones():
    # transpose, submatrix_rows and @ skip re-checking their entries; each
    # result must equal (and hash like) the same matrix built with checks
    rng = random.Random(97)

    def draw(rows, cols):
        return Matrix.from_rows(
            [[rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
              for _ in range(cols)] for _ in range(rows)]
        )

    for _ in range(30):
        n, m, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = draw(n, m), draw(m, k)
        idx = rng.sample(range(n), rng.randint(1, n))
        product = Matrix.from_rows(
            [[sum(a.entry(i, t) * b.entry(t, j) for t in range(m)) for j in range(k)] for i in range(n)]
        )
        pairs = [
            (a.transpose(), Matrix.from_rows([list(col) for col in a.columns])),
            (a.submatrix_rows(idx), Matrix.from_rows([a.row(i) for i in idx])),
            (a @ b, product),
        ]
        for derived, checked in pairs:
            assert derived == checked
            assert hash(derived) == hash(checked)


def test_matrix_products():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert a.mat_vec((1, 1)) == (3, 7)
    with pytest.raises(DimensionMismatchError):
        a.mat_vec((1, 1, 1))
    with pytest.raises(DimensionMismatchError):
        a @ Matrix.from_rows([[1, 2]])


def test_matrix_integrality_helpers():
    m = Matrix.from_rows([[Fraction(4, 2), 1]])
    assert m.to_int().column(0) == (2,)
    assert [type(e) for e in m.to_int().row(0)] == [int, int]
    frac = Matrix.from_rows([[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        frac.to_int()
    assert Matrix((), rows=2).max_abs() == 0
    assert Matrix.from_rows([[-7, 3]]).max_abs() == 7


def test_matrix_equality_and_hash():
    a = Matrix.from_rows([[1], [2]])
    b = Matrix.from_rows([[3], [4]])
    assert Matrix(a.columns + b.columns, rows=2).to_rows() == [[1, 3], [2, 4]]
    assert a == Matrix.from_rows([[1], [2]])
    assert a != b
    assert hash(a) == hash(Matrix.from_rows([[1], [2]]))


# --- solve_system ----------------------------------------------------------


def test_solve_identity():
    assert solve_system(Matrix.identity(2), (7, -3)) == (7, -3)


def test_solve_hand_checked():
    b = Matrix.from_rows([[2, 1], [1, 3]])
    x = solve_system(b, (3, 4))
    assert x == (1, 1)
    assert b.mat_vec(x) == (3, 4)


def test_solve_matches_adjugate_oracle():
    rows = [[2, 1], [1, 3]]
    inv = adjugate_inverse(rows)
    expected = tuple(inv[i][0] for i in range(2))  # inverse applied to e_0
    assert expected == (Fraction(3, 5), Fraction(-1, 5))
    assert solve_system(Matrix.from_rows(rows), (1, 0)) == expected


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_system(Matrix.from_rows([[1, 2], [2, 4]]), (1, 0))


def test_solve_rejects_float_rhs():
    with pytest.raises(TypeError):
        solve_system(Matrix.identity(2), (1.5, 2))


def test_solve_shape_errors():
    with pytest.raises(DimensionMismatchError):
        solve_system(Matrix.from_rows([[1, 2]]), (1,))
    with pytest.raises(DimensionMismatchError):
        solve_system(Matrix.identity(2), (1,))


def test_solve_random_roundtrip_exact():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 8)
        b = random_nonsingular(rng, n, 20)
        c = tuple(rng.randint(-50, 50) for _ in range(n))
        x = solve_system(b, c)
        assert b.mat_vec(x) == c
        for e in x:
            assert isinstance(e, Fraction)
            assert e.denominator > 0
            assert math.gcd(e.numerator, e.denominator) == 1


# --- fraction-free kernels against the naive oracles ------------------------


def _sparse_rows(rng, n, fractions):
    """Random n x n entries, zero often enough that leading pivots vanish."""

    def entry():
        if rng.random() < 0.4:
            return 0
        value = rng.randint(-9, 9)
        return Fraction(value, rng.randint(1, 6)) if fractions else value

    return [[entry() for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("fractions", [False, True])
def test_kernels_match_adjugate_and_cofactor(fractions):
    rng = random.Random(505 + fractions)
    swapped = singular = 0
    for trial in range(150):
        n = trial % 6  # 0 x 0 included
        rows = _sparse_rows(rng, n, fractions)
        b = Matrix(tuple(zip(*rows)), rows=n)
        rhs = tuple(rng.randint(-9, 9) for _ in range(n))
        det = cofactor_det(rows)
        if is_integral(b):
            assert bareiss_det(b) == det
        else:
            with pytest.raises(ValueError):
                bareiss_det(b)
        if det == 0:
            singular += 1
            with pytest.raises(SingularMatrixError):
                solve_system(b, rhs)
            with pytest.raises(SingularMatrixError):
                invert(b)
            continue
        swapped += n > 1 and rows[0][0] == 0
        inv = adjugate_inverse(rows)
        assert invert(b) == Matrix(tuple(zip(*inv)), rows=n)
        x = solve_system(b, rhs)
        assert x == tuple(sum(inv[i][k] * rhs[k] for k in range(n)) for i in range(n))
        assert all(isinstance(e, Fraction) for e in x)
    assert swapped and singular  # the draw reached the row-swap and singular paths


# --- bareiss_det -----------------------------------------------------------


def test_bareiss_examples():
    assert bareiss_det(Matrix.identity(3)) == 1
    assert bareiss_det(Matrix.from_rows([[2, 0], [0, 3]])) == 6
    assert bareiss_det(Matrix.from_rows([[2, 1], [1, 3]])) == 5
    assert bareiss_det(Matrix.from_rows([[2, 1], [1, 3]])) == cofactor_det([[2, 1], [1, 3]])


def test_bareiss_singular_and_edges():
    assert bareiss_det(Matrix.from_rows([[1, 2], [2, 4]])) == 0
    assert bareiss_det(Matrix((), rows=0)) == 1
    assert bareiss_det(Matrix.from_rows([[0, 1], [1, 0]])) == -1
    with pytest.raises(DimensionMismatchError):
        bareiss_det(Matrix.from_rows([[1, 2]]))


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_int_matrix(rng, n, n, 9)
        assert bareiss_det(m) == cofactor_det(m.to_rows())


# --- invert ----------------------------------------------------------------


def test_invert_examples():
    assert invert(Matrix.identity(2)) == Matrix.identity(2).to_int()
    assert invert(Matrix.from_rows([[2, 0], [0, 4]])) == Matrix.from_rows(
        [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    )
    assert invert(Matrix.from_rows([[2, 1], [1, 3]])) == Matrix.from_rows(
        adjugate_inverse([[2, 1], [1, 3]])
    )


def test_invert_roundtrip_random():
    rng = random.Random(303)
    for _ in range(25):
        n = rng.randint(1, 6)
        b = random_nonsingular(rng, n, 10)
        b_inv = invert(b)
        ident = Matrix.identity(n)
        assert (b @ b_inv).to_int() == ident
        assert (b_inv @ b).to_int() == ident


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(Matrix.from_rows([[1, 2], [2, 4]]))


def test_invert_rejects_a_non_square_matrix():
    with pytest.raises(DimensionMismatchError):
        invert(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))


# --- column_update_inverse -------------------------------------------------


def test_column_update_diagonal_rescale():
    updated = column_update_inverse(Matrix.identity(2), 0, (2, 0))
    assert updated == invert(Matrix.from_rows([[2, 0], [0, 1]]))
    assert updated == Matrix.from_rows([[Fraction(1, 2), 0], [0, 1]])


def test_column_update_noop_replacement():
    assert column_update_inverse(Matrix.identity(2), 1, (0, 1)) == Matrix.identity(2).to_int()


def test_column_update_hand_checked():
    b_inv = invert(Matrix.from_rows([[2, 1], [1, 3]]))
    updated = column_update_inverse(b_inv, 1, (0, 1))
    direct = invert(Matrix.from_rows([[2, 0], [1, 1]]))
    assert updated == direct
    assert direct == Matrix.from_rows(
        [[Fraction(1, 2), 0], [Fraction(-1, 2), 1]]
    )


def test_column_update_matches_full_inversion():
    rng = random.Random(404)
    done = 0
    while done < 30:
        n = rng.randint(1, 6)
        b = random_nonsingular(rng, n, 10)
        i = rng.randrange(n)
        u = tuple(rng.randint(-10, 10) for _ in range(n))
        replaced = b.with_column(i, u)
        if bareiss_det(replaced) == 0:
            continue
        assert column_update_inverse(invert(b), i, u) == invert(replaced)
        done += 1


def test_exchange_update_is_the_elementary_inverse_product():
    # the lcm**2 wrapper, F**-1 @ m on non-square Fraction m, with zeros in m
    # (row i included) and in w
    rng = random.Random(505)
    for _ in range(60):
        n, cols = rng.randint(1, 5), rng.randint(1, 6)
        i = rng.randrange(n)
        w = [
            0 if rng.random() < 0.4 else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for _ in range(n)
        ]
        w[i] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
        m = Matrix.from_rows([
            [0 if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(n)
        ])
        f = Matrix.identity(n).with_column(i, w)
        updated = _rational_exchange_update(m, i, w)
        assert updated == exchange_update_fraction(m, i, w) == invert(f) @ m
        # an exchanged pool column j: the caller first replaces it by e_i
        j = rng.randrange(cols)
        z = m.with_column(j, [int(k == i) for k in range(n)])
        assert _rational_exchange_update(z, i, w) == exchange_update_fraction(z, i, w) == invert(f) @ z


def test_integer_exchange_update_matches_fraction_oracle():
    # N = d * B**-1 C over the signed d = det B; replacing column i of B
    # with u is F(w, i) for w = B**-1 u, numerators W = d * w
    rng = random.Random(606)
    seen = set()
    for _ in range(150):
        n, cols = rng.randint(1, 5), rng.randint(1, 7)
        b = random_nonsingular(rng, n, 9)
        i = rng.randrange(n)
        # C mixes random columns with columns of B (zero in row i of X)
        c_cols = [
            b.column(rng.randrange(n)) if rng.random() < 0.3
            else tuple(rng.randint(-9, 9) for _ in range(n))
            for _ in range(cols)
        ]
        # u = B @ t (W zero where t is) or a random column
        if rng.random() < 0.5:
            t = [0 if rng.random() < 0.5 else rng.randint(-3, 3) for _ in range(n)]
            t[i] = rng.choice([-2, -1, 1, 2])
            u = b.mat_vec(t)
        else:
            u = tuple(rng.randint(-9, 9) for _ in range(n))
        b_new = b.with_column(i, u)
        det_new = bareiss_det(b_new)
        if det_new == 0:
            continue
        d, x_cols = _eliminate(b, c_cols)
        _, (w_num,) = _eliminate(b, (u,))
        num = [list(r) for r in zip(*x_cols)]
        out = _exchange_update(num, d, i, w_num)
        assert w_num[i] == det_new
        x = Matrix(tuple(tuple(Fraction(e, d) for e in col) for col in x_cols), rows=n)
        w = [Fraction(e, d) for e in w_num]
        expected = exchange_update_fraction(x, i, w)
        assert out == [[e * det_new for e in expected.row(k)] for k in range(n)]
        assert all(e.__class__ is int for r in out for e in r)
        # and a fresh solve against B' gives the same numerators
        assert [list(r) for r in zip(*_eliminate(b_new, c_cols)[1])] == out
        # exchanging pool column j = u in: column j becomes B e_i, and X column j e_i
        j = rng.randrange(cols)
        c_cols[j] = u
        num = [list(r) for r in zip(*_eliminate(b, c_cols)[1])]
        c_cols[j] = b.column(i)
        for k, r in enumerate(num):  # slot j now holds B e_i, whose numerators are d * e_i
            r[j] = d * (k == i)
        assert _exchange_update(num, d, i, w_num) == [list(r) for r in zip(*_eliminate(b_new, c_cols)[1])]
        seen.add((d < 0, any(e == 0 for e in w_num), any(r[i] == 0 for r in x_cols)))
    assert {s[0] for s in seen} == {False, True}  # both signs of d
    assert any(s[1] for s in seen) and any(s[2] for s in seen)


def test_column_update_singular_raises():
    with pytest.raises(SingularUpdateError):
        column_update_inverse(Matrix.identity(2), 0, (0, 1))


def test_column_update_rejects_bad_shapes_and_indices():
    with pytest.raises(DimensionMismatchError):  # not square
        column_update_inverse(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]), 0, (1, 0))
    with pytest.raises(DimensionMismatchError):  # wrong length
        column_update_inverse(Matrix.identity(2), 0, (1, 0, 0))
    for i in (-1, 2):
        with pytest.raises(IndexError):
            column_update_inverse(Matrix.identity(2), i, (1, 0))


# --- lcm_denominators ------------------------------------------------------


def test_lcm_examples():
    assert lcm_denominators((Fraction(1, 2), Fraction(3, 4), Fraction(5, 6))) == 12
    assert lcm_denominators((2, 3)) == 1
    assert lcm_denominators((Fraction(3, 5), Fraction(-1, 5))) == 5
    assert lcm_denominators(()) == 1


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


@given(
    st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=40),
        max_size=8,
    )
)
def test_lcm_is_minimal_integralizer(vec):
    mu = lcm_denominators(vec)
    assert mu > 0
    assert all((mu * q).denominator == 1 for q in vec)
    for p in _prime_factors(mu):
        reduced = mu // p
        assert any((reduced * q).denominator != 1 for q in vec)
