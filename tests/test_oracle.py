import random

import pytest

from lattice_euclid import (
    DimensionMismatchError,
    ExhaustedRetriesError,
    InstanceParams,
    Matrix,
    find_independent_columns,
    hnf,
    lattice_equal,
    member,
    random_instance,
    xgcd,
)
from lattice_euclid import oracle

from _oracles import random_int_matrix


def test_xgcd_identity():
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.randint(-99, 99), rng.randint(-99, 99)
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g
        assert g % (abs(a) or 1) == 0 or a % g == 0


def test_hnf_examples():
    assert hnf(Matrix.identity(2)) == Matrix.identity(2)
    assert hnf(Matrix.from_rows([[12, 18]])).to_rows() == [[6]]
    assert hnf(Matrix.from_rows([[2, 0, 1], [0, 3, 1]])) == Matrix.identity(2)


def test_hnf_canonical_shape():
    rng = random.Random(6)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 8)
        h = hnf(random_int_matrix(rng, n, m, 12))
        pivots = []
        for j in range(h.cols):
            col = h.column(j)
            p = next(i for i in range(n) if col[i] != 0)
            pivots.append(p)
            assert col[p] > 0
            for j2 in range(j):
                assert 0 <= h.entry(p, j2) < col[p]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)


def test_hnf_idempotent():
    rng = random.Random(7)
    for _ in range(30):
        h = hnf(random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 7), 10))
        assert hnf(h) == h


def test_hnf_invariant_under_column_operations():
    rng = random.Random(8)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(2, 6)
        a = random_int_matrix(rng, n, m, 9)
        base = hnf(a)
        cols = [list(c) for c in a.columns]
        for _ in range(6):
            op = rng.randrange(3)
            j, k = rng.sample(range(m), 2)
            if op == 0:
                cols[j], cols[k] = cols[k], cols[j]
            elif op == 1:
                cols[j] = [-e for e in cols[j]]
            else:
                q = rng.randint(-3, 3)
                cols[j] = [e + q * f for e, f in zip(cols[j], cols[k])]
        assert hnf(Matrix(tuple(tuple(c) for c in cols), rows=n)) == base


def test_member_examples():
    twos = Matrix.from_rows([[2, 0], [0, 2]])
    assert member(twos, (4, -6))
    assert not member(twos, (1, 0))
    unit = Matrix.from_rows([[2, 0, 1], [0, 3, 1]])
    assert member(unit, (1, 0))


def test_member_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(DimensionMismatchError):
        member(Matrix.from_rows([[2, 0], [0, 2]]), (1, 2, 3))


def test_member_checks_the_length_before_the_hermite_form(monkeypatch):
    # the naive hnf can take seconds at 24x40: a vector of the wrong length
    # is refused before it is computed
    def no_hnf(a_mat):
        raise AssertionError("hnf computed for a vector of the wrong length")

    monkeypatch.setattr(oracle, "hnf", no_hnf)
    with pytest.raises(DimensionMismatchError):
        member(Matrix.from_rows([[2, 0], [0, 2]]), (1, 2, 3))


def test_member_columns_always_belong():
    rng = random.Random(9)
    for _ in range(25):
        a = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 7), 10)
        for j in range(a.cols):
            assert member(a, a.column(j))


def test_lattice_equal_examples():
    ident = Matrix.identity(2)
    extended = Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert lattice_equal(ident, extended)
    assert not lattice_equal(Matrix.from_rows([[2]]), Matrix.from_rows([[3]]))
    with pytest.raises(DimensionMismatchError):
        lattice_equal(ident, Matrix.from_rows([[1]]))


def test_lattice_equal_is_an_equivalence():
    rng = random.Random(10)
    mats = [random_int_matrix(rng, 3, rng.randint(3, 5), 6) for _ in range(6)]
    for a in mats:
        assert lattice_equal(a, a)
        for b in mats:
            assert lattice_equal(a, b) == lattice_equal(b, a)
            for c in mats:
                if lattice_equal(a, b) and lattice_equal(b, c):
                    assert lattice_equal(a, c)


def test_random_instance_deterministic():
    params = InstanceParams(n=3, m=5, bound=9, seed=1234)
    assert random_instance(params) == random_instance(params)
    other = InstanceParams(n=3, m=5, bound=9, seed=1235)
    assert random_instance(other) != random_instance(params)


def test_random_instance_contract():
    inst = random_instance(InstanceParams(n=3, m=5, bound=9, seed=77, rank_full=True))
    assert (inst.rows, inst.cols) == (3, 5)
    assert int(inst.max_abs()) <= 9
    assert len(find_independent_columns(inst)) == 3


def test_random_instance_gcd_shape():
    inst = random_instance(InstanceParams(n=1, m=2, bound=20, seed=5))
    assert (inst.rows, inst.cols) == (1, 2)


def test_instance_params_validation():
    with pytest.raises(ValueError):
        InstanceParams(n=0, m=2, bound=5, seed=1)
    with pytest.raises(ValueError):
        InstanceParams(n=2, m=2, bound=0, seed=1)
    with pytest.raises(ValueError):
        InstanceParams(n=3, m=2, bound=5, seed=1, rank_full=True)


def test_random_instance_retry_exhaustion(monkeypatch):
    monkeypatch.setattr(random.Random, "randint", lambda self, a, b: 0)
    with pytest.raises(ExhaustedRetriesError):
        random_instance(InstanceParams(n=2, m=2, bound=5, seed=1, rank_full=True))
