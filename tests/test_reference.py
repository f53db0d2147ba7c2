"""Every driver, determinant mode and Diophantine mode against ``_oracles.reference_run``.

The reference shares no code with the package; each output must equal its own
outright. ``tests/test_variants.py`` and ``tests/test_applications.py`` hold the
Hypothesis comparisons of the drivers and of Diophantine mode, through the
helpers and strategies defined here.
"""

import random
from collections import Counter
from operator import mul

from hypothesis import example, given, settings, strategies as st

from lattice_euclid import (
    BasisResult,
    ExchangeRecord,
    InstanceParams,
    Matrix,
    SpanMismatchError,
    basic_basis,
    determinant_with_trace,
    diophantine_run,
    inverse_variant_basis,
    lattice_equal,
    random_instance,
    rowwise_variant_basis,
    solution_variant_basis,
)

from _oracles import fraction_det, gauss_jordan, random_int_matrix, random_system, reference_run
from test_euclid import _WIDE_DEFICIENT, _doubled


def _expected(a, order):
    """The ``BasisResult`` a driver of pivot order ``order`` must return on ``a``."""
    ref = reference_run(a, order)
    basis = Matrix(ref.basis, rows=a.rows)
    trace = tuple(ExchangeRecord(*rec) for rec in ref.trace)
    return BasisResult(basis, len(trace), ref.discards, (ref.det0, *(rec.det_after for rec in trace)), int(basis.max_abs()), trace)


def _drivers_equal_the_reference(a):
    """Assert all four drivers, checks on and off, against the reference; returns ``(fifo, row_major)``."""
    fifo, row_major = _expected(a, "fifo"), _expected(a, "row_major")
    assert basic_basis(a) == fifo
    assert inverse_variant_basis(a) == fifo
    for check in (False, True):
        assert solution_variant_basis(a, check_invariants=check) == row_major
        assert rowwise_variant_basis(a, check_invariants=check) == row_major
    return fifo, row_major


def _draw_rows(draw, n, m, bound):
    """``n`` rows of ``m`` entries to ``bound``: a third products of lower rank, a third 60% zeros (rows pivot late)."""
    entries = st.lists(st.integers(-bound, bound), min_size=m, max_size=m)
    kind = draw(st.integers(0, 2))
    if kind == 0:
        r = draw(st.integers(0, n - 1))
        left = [[draw(st.integers(-9, 9)) for _ in range(r)] for _ in range(n)]
        right = [draw(entries) for _ in range(r)]
        return [[sum(row[k] * right[k][j] for k in range(r)) for j in range(m)] for row in left]
    rows = [draw(entries) for _ in range(n)]
    return [[e if kind == 1 or draw(st.integers(0, 4)) >= 3 else 0 for e in row] for row in rows]


@st.composite
def _matrices(draw, square=False):
    """``A`` with at most 6 rows and ``n + 8`` columns, entries to 60; or a square ``B``, entries to 20."""
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(0, n + 8))
    return Matrix(tuple(zip(*_draw_rows(draw, n, m, 20 if square else 60))), rows=n)


def _small_input(rng):
    """At most 6x9; in about 30% of cases a product of lower rank, or zero columns for rank 0."""
    n, m = rng.randint(1, 6), rng.randint(0, 9)
    if rng.random() >= 0.3:
        return random_int_matrix(rng, n, m, 60)
    r = rng.randint(0, n - 1)
    return random_int_matrix(rng, n, r, 9) @ random_int_matrix(rng, r, m, 30) if r else Matrix(((0,) * n,) * m, rows=n)


def test_row_major_drivers_equal_the_reference_on_seeded_inputs():
    # a row's exchanges fold in when the walk reaches the next row: some runs
    # must exchange on two or more rows, and some must be rank-deficient
    rng, rows_exchanged, deficient = random.Random(2121), 0, 0
    for a in (_small_input(rng) for _ in range(400)):
        want = _expected(a, "row_major")
        for check in (False, True):
            assert solution_variant_basis(a, check_invariants=check) == want
            assert rowwise_variant_basis(a, check_invariants=check) == want
        rows_exchanged += len({rec.pivot_row for rec in want.trace}) >= 2
        deficient += want.basis.cols < a.rows
    assert rows_exchanged >= 50 and deficient >= 50


def test_drivers_equal_the_reference_at_benchmark_scale():
    # the benchmark's shapes: 10x16 and 6x96 at entries to 1000, and a rank-8
    # 16x32 product; then 3x40 with row 2 a repeat of row 0, which never
    # pivots, so the column split replays block by block to the last column
    rng = random.Random(4242)
    cases = [random_instance(InstanceParams(n=10, m=16, bound=1000, seed=31))]
    cases += [random_instance(InstanceParams(n=6, m=96, bound=1000, seed=32))]
    cases += [random_int_matrix(rng, 16, 8, 9) @ random_int_matrix(rng, 8, 32, 9)]
    cases += [_WIDE_DEFICIENT]
    for a, rank in zip(cases, (10, 6, 8, 2), strict=True):
        fifo, row_major = _drivers_equal_the_reference(a)
        assert row_major.exchanges > 0 and fifo.basis.cols == rank
        assert lattice_equal(row_major.basis, fifo.basis)


@settings(max_examples=200, deadline=None)
@given(_matrices(square=True))
@example(Matrix.from_rows([[0, -9], [-6, -6]]))
def test_determinant_mode_is_the_reference_on_b_beside_the_identity(b):
    det = fraction_det(b.to_rows())
    if det:
        ref = reference_run(Matrix(b.columns + Matrix.identity(b.rows).columns, rows=b.rows), "fifo")
        assert ref.det0 == det
    assert determinant_with_trace(b) == ((det, tuple(ExchangeRecord(*rec) for rec in ref.trace)) if det else (0, ()))


def _diophantine_equals_the_reference(a, rhs, checks):
    """Assert the reference's ``(witness or None, U, trace)``, or ``("span", None, trace)``, once per flag in ``checks``; returns it and the run."""
    n, ref = a.rows, reference_run(a, "fifo", coordinates=True)
    trace = tuple(ExchangeRecord(*rec) for rec in ref.trace)
    [y] = gauss_jordan([b[:n] for b in ref.basis], [rhs])
    witness = None
    if y is not None and all(e.denominator == 1 for e in y):
        witness = tuple(sum(int(e) * b[n + k] for e, b in zip(y, ref.basis)) for k in range(a.cols))
        assert a.mat_vec(witness) == tuple(rhs)
    u = Matrix([b[n:] for b in ref.basis], rows=a.cols)
    assert a @ u == Matrix([b[:n] for b in ref.basis], rows=n)
    want = ("span", None, trace) if y is None else (witness, u, trace)
    for check in checks:
        try:
            assert diophantine_run(a, rhs, check_invariants=check) == want
        except SpanMismatchError as exc:
            assert want == ("span", None, exc.trace)
    return want, ref


def test_diophantine_mode_equals_the_reference_at_benchmark_scale():
    # 10x16 and 10x26 at entries to 1000: a pool of 6 against rank 10 solves on
    # the pool's solution matrix, a pool of 16 on the adjugate. The sum of the
    # columns has a witness on A and, doubled, on 2 * A; with its first entry
    # plus 1 it lies in the span of 2 * A and off its lattice
    for m in (16, 26):
        a = random_instance(InstanceParams(n=10, m=m, bound=1000, seed=m, rank_full=True))
        total, doubled = a.mat_vec((1,) * m), _doubled(a)
        even = tuple(2 * e for e in total)
        for mat, rhs, feasible in ((a, total, True), (doubled, even, True), (doubled, (even[0] + 1, *even[1:]), False)):
            (witness, _, _), _ = _diophantine_equals_the_reference(mat, rhs, (False, True))
            assert isinstance(witness, tuple) == feasible


@st.composite
def _systems(draw):
    """``(A, rhs)``, ``A`` at most 5x9 and scaled by 1, 2 or 3; ``rhs`` an image of ``A`` before scaling, or free."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 9))
    rows = _draw_rows(draw, n, m, 9)
    scale = draw(st.sampled_from((1, 1, 2, 3)))
    a = Matrix(tuple(tuple(scale * e for e in col) for col in zip(*rows)), rows=n)
    if draw(st.booleans()):
        hidden = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
        return a, tuple(sum(map(mul, row, hidden)) for row in rows)
    return a, tuple(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))


def test_diophantine_mode_equals_the_reference_on_seeded_systems():
    # some runs must make a coordinate row after their first exchange, some
    # re-enter a former basis column, and all five kinds of input and
    # outcome must occur
    rng, mid_run, reentered, seen = random.Random(4006), 0, 0, Counter()
    for case in range(320):
        a, rhs = random_system(rng)
        want, ref = _diophantine_equals_the_reference(a, rhs, (case % 2 == 0,))
        mid_run += any(k is not None for k in ref.entered[1:])
        reentered += None in ref.entered
        seen["deficient"] += len(ref.basis) < min(a.rows, sum(map(any, a.columns)))
        seen["zero columns"] += not all(map(any, a.columns))
        seen[want[0] if want[0] in ("span", None) else "feasible"] += 1
    assert mid_run and reentered and len(seen) == 5, seen
