"""End-to-end acceptance suite.

Eleven exact criteria, one test each, every one printing a PASS/FAIL line
(run with ``pytest -s`` to see them on success). The shared randomized
suite -- 500 seeded instances with n in [1,8], m in [n, n+6], entries in
[-20,20] -- is generated once and each variant runs once per instance, with
internal invariant checking enabled for the bounded variants. There are no
tolerances anywhere: every comparison is integer or rational equality.
"""

import dataclasses
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from lattice_euclid import (
    ExchangeRecord,
    InstanceParams,
    Matrix,
    SpanMismatchError,
    bareiss_det,
    basic_basis,
    basis_transform,
    coefficient_bound,
    determinant_with_trace,
    diophantine_run,
    diophantine_solve,
    find_independent_columns,
    frac_part,
    hnf,
    invert,
    inverse_variant_basis,
    lattice_determinant,
    mod_prime,
    random_instance,
    rowwise_variant_basis,
    solution_update,
    solution_variant_basis,
    solve_row,
    solve_system,
)

VARIANTS = ("basic", "inverse", "solution", "rowwise")

SUITE_SIZE = 500
SUITE_SEED = 987654321


def _report(label, passed):
    print(f"{label}: {'PASS' if passed else 'FAIL'}")
    assert passed, label


@pytest.fixture(scope="module")
def suite():
    rng = random.Random(SUITE_SEED)
    instances = []
    for _ in range(SUITE_SIZE):
        n = rng.randint(1, 8)
        m = rng.randint(n, n + 6)
        instances.append(
            random_instance(InstanceParams(n=n, m=m, bound=20, seed=rng.getrandbits(63)))
        )
    started = time.perf_counter()
    runs = [
        {
            "basic": basic_basis(a),
            "inverse": inverse_variant_basis(a),
            "solution": solution_variant_basis(a, check_invariants=True),
            "rowwise": rowwise_variant_basis(a, check_invariants=True),
        }
        for a in instances
    ]
    elapsed = time.perf_counter() - started
    return instances, runs, elapsed


@pytest.fixture(scope="module")
def forms(suite):
    instances, runs, _ = suite
    input_forms = [hnf(a) for a in instances]
    basis_forms = [
        {name: hnf(run[name].basis) for name in VARIANTS} for run in runs
    ]
    return input_forms, basis_forms


def test_criterion_1_lattice_preservation(suite, forms):
    instances, runs, elapsed = suite
    input_forms, basis_forms = forms
    preserved = all(
        basis_forms[k][name] == input_forms[k]
        for k in range(len(instances))
        for name in VARIANTS
    )
    _report(
        f"criterion 1 (lattice preservation, {SUITE_SIZE} instances x 4 variants,"
        f" {elapsed:.1f}s)",
        preserved and elapsed < 60.0,
    )


def test_criterion_2_determinant_halving(suite):
    _, runs, _ = suite
    ok = True
    for run in runs:
        for res in run.values():
            for prev, rec in zip(res.det_trajectory, res.trace):
                ok = ok and 2 * abs(rec.det_after) <= abs(prev)
                ok = ok and rec.det_after == rec.factor * prev
                ok = ok and rec.det_after == res.det_trajectory[rec.step + 1]
    _report("criterion 2 (determinant halving, exact factors)", ok)


def test_criterion_3_iteration_bounds(suite):
    instances, runs, _ = suite
    ok = True
    for a, run in zip(instances, runs):
        for res in run.values():
            start = abs(res.det_trajectory[0])
            ok = ok and res.exchanges <= max(start.bit_length() - 1, 0)
            ok = ok and res.discards <= a.cols - res.basis.cols
    _report("criterion 3 (exchange and discard bounds)", ok)


def test_criterion_4_solution_update_equivalence():
    rng = random.Random(24601)
    checked = 0
    ok = True
    while checked < 200:
        n = rng.randint(1, 6)
        b = Matrix.from_rows(
            [[rng.randint(-10, 10) for _ in range(n)] for _ in range(n)]
        )
        if bareiss_det(b) == 0:
            continue
        k = rng.randint(1, 4)
        c = Matrix.from_rows(
            [[rng.randint(-10, 10) for _ in range(k)] for _ in range(n)]
        )
        x = Matrix(tuple(solve_system(b, c.column(j)) for j in range(k)), rows=n)
        fractional = [
            (i, j)
            for i in range(n)
            for j in range(k)
            if frac_part(x.entry(i, j)) != 0
        ]
        if not fractional:
            continue
        i, j = fractional[rng.randrange(len(fractional))]
        updated = solution_update(x, i, j)
        new_col = mod_prime(b, c.column(j), x.column(j), i)
        b_new = b.with_column(i, new_col)
        c_new = c.with_column(j, b.column(i))
        direct = Matrix(
            tuple(solve_system(b_new, c_new.column(l)) for l in range(k)), rows=n
        )
        ok = ok and updated == direct
        checked += 1
    _report("criterion 4 (solution-matrix update equals direct re-solve, 200 configs)", ok)


def test_criterion_5_transform_invariant(suite):
    # no run tracks its transform: basis_transform solves it from the input
    # and each driver's basis, and the product is checked here from the
    # outside, for all four drivers on 100 instances
    instances, runs, _ = suite
    ok = True
    for a, run in zip(instances[:100], runs[:100]):
        initial = Matrix(
            tuple(a.column(j) for j in find_independent_columns(a)), rows=a.rows
        )
        for name in VARIANTS:
            basis = run[name].basis
            ok = ok and initial @ basis_transform(a, basis) == basis
    _report("criterion 5 (initial-basis times transform reproduces basis, 100 runs x 4 drivers)", ok)


def test_criterion_6_coefficient_bounds(suite):
    # the per-step growth cap is enforced inside both bounded variants on
    # every exchange (InvariantViolationError otherwise), so the suite
    # completing is itself the per-step check; re-verify the global bound
    instances, runs, _ = suite
    ok = True
    for a, run in zip(instances, runs):
        cap = coefficient_bound(a.rows, int(a.max_abs()))
        for name in ("rowwise", "solution"):
            ok = ok and run[name].max_abs_entry <= cap
    _report("criterion 6 (coefficient bounds, rowwise and solution variants)", ok)


def test_criterion_7_one_dimensional_gcd():
    rng = random.Random(13579)
    runners = (basic_basis, inverse_variant_basis, solution_variant_basis, rowwise_variant_basis)
    ok = True
    for _ in range(100):
        m = rng.randint(1, 7)
        entries = [rng.randint(-50, 50) for _ in range(m)]
        g = math.gcd(*entries)
        a = Matrix.from_rows([entries])
        for runner in runners:
            res = runner(a)
            if g == 0:
                ok = ok and res.basis.cols == 0
            else:
                ok = ok and res.basis.cols == 1 and abs(res.basis.entry(0, 0)) == g
    _report("criterion 7 (1-D degeneration to gcd, 100 instances x 4 variants)", ok)


def test_criterion_8_determinant_mode():
    rng = random.Random(86420)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 7)
        b = Matrix.from_rows([[rng.randint(-10, 10) for _ in range(n)] for _ in range(n)])
        ok = ok and lattice_determinant(b) == bareiss_det(b)
    _report("criterion 8 (determinant mode agrees with elimination, sign included)", ok)


def test_criterion_9_diophantine_mode():
    rng = random.Random(97531)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(n, n + 4)
        a = Matrix.from_rows([[rng.randint(-15, 15) for _ in range(m)] for _ in range(n)])
        hidden = tuple(rng.randint(-8, 8) for _ in range(m))
        rhs = a.mat_vec(hidden)
        x = diophantine_solve(a, rhs)
        ok = ok and x is not None and a.mat_vec(x) == rhs
    infeasible_checked = 0
    while infeasible_checked < 30:
        m = rng.randint(1, 6)
        entries = [rng.randint(-30, 30) for _ in range(m)]
        g = math.gcd(*entries)
        if g < 2:
            continue
        offset = rng.randint(1, g - 1)
        target = g * rng.randint(-5, 5) + offset  # not divisible by g
        ok = ok and diophantine_solve(Matrix.from_rows([entries]), (target,)) is None
        infeasible_checked += 1
    _report("criterion 9 (Diophantine: 100 feasible recovered, gcd-infeasible absent)", ok)


def test_criterion_10_row_solving():
    rng = random.Random(11235)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 6)
        while True:
            b = Matrix.from_rows(
                [[rng.randint(-10, 10) for _ in range(n)] for _ in range(n)]
            )
            if bareiss_det(b) != 0:
                break
        k = rng.randint(1, 5)
        c = Matrix.from_rows(
            [[rng.randint(-10, 10) for _ in range(k)] for _ in range(n)]
        )
        i = rng.randrange(n)
        ok = ok and solve_row(b, c, i) == (invert(b) @ c).row(i)
    _report("criterion 10 (single-row solving equals inverse row, 100 instances)", ok)


def test_criterion_11_cross_variant_agreement(forms):
    _, basis_forms = forms
    ok = all(
        per_instance[name] == per_instance["basic"]
        for per_instance in basis_forms
        for name in VARIANTS
    )
    _report("criterion 11 (identical Hermite forms across all four variants)", ok)


# sha256 of every output below on the suite, taken from the separate
# hand-written exchange loops that preceded the shared engine: any change
# to a basis, trace, trajectory, discard count, transform, Diophantine
# witness or determinant shows up here.
GOLDEN_SHA256 = "0768f1ec01ed6c3481e80ebad318adc0c0600ced07bb414fb09beae71dd6609c"


def _canonical(value):
    # exact and typed: a Fraction is (numerator, denominator), an int itself
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator)
    if isinstance(value, Matrix):
        return ("matrix", value.rows, _canonical(value.columns))
    if isinstance(value, ExchangeRecord):
        return _canonical(dataclasses.astuple(value))
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(v) for v in value)
    return value


def _dioph_outcome(a, rhs):
    try:
        solution, transform, trace = diophantine_run(a, rhs)
    except SpanMismatchError:
        return "span"
    return solution, transform, trace


def test_outputs_match_the_golden_digest(suite):
    instances, runs, _ = suite
    digest = hashlib.sha256()
    for a, run in zip(instances, runs):
        for name in VARIANTS:
            res = run[name]
            fields = (
                name, res.basis, res.exchanges, res.discards, res.det_trajectory,
                res.max_abs_entry, res.trace,
                basis_transform(a, res.basis) if name == "solution" else None,
            )
            digest.update(repr(_canonical(fields)).encode())
        feasible = a.mat_vec((1,) * a.cols)
        shifted = (feasible[0] + 1,) + feasible[1:]
        square = Matrix(a.columns[: a.rows], rows=a.rows)
        outcomes = (
            _dioph_outcome(a, feasible),
            _dioph_outcome(a, shifted),
            determinant_with_trace(square),
        )
        digest.update(repr(_canonical(outcomes)).encode())
    _report("golden digest (all outputs bit-identical to the recorded run)",
            digest.hexdigest() == GOLDEN_SHA256)
