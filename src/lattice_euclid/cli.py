"""Command-line surface.

Subcommands: ``basis`` (four algorithm variants), ``det``, ``dioph``,
``hnf``, ``gen``, ``check``, ``bench``. Exit codes: 0 success / feasible /
equal, 1 infeasible Diophantine system or unequal lattices, 2 usage or
input errors, 141 stdout closed early by its reader (128 + SIGPIPE).
Setting ``LATTICE_EUCLID_LOG=trace`` prints one line per exchange step to
stderr (all indices 0-based).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from typing import Sequence

from .applications import determinant_with_trace, diophantine_run
from .errors import DimensionMismatchError, SpanMismatchError
from .euclid import BasisResult, ExchangeRecord, basic_basis, basis_transform, coefficient_bound
from .exact import Matrix, lcm_denominators
from .matio import MatrixParseError, format_matrix, load_matrix
from .oracle import InstanceParams, hnf, lattice_equal, random_instance
from .variants import inverse_variant_basis, rowwise_variant_basis, solution_variant_basis


class _InputError(Exception):
    """Bad input file or usage; message is ready to print. ``_run`` prints it and exits 2."""


def _load(path: str) -> Matrix:
    try:
        return load_matrix(path)
    except MatrixParseError as exc:
        raise _InputError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise _InputError(str(exc)) from exc

VARIANTS = {
    "basic": basic_basis,
    "inverse": inverse_variant_basis,
    "solution": solution_variant_basis,
    "rowwise": rowwise_variant_basis,
}


def _stats(variant: str, a_mat: Matrix, result: BasisResult) -> dict:
    """Per-run statistics as emitted by ``--stats-json`` and ``bench``.

    Holds no wall time: the ``--stats-json`` object must repeat byte-exactly.
    """
    return {
        "variant": variant,
        "n": a_mat.rows,
        "m": a_mat.cols,
        "rank": result.basis.cols,
        "exchanges": result.exchanges,
        "discards": result.discards,
        "det_initial": str(result.det_trajectory[0]),
        "det_final": str(result.det_trajectory[-1]),
        "max_abs_entry_output": result.max_abs_entry,
        "coefficient_bound": coefficient_bound(a_mat.rows, int(a_mat.max_abs())),
    }


def _emit_trace(records: Sequence[ExchangeRecord]) -> None:
    if os.environ.get("LATTICE_EUCLID_LOG", "off") != "trace":
        return
    for rec in records:
        print(
            f"step {rec.step}: i={rec.pivot_row} j={rec.column}"
            f" factor={rec.factor} det={rec.det_after}",
            file=sys.stderr,
        )


def _print_transform(transform: Matrix) -> None:
    # numerators at a common denominator, so the block stays integer-valued
    mu = lcm_denominators(e for col in transform.columns for e in col)
    scaled = Matrix(
        tuple(tuple(int(e * mu) for e in col) for col in transform.columns),
        rows=transform.rows,
    )
    print("# transform: numerator matrix, then one common-denominator line")
    print(format_matrix(scaled), end="")
    print(mu)


def cmd_basis(args: argparse.Namespace) -> int:
    if args.emit_transform and args.stats_json:
        raise _InputError("basis: --emit-transform conflicts with --stats-json")
    a_mat = _load(args.file)
    result = VARIANTS[args.alg](a_mat)
    _emit_trace(result.trace)
    if args.stats_json:
        print(json.dumps(_stats(args.alg, a_mat, result)))
    else:
        print(format_matrix(result.basis), end="")
        if args.emit_transform:
            _print_transform(basis_transform(a_mat, result.basis))
    return 0


def cmd_det(args: argparse.Namespace) -> int:
    b_mat = _load(args.file)
    try:
        value, trace = determinant_with_trace(b_mat)
    except DimensionMismatchError as exc:  # not square
        raise _InputError(f"{args.file}: {exc}") from None
    _emit_trace(trace)
    print(value)
    return 0


def cmd_dioph(args: argparse.Namespace) -> int:
    a_mat = _load(args.file)
    rhs_mat = _load(args.rhsfile)
    if rhs_mat.cols != 1 or rhs_mat.rows != a_mat.rows:
        raise _InputError(f"{args.rhsfile}: right-hand side must be a {a_mat.rows}x1 matrix")
    rhs = tuple(rhs_mat.entry(i, 0) for i in range(rhs_mat.rows))
    try:
        solution, _, trace = diophantine_run(a_mat, rhs)
    except SpanMismatchError as exc:  # outside even the rational span: infeasible
        solution, trace = None, exc.trace
    _emit_trace(trace)
    if solution is None:
        print("INFEASIBLE")
        return 1
    print(format_matrix(Matrix((solution,), rows=a_mat.cols)), end="")
    return 0


def cmd_hnf(args: argparse.Namespace) -> int:
    print(format_matrix(hnf(_load(args.file))), end="")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        params = InstanceParams(
            n=args.n, m=args.m, bound=args.bound, seed=args.seed, rank_full=args.rank_full
        )
    except ValueError as exc:
        raise _InputError(f"gen: {exc}") from exc
    print(format_matrix(random_instance(params)), end="")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    left = _load(args.file1)
    right = _load(args.file2)
    try:
        equal = lattice_equal(left, right)
    except DimensionMismatchError as exc:  # different row counts
        raise _InputError(f"check: {exc}") from None
    print("EQUAL" if equal else "NOT EQUAL")
    return 0 if equal else 1


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        if args.trials < 1:
            raise ValueError("trials must be at least 1")
        instances = [
            InstanceParams(n=args.n, m=args.m, bound=args.bound, seed=args.seed + trial)
            for trial in range(args.trials)
        ]
    except ValueError as exc:
        raise _InputError(f"bench: {exc}") from exc
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = True
    for trial, params in enumerate(instances):
        a_mat = random_instance(params)
        for variant, runner in VARIANTS.items():
            started = time.perf_counter()
            result = runner(a_mat)
            wall = time.perf_counter() - started
            # the --stats-json record ("variant" stays first), then the wall time
            row = {"variant": variant, "trial": trial, "seed": params.seed, **_stats(variant, a_mat, result)}
            row["wall_time_s"] = f"{wall:.6f}"
            if header:  # the first record's keys
                writer.writerow(row)
                header = False
            writer.writerow(row.values())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-euclid",
        description="Exact lattice basis computation by Euclidean-style column exchanges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="compute a lattice basis for the columns of FILE")
    p_basis.add_argument("--alg", choices=sorted(VARIANTS), required=True)
    p_basis.add_argument(
        "--stats-json",
        action="store_true",
        help="print a run-statistics JSON object instead of the basis",
    )
    p_basis.add_argument("--emit-transform", action="store_true", help="also print the initial-to-final transform")
    p_basis.add_argument("file")
    p_basis.set_defaults(func=cmd_basis)

    p_det = sub.add_parser(
        "det", help="determinant of a square matrix via exchange-factor accumulation"
    )
    p_det.add_argument("file")
    p_det.set_defaults(func=cmd_det)

    p_dioph = sub.add_parser(
        "dioph",
        help="solve A x = b over the integers",
        description="Solve A x = b over the integers. Prints a solution vector, "
        "or INFEASIBLE with exit code 1. Maintaining the generator-coordinate "
        "transform adds one length-r dot product per carried row per exchange "
        "(r the rank), on top of the plain basis run. A row is carried only for a "
        "column that has been in the basis: at most r + k after k exchanges, and "
        "never more than m.",
    )
    p_dioph.add_argument("file")
    p_dioph.add_argument("rhsfile")
    p_dioph.set_defaults(func=cmd_dioph)

    p_hnf = sub.add_parser("hnf", help="canonical Hermite form of the lattice of FILE")
    p_hnf.add_argument("file")
    p_hnf.set_defaults(func=cmd_hnf)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--bound", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--rank-full", action="store_true")
    p_gen.set_defaults(func=cmd_gen)

    p_check = sub.add_parser("check", help="compare the lattices of two matrix files")
    p_check.add_argument("file1")
    p_check.add_argument("file2")
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser(
        "bench", help="run all variants on seeded instances and emit CSV statistics"
    )
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--trials", type=int, required=True)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--m", type=int, required=True)
    p_bench.add_argument("--bound", type=int, required=True)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # entries and results are decimal integers of any length; the interpreter
    # limits int/str conversion to 4300 digits by default (3.10.0-3.10.6 have no limit to lift)
    previous = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        status = _run(argv)
        sys.stdout.flush()  # a closed stdout fails here, not at exit: argparse's output too
        return status
    except BrokenPipeError:
        # leave quietly, as SIGPIPE would: the exit-time flush goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def _run(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except _InputError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
