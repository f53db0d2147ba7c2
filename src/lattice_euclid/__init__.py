"""Exact lattice basis computation by Euclidean-style column exchanges.

Given integer generator vectors, the package computes a basis of the
lattice they span using exact rational arithmetic throughout. One exchange
engine (:mod:`lattice_euclid.euclid`) runs every computation: two pivot
orders (first in, first out with the pivot nearest an integer, or row by
row with provably bounded coefficient growth) and three ways to solve pool
vectors (from scratch, the cached integer adjugate, the pool's solution
matrix). The four basis drivers, determinant computation and integral
linear-system solving are configurations of it, and an independent
Hermite-form oracle provides ground truth for testing.
"""

from .applications import (
    determinant_with_trace,
    diophantine_run,
    diophantine_solve,
    lattice_determinant,
)
from .errors import (
    DimensionMismatchError,
    ExhaustedRetriesError,
    IntegralPivotError,
    InvariantViolationError,
    LatticeError,
    SingularMatrixError,
    SingularUpdateError,
    SpanMismatchError,
)
from .exact import (
    Matrix,
    bareiss_det,
    column_update_inverse,
    invert,
    lcm_denominators,
    solve_system,
)
from .euclid import (
    BasisResult,
    EuclidState,
    ExchangeRecord,
    basic_basis,
    basis_transform,
    choose_pivot_argmin,
    coefficient_bound,
    exchange_step,
    find_independent_columns,
    frac_part,
    mod_prime,
    solve_in_span,
)
from .matio import MatrixParseError, format_matrix, load_matrix, parse_matrix
from .oracle import InstanceParams, hnf, lattice_equal, member, random_instance, xgcd
from .variants import (
    inverse_variant_basis,
    rowwise_variant_basis,
    solution_update,
    solution_variant_basis,
    solve_row,
    y_update,
)

__version__ = "0.1.0"

__all__ = [
    "BasisResult",
    "DimensionMismatchError",
    "EuclidState",
    "ExchangeRecord",
    "ExhaustedRetriesError",
    "InstanceParams",
    "IntegralPivotError",
    "InvariantViolationError",
    "LatticeError",
    "Matrix",
    "MatrixParseError",
    "SingularMatrixError",
    "SingularUpdateError",
    "SpanMismatchError",
    "bareiss_det",
    "basic_basis",
    "basis_transform",
    "choose_pivot_argmin",
    "coefficient_bound",
    "column_update_inverse",
    "determinant_with_trace",
    "diophantine_run",
    "diophantine_solve",
    "exchange_step",
    "find_independent_columns",
    "format_matrix",
    "frac_part",
    "hnf",
    "invert",
    "inverse_variant_basis",
    "lattice_determinant",
    "lattice_equal",
    "lcm_denominators",
    "load_matrix",
    "member",
    "mod_prime",
    "parse_matrix",
    "random_instance",
    "rowwise_variant_basis",
    "solution_update",
    "solution_variant_basis",
    "solve_in_span",
    "solve_row",
    "solve_system",
    "xgcd",
    "y_update",
]
