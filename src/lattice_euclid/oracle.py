"""Independent ground truth: canonical Hermite form, lattice equality,
membership, and a seeded instance generator.

This module is deliberately naive. The Hermite reduction is plain extended
gcd column arithmetic at desk scale; the exchange algorithms elsewhere in
the package are *tested against* it, so it stays simple enough to trust:
``hnf``, ``lattice_equal`` and ``member`` share none of their code paths.
The generator does: with ``rank_full`` it ranks its draws with
``find_independent_columns``, the engine's own elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DimensionMismatchError, ExhaustedRetriesError
from .exact import Matrix
from .euclid import find_independent_columns

_MAX_GENERATION_RETRIES = 64


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s, next_s = 1, 0
    t, next_t = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
        g, next_g = next_g, g - q * next_g
    return g, s, t


def hnf(a_mat: Matrix) -> Matrix:
    """Column-style Hermite normal form of the lattice of ``a_mat``.

    The canonical generator matrix: one column per rank, first nonzero of
    each column strictly lower than the previous one's, pivots positive,
    and every entry to the left of a pivot reduced into [0, pivot). Two
    generator sets span the same lattice iff their forms are identical.
    """
    cols = [list(a_mat.column(j)) for j in range(a_mat.cols)]
    fixed = 0
    for i in range(a_mat.rows):
        if fixed == len(cols):  # no column left to pivot on any later row
            break
        nonzero = [j for j in range(fixed, len(cols)) if cols[j][i] != 0]
        if not nonzero:
            continue
        # fold all nonzero entries of this row into one column via xgcd
        acc = nonzero[0]
        for j in nonzero[1:]:
            a, b = cols[acc][i], cols[j][i]
            g, s, t = xgcd(a, b)
            ca, cb = cols[acc], cols[j]
            for r in range(a_mat.rows):
                ca[r], cb[r] = s * ca[r] + t * cb[r], (a // g) * cb[r] - (b // g) * ca[r]
        cols[fixed], cols[acc] = cols[acc], cols[fixed]
        if cols[fixed][i] < 0:
            cols[fixed] = [-e for e in cols[fixed]]
        pivot = cols[fixed][i]
        for j in range(fixed):
            q = cols[j][i] // pivot
            if q:
                cols[j] = [e - q * p for e, p in zip(cols[j], cols[fixed])]
        fixed += 1
    return Matrix(tuple(tuple(c) for c in cols[:fixed]), rows=a_mat.rows)


def lattice_equal(a1: Matrix, a2: Matrix) -> bool:
    """Whether two generator matrices span the same lattice."""
    if a1.rows != a2.rows:
        raise DimensionMismatchError(
            f"cannot compare lattices in dimensions {a1.rows} and {a2.rows}"
        )
    return hnf(a1) == hnf(a2)


def member(a_mat: Matrix, vec) -> bool:
    """Whether ``vec`` is an integer combination of the columns of ``a_mat``."""
    residue = list(vec)
    if len(residue) != a_mat.rows:
        raise DimensionMismatchError(
            f"vector of length {len(residue)} in dimension {a_mat.rows}"
        )
    h = hnf(a_mat)
    for j in range(h.cols):
        col = h.column(j)
        p = next(i for i in range(h.rows) if col[i] != 0)
        q, rem = divmod(residue[p], col[p])
        if rem:
            return False
        if q:
            residue = [e - q * c for e, c in zip(residue, col)]
    return not any(residue)


@dataclass(frozen=True)
class InstanceParams:
    """Shape, magnitude and seed of one generated instance."""

    n: int
    m: int
    bound: int
    seed: int
    rank_full: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("dimensions must be at least 1")
        if self.bound < 1:
            raise ValueError("entry bound must be at least 1")
        if self.rank_full and self.m < self.n:
            raise ValueError("full rank needs at least as many columns as rows")


def random_instance(params: InstanceParams) -> Matrix:
    """Deterministic random generator matrix for the given parameters.

    Entries are drawn uniformly from [-bound, bound], row-major, from
    ``random.Random(seed)`` (Mersenne Twister; the exact procedure is pinned
    in the README so instances reproduce everywhere). With ``rank_full`` the
    draw repeats on the same stream until the matrix has rank ``n``.
    """
    rng = random.Random(params.seed)
    for _ in range(_MAX_GENERATION_RETRIES):
        rows = [
            [rng.randint(-params.bound, params.bound) for _ in range(params.m)]
            for _ in range(params.n)
        ]
        mat = Matrix.from_rows(rows)
        if not params.rank_full:
            return mat
        if len(find_independent_columns(mat)) == params.n:
            return mat
    raise ExhaustedRetriesError(
        f"no rank-{params.n} matrix found in {_MAX_GENERATION_RETRIES} draws"
    )
