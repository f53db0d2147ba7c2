"""Seeded benchmark inputs, built with the standard library only.

The library under test never sees a seed. Each instance is drawn here as
plain integer rows and rendered in the package's matrix text format; the
harness then parses that text with ``lattice_euclid.parse_matrix`` during
set-up, which is the path a command-line user takes. Facts the checks need
(rank, whether a right-hand side lies in the rational span) are computed
here too, with an elimination that shares no code with the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


# Workload name -> the percentile its ``*_tail_ms`` metrics report. Each is
# the highest percentile that keeps ten samples above it at the sample count
# a run of the default length reaches on a 2-core x86 host; a run keeps
# going until it has that many samples (see ``min_samples``).
WORKLOADS = {"dense": 70, "wide": 80, "lowrank": 85}

# Instances per pool. A run cycles through the pool; a run of the default
# length on a 2-core x86 host times fewer instances than this on every
# workload, so normally no instance is timed twice.
POOL_SIZE = 96


@dataclass(frozen=True)
class Instance:
    """One generated instance, as matrix text plus the facts its checks use."""

    a_text: str
    det_text: str
    rhs_text: str
    rank: int
    rhs_in_span: bool


def min_samples(tail: int) -> int:
    """Fewest samples that leave ten above the nearest-rank ``tail`` percentile."""
    return -(-1000 // (100 - tail))


def rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    work = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    r, prev = 0, 1
    for c in range(width):
        pivot = next((k for k in range(r, len(work)) if work[k][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        p = work[r][c]
        for k in range(r + 1, len(work)):
            h = work[k][c]
            work[k] = [(p * x - h * y) // prev for x, y in zip(work[k], work[r])]
        prev = p
        r += 1
    return r


def matrix_text(rows: list[list[int]]) -> str:
    width = len(rows[0]) if rows else 0
    lines = [f"{len(rows)} {width}"] + [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def _draw(rng: random.Random, n: int, m: int, bound: int) -> list[list[int]]:
    # row-major, like lattice_euclid.random_instance
    return [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]


def _draw_rank(rng: random.Random, n: int, m: int, bound: int) -> list[list[int]]:
    while True:
        rows = _draw(rng, n, m, bound)
        if rank(rows) == min(n, m):
            return rows


def _mul(g: list[list[int]], h: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*h)] for row in g]


def _rhs(rng: random.Random, a: list[list[int]], index: int, bound: int) -> list[int]:
    # even instances: a lattice vector A @ v; odd ones: a random vector
    if index % 2 == 0:
        v = [rng.randint(-3, 3) for _ in range(len(a[0]))]
        return [sum(x * y for x, y in zip(row, v)) for row in a]
    return [rng.randint(-bound, bound) for _ in range(len(a))]


def make_instance(workload: str, seed: int, index: int) -> Instance:
    """Instance ``index`` of a workload; a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "dense":
        a = _draw_rank(rng, 10, 16, 1000)
        det = _draw_rank(rng, 10, 10, 1000)
        rhs = _rhs(rng, a, index, 1000)
    elif workload == "wide":
        a = _draw_rank(rng, 6, 96, 1000)
        det = _draw_rank(rng, 6, 6, 1000)
        rhs = _rhs(rng, a, index, 1000)
    elif workload == "lowrank":
        while True:
            a = _mul(_draw(rng, 16, 8, 9), _draw(rng, 8, 32, 9))
            if rank(a) == 8:
                break
        det = [row[:16] for row in a]  # singular: rank 8
        rhs = _rhs(rng, a, index, 9)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Instance(
        a_text=matrix_text(a),
        det_text=matrix_text(det),
        rhs_text=matrix_text([[e] for e in rhs]),
        rank=rank(a),
        rhs_in_span=rank([row + [e] for row, e in zip(a, rhs)]) == rank(a),
    )


def make_pool(workload: str, seed: int) -> list[Instance]:
    return [make_instance(workload, seed, k) for k in range(POOL_SIZE)]
