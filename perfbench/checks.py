"""Output checks, output digests and exact counters for the benchmark.

Every check runs outside the timed region. A basis must span the input's
lattice (``oracle.lattice_equal``) with one column per unit of rank; a
determinant must equal ``exact.bareiss_det``; a Diophantine outcome must
be a solution of ``A x == b``, a ``None`` for a right-hand side in the
rational span that ``oracle.member`` rejects, or a ``SpanMismatchError``
for one outside the span (decided by the generator's own elimination).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

BASIS_OPS = ("basic", "inverse", "solution", "rowwise")

# outcome kinds of one call
OK, SPAN, ERROR = "ok", "span", "error"


@dataclass(frozen=True)
class Case:
    """A parsed instance: the only objects the library receives."""

    a: object  # lattice_euclid.Matrix
    det_matrix: object  # lattice_euclid.Matrix
    rhs: tuple[int, ...]
    rank: int
    rhs_in_span: bool


def _int_product(a, x) -> tuple[int, ...]:
    # A @ x with plain integers, independent of Matrix.mat_vec
    out = [0] * a.rows
    for col, s in zip(a.columns, x):
        for i, e in enumerate(col):
            out[i] += s * e
    return tuple(out)


def exchange_bound(det0: int) -> int:
    """The paper's bound on exchanges: ``floor(log2 |det0|)``."""
    return abs(det0).bit_length() - 1


def verify(le, op: str, case: Case, kind: str, out) -> bool:
    """Whether one call's outcome is correct for its case."""
    if kind == ERROR:
        return False
    if op in BASIS_OPS:
        return (
            kind == OK
            and out.basis.cols == case.rank
            and out.exchanges <= exchange_bound(out.det_trajectory[0])
            and le.lattice_equal(case.a, out.basis)
        )
    if op == "det":
        return kind == OK and out == le.bareiss_det(case.det_matrix)
    if op == "dioph":
        if kind == SPAN:
            return not case.rhs_in_span
        if out is None:
            return case.rhs_in_span and not le.member(case.a, case.rhs)
        return len(out) == case.a.cols and _int_product(case.a, out) == case.rhs
    raise ValueError(f"unknown op {op!r}")


def canonical(op: str, kind: str, out) -> bytes:
    """Exact bytes of one outcome: basis columns and trace, value, or solution."""
    if kind == ERROR:
        return f"error {type(out).__name__}".encode()
    if kind == SPAN:
        return b"SpanMismatchError"
    if op in BASIS_OPS:
        trace = tuple(
            (r.step, r.pivot_row, r.column, r.factor.numerator, r.factor.denominator, r.det_after)
            for r in out.trace
        )
        return repr((out.basis.rows, out.basis.columns, trace)).encode()
    return repr(out).encode()


@dataclass
class OpCounters:
    """Exact counters of one basis driver, read from its results."""

    exchanges: int = 0
    discards: int = 0
    max_entry_bits: int = 0
    bound_ratios: list[float] = field(default_factory=list)

    def add(self, result) -> None:
        self.exchanges += result.exchanges
        self.discards += result.discards
        self.max_entry_bits = max(self.max_entry_bits, result.max_abs_entry.bit_length())
        bound = exchange_bound(result.det_trajectory[0])
        self.bound_ratios.append(result.exchanges / bound if bound else 0.0)

    def metrics(self) -> dict[str, float]:
        steps = self.exchanges + self.discards
        return {
            "exchanges": self.exchanges,
            "discards": self.discards,
            "useful_ratio": self.exchanges / steps if steps else 0.0,
            "max_entry_bits": self.max_entry_bits,
            "exchange_bound_ratio": max(self.bound_ratios, default=0.0),
        }


def det0_bits_median(det0s: list[int]) -> float:
    return statistics.median(abs(d).bit_length() for d in det0s)
