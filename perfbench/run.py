#!/usr/bin/env python3
"""Closed-loop benchmark of lattice_euclid's six public entry points.

    python3 perfbench/run.py --workload {dense,wide,lowrank} [--seed N]
                             [--seconds S] [--trace 0|1]

One caller makes one library call at a time, in one process. Each seeded
instance goes through ``basic_basis``, ``inverse_variant_basis``,
``solution_variant_basis``, ``rowwise_variant_basis``,
``lattice_determinant`` and ``diophantine_solve``; every call is timed with
``time.perf_counter_ns`` and checked afterwards, outside the timed region.
The run keeps taking instances for ``--seconds`` seconds, and until each op
has enough samples for its tail percentile.

Every reported time is at reference speed (see ``to_reference``): this
shared host's speed drifts by up to 1.8x within seconds, so each op's time
is scaled by how long a short stdlib-only reference loop, run with the
garbage collector off, took immediately before and immediately after it.
The report also prints the times as measured.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
instance twice, untraced and then with per-layer wrappers installed from
this directory (the package's source is never edited), and reports
per-layer call counts and self times plus the tracing overhead. Spans of
the digest set are written to ``perfbench/results/`` when the run ends;
later traced passes serve the overhead ratio only and keep no spans.

The report lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
package is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import BASIS_OPS, ERROR, OK, SPAN, Case, OpCounters  # noqa: E402
from tracing import LAYER_NAMES, Tracer  # noqa: E402

# op name -> public entry point
OPS = {
    "basic": "basic_basis",
    "inverse": "inverse_variant_basis",
    "solution": "solution_variant_basis",
    "rowwise": "rowwise_variant_basis",
    "det": "lattice_determinant",
    "dioph": "diophantine_solve",
}
DEFAULT_SEED = 1
DEFAULT_SECONDS = 40
# The first instances of every run form the digest set: their outputs are
# hashed, and the per-layer counts and exact counters cover them only, so
# those numbers repeat exactly for a seed whatever the machine's speed.
DIGEST_INSTANCES = 8
SETUP_REPEATS = 7
# A slow machine may need longer than --seconds for the sample minimum;
# past this the run stops anyway, so it always ends well within 180 s.
HARD_STOP_S = 120.0
# The reference loop behind every reported time, and its time on an idle
# 2-core x86 host (Intel Xeon, 2.0 GHz) with Python 3.11.
REFERENCE_ITERATIONS = 600
REFERENCE_MS = 1.85


def fraction_loop_ms(iterations: int) -> float:
    """Time of a fixed int/Fraction loop that never touches the package."""
    start = time.perf_counter_ns()
    x, acc = 12345, Fraction(0)
    for k in range(1, iterations + 1):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        q = Fraction(x % 1999 - 999, k % 997 + 1)
        acc = acc + q if acc.denominator < (1 << 64) else q
    return (time.perf_counter_ns() - start) / 1e6


def speed_probe_ms() -> float:
    """Machine-speed probe printed at the start and end of a run."""
    return statistics.median(fraction_loop_ms(3000) for _ in range(3))


def reference_ms() -> float:
    """One reference loop, with the collector off so the heap cannot slow it."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        return fraction_loop_ms(REFERENCE_ITERATIONS)
    finally:
        if gc_was_on:
            gc.enable()


def to_reference(raw: float, before_ms: float, after_ms: float) -> float:
    """Convert a time measured between two reference loops to reference speed.

    The host's speed drifts by up to 1.8x within seconds as its neighbours
    come and go, which no run length averages away. So every reported time
    is scaled by ``REFERENCE_MS`` over the mean time of the reference loops
    run immediately before and immediately after it: the result is the time the same work
    takes on a host where that loop takes ``REFERENCE_MS``.
    """
    return raw * 2 * REFERENCE_MS / (before_ms + after_ms)


def _purge_package() -> None:
    for key in [k for k in sys.modules if k == "lattice_euclid" or k.startswith("lattice_euclid.")]:
        del sys.modules[key]


def setup(pool: list[workloads.Instance]):
    """Import the package and parse every input, several times; time each.

    Returns the module, the parsed cases and the median set-up time in
    seconds, at reference speed and as measured. The last repetition's
    module and objects are the ones used.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times, raw_times = [], []
    for _ in range(SETUP_REPEATS):
        _purge_package()
        before = reference_ms()
        start = time.perf_counter()
        le = importlib.import_module("lattice_euclid")
        parsed = [
            (le.parse_matrix(i.a_text), le.parse_matrix(i.det_text), le.parse_matrix(i.rhs_text))
            for i in pool
        ]
        raw_times.append(time.perf_counter() - start)
        times.append(to_reference(raw_times[-1], before, reference_ms()))
    if SRC not in Path(le.__file__).resolve().parents:
        raise ImportError(f"lattice_euclid was imported from {le.__file__}, not from {SRC}")
    cases = [
        Case(a=a, det_matrix=d, rhs=r.column(0), rank=i.rank, rhs_in_span=i.rhs_in_span)
        for (a, d, r), i in zip(parsed, pool)
    ]
    return le, cases, statistics.median(times), statistics.median(raw_times)


def op_args(op: str, case: Case) -> tuple:
    if op == "det":
        return (case.det_matrix,)
    if op == "dioph":
        return (case.a, case.rhs)
    return (case.a,)


def tail_value(samples: list[float], percent: int) -> float:
    """Nearest-rank ``percent`` percentile of the samples."""
    ordered = sorted(samples)
    return ordered[max(0, -(-percent * len(ordered) // 100) - 1)]


class Harness:
    """Runs cases through the six ops, timing, checking and hashing each call."""

    def __init__(self, le, pool: list[workloads.Instance], cases: list[Case], tracer: Tracer | None = None):
        self.le = le
        self.pool = pool
        self.cases = cases
        self.tracer = tracer
        # checks call these originals, so tracing never counts them as op work
        self.ref = SimpleNamespace(
            lattice_equal=le.lattice_equal, member=le.member, bareiss_det=le.bareiss_det
        )
        self.samples: dict[str, list[float]] = {op: [] for op in OPS}  # reference speed
        self.raw_samples: dict[str, list[float]] = {op: [] for op in OPS}  # as measured
        self.scales: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.digests = {False: hashlib.sha256(), True: hashlib.sha256()}  # traced? -> digest
        self.seen: dict[tuple[int, str], bytes] = {}
        self.counters = {op: OpCounters() for op in BASIS_OPS}
        self.det0s: list[int] = []
        self.instances = 0
        self.op_ns = {False: 0.0, True: 0.0}  # traced? -> time in the six ops
        self.ops_table: list[tuple[int, str]] = []  # traced op id -> (instance, name)
        self.op_scales: list[float] = []  # traced op id -> scale
        self.first_error: str | None = None

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted

    def _call(self, op: str, case: Case, traced: bool):
        fn = getattr(self.le, OPS[op])
        args = op_args(op, case)
        start = time.perf_counter_ns()
        try:
            out = self.tracer.span(f"op.{op}", fn, *args) if traced else fn(*args)
            kind = OK
        except self.le.SpanMismatchError:
            out, kind = None, SPAN
        except Exception as exc:  # counted as a failed op; the run goes on
            out, kind = exc, ERROR
            if self.first_error is None:
                self.first_error = traceback.format_exc()
        return kind, out, time.perf_counter_ns() - start

    def _new_op(self, k: int, name: str) -> None:
        self.tracer.op_id = len(self.ops_table)
        self.ops_table.append((k, name))

    def run_instance(self, k: int, traced: bool = False) -> None:
        case = self.cases[k % len(self.cases)]
        if traced:
            marks = (len(self.tracer.spans), len(self.ops_table))
            self.tracer.install()
        try:
            for op in OPS:
                if traced:
                    self._new_op(k, op)
                # each op is scaled by the reference loops on either side of it
                before = reference_ms()
                kind, out, ns = self._call(op, case, traced)
                scale = to_reference(1.0, before, reference_ms())
                self.scales.append(scale)
                self.op_ns[traced] += ns * scale
                if traced:
                    self.op_scales.append(scale)
                    self._new_op(k, f"verify.{op}")
                    self.op_scales.append(scale)
                else:
                    self.raw_samples[op].append(ns / 1e6)
                    self.samples[op].append(ns / 1e6 * scale)
                self._account(k, op, case, kind, out, traced)
            if traced:
                self._replay(k, case, scale)
        finally:
            if traced:
                self.tracer.uninstall()
                if k >= DIGEST_INSTANCES:
                    # only the digest set keeps its spans
                    del self.tracer.spans[marks[0]:]
                    del self.ops_table[marks[1]:]
                    del self.op_scales[marks[1]:]
        if not traced:
            self.instances += 1

    def _account(self, k: int, op: str, case: Case, kind: str, out, traced: bool) -> None:
        self.attempted += 1
        ok = checks.verify(self.ref, op, case, kind, out)
        blob = checks.canonical(op, kind, out)
        key = (k % len(self.cases), op)
        ok = self.seen.setdefault(key, blob) == blob and ok
        if not ok:
            self.failed += 1
        if k < DIGEST_INSTANCES:
            self.digests[traced].update(f"{k} {op} {len(blob)}\n".encode() + blob)
            if op in BASIS_OPS and kind == OK and not traced:
                self.counters[op].add(out)
                if op == "basic":
                    self.det0s.append(out.det_trajectory[0])

    def _replay(self, k: int, case: Case, scale: float) -> None:
        # Drivers reach these only through private helpers or during set-up;
        # calling the public functions on the same input gives their cost.
        i = self.pool[k % len(self.pool)]
        self._new_op(k, "replay.parse")
        self.op_scales.append(scale)
        for text in (i.a_text, i.det_text, i.rhs_text):
            self.le.parse_matrix(text)
        self._new_op(k, "replay.split")
        self.op_scales.append(scale)
        self.le.find_independent_columns(case.a)

    def counter_metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        units = {"useful_ratio": "ratio", "max_entry_bits": "bits", "exchange_bound_ratio": "ratio"}
        for op, counters in self.counters.items():
            for key, value in counters.metrics().items():
                out[f"{op}.{key}"] = (value, units.get(key, "count"))
        out["det0_bits"] = (checks.det0_bits_median(self.det0s), "bits")
        return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    tail = workloads.WORKLOADS[workload]
    probe_start = speed_probe_ms()
    pool = workloads.make_pool(workload, seed)
    le, cases, setup_s, raw_setup_s = setup(pool)
    harness = Harness(le, pool, cases, Tracer() if trace else None)
    gc.collect()
    gc.freeze()

    needed = DIGEST_INSTANCES if trace else max(DIGEST_INSTANCES, workloads.min_samples(tail))
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and k >= needed) or elapsed >= HARD_STOP_S:
            break
        if trace:
            # alternate which pass goes first, so warm-up favours neither
            first = bool(k % 2)
            harness.run_instance(k, traced=first)
            harness.run_instance(k, traced=not first)
        else:
            harness.run_instance(k)
        k += 1
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_end = speed_probe_ms()

    metrics: dict[str, tuple[float, str]] = {}
    measured: dict[str, float] = {}  # unscaled, for the report only
    if trace:
        totals = harness.tracer.layer_totals(harness.op_scales)
        for name in LAYER_NAMES:
            calls, self_ms = totals.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_ms"] = (self_ms, "ms")
        metrics["trace.overhead_ratio"] = (harness.op_ns[True] / harness.op_ns[False], "ratio")
        metrics.update(harness.counter_metrics())
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{workload}-seed{seed}.json"
        with open(spans_path, "w", encoding="ascii") as handle:
            json.dump({"ops": harness.ops_table, "spans": harness.tracer.spans}, handle)
    else:
        for op, samples in harness.samples.items():
            metrics[f"{op}_p50_ms"] = (statistics.median(samples), "ms")
            metrics[f"{op}_tail_ms"] = (tail_value(samples, tail), "ms")
            measured[f"{op}_p50_ms"] = statistics.median(harness.raw_samples[op])
        metrics["setup_s"] = (setup_s, "s")
        measured["setup_s"] = raw_setup_s
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    lines = [
        f"workload {workload} seed {seed} trace {int(trace)}: {harness.instances} instances "
        f"in {wall_s:.1f} s"
        + ("" if trace else f", tail = p{tail} of {harness.instances} samples per op"),
        f"fail_frac {harness.fail_frac:.6g} ratio "
        f"({harness.failed} of {harness.attempted} ops)",
        f"digest sha256:{harness.digests[False].hexdigest()} over the first "
        f"{DIGEST_INSTANCES} instances",
        f"speed_probe start {probe_start:.3f} ms end {probe_end:.3f} ms (not gated)",
    ]
    if trace:
        lines.append(f"traced digest sha256:{harness.digests[True].hexdigest()} over the same instances")
    lines.append(
        f"times below are at reference speed: x{statistics.median(harness.scales):.3f} median scale"
        + "".join(f"; {name} {value:.6g} as measured" for name, value in measured.items())
    )
    if not trace:
        lines += [f"counter {name} {value:.6g} {unit}" for name, (value, unit) in harness.counter_metrics().items()]
    lines += [f"metric {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    if harness.first_error:
        lines.append("first unexpected exception:\n" + harness.first_error.rstrip())
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lattice_euclid" / "__init__.py").is_file():
        print(f"error: no lattice_euclid package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
