"""Tests of the benchmark itself: seeded inputs, checks, digests and tracing.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads
from checks import BASIS_OPS, OpCounters, exchange_bound
from tracing import LAYER_NAMES


def tiny_instance(rhs: list[int]) -> workloads.Instance:
    a = [[2, 0, 1, 4], [0, 3, 1, 5]]
    det = [[3, 1], [1, 2]]
    return workloads.Instance(
        a_text=workloads.matrix_text(a),
        det_text=workloads.matrix_text(det),
        rhs_text=workloads.matrix_text([[e] for e in rhs]),
        rank=workloads.rank(a),
        rhs_in_span=True,
    )


@pytest.fixture(scope="module")
def loaded():
    pool = [tiny_instance([5, 7])]
    le, cases, setup_s, raw_setup_s = run.setup(pool)
    assert setup_s > 0 and raw_setup_s > 0
    return le, pool, cases


def sabotaged(le, **overrides):
    fake = SimpleNamespace(**{k: getattr(le, k) for k in dir(le) if not k.startswith("__")})
    for name, fn in overrides.items():
        setattr(fake, name, fn)
    return fake


def test_instances_are_a_function_of_the_seed():
    assert workloads.make_instance("wide", 3, 1) == workloads.make_instance("wide", 3, 1)
    assert workloads.make_instance("wide", 3, 1) != workloads.make_instance("wide", 4, 1)


def test_lowrank_instances_have_rank_eight_and_a_singular_det_block():
    inst = workloads.make_instance("lowrank", 1, 1)
    assert inst.rank == 8
    det_rows = [[int(t) for t in line.split()] for line in inst.det_text.splitlines()[1:]]
    assert workloads.rank(det_rows) == 8
    assert not inst.rhs_in_span  # odd instances draw a random right-hand side


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    for tail in workloads.WORKLOADS.values():
        n = workloads.min_samples(tail)
        samples = [float(v) for v in range(1, n + 1)]
        assert sum(v > run.tail_value(samples, tail) for v in samples) >= 10
        fewer = samples[:-1]
        assert sum(v > run.tail_value(fewer, tail) for v in fewer) < 10
    assert run.tail_value([float(v) for v in range(1, 41)], 75) == 30.0


def test_correct_outputs_pass_every_check(loaded):
    le, pool, cases = loaded
    harness = run.Harness(le, pool, cases)
    harness.run_instance(0)
    assert (harness.attempted, harness.failed) == (6, 0)


def wrong_basis(le):
    def op(a):
        result = le.basic_basis(a)
        cols = result.basis.columns
        doubled = le.Matrix((tuple(2 * e for e in cols[0]),) + cols[1:], rows=result.basis.rows)
        return dataclasses.replace(result, basis=doubled)

    return {"basic_basis": op}


def over_bound(le):
    def op(a):
        result = le.basic_basis(a)
        return dataclasses.replace(result, exchanges=exchange_bound(result.det_trajectory[0]) + 1)

    return {"basic_basis": op}


def wrong_det(le):
    return {"lattice_determinant": lambda b: le.lattice_determinant(b) + 1}


def wrong_solution(le):
    def op(a, rhs):
        x = le.diophantine_solve(a, rhs)
        return (x[0] + 1,) + x[1:]

    return {"diophantine_solve": op}


def false_infeasible(le):
    return {"diophantine_solve": lambda a, rhs: None}


def raises(le):
    def op(a):
        raise RuntimeError("boom")

    return {"rowwise_variant_basis": op}


@pytest.mark.parametrize(
    "sabotage", [wrong_basis, over_bound, wrong_det, wrong_solution, false_infeasible, raises]
)
def test_a_wrong_output_counts_as_a_failed_op(loaded, sabotage):
    le, pool, cases = loaded
    harness = run.Harness(sabotaged(le, **sabotage(le)), pool, cases)
    harness.run_instance(0)
    assert harness.failed == 1
    assert harness.fail_frac == pytest.approx(1 / 6)


def test_an_output_that_changes_between_passes_counts_as_failed(loaded):
    le, pool, cases = loaded
    kernel = (3, 2, -6, 0)  # tiny_instance's A @ kernel == 0
    calls = []

    def drifting(a, rhs):
        # a valid solution each time, but a different one on every call
        calls.append(rhs)
        x = le.diophantine_solve(a, rhs)
        return tuple(e + len(calls) * z for e, z in zip(x, kernel))

    harness = run.Harness(sabotaged(le, diophantine_solve=drifting), pool, cases)
    harness.run_instance(0)
    harness.run_instance(1)  # same case again: the pool has one instance
    assert harness.failed == 1


def test_traced_pass_matches_untraced_and_restores_the_package(loaded):
    le, pool, cases = loaded
    harness = run.Harness(le, pool, cases, run.Tracer())
    original = le.euclid.solve_system
    harness.run_instance(0)
    harness.run_instance(0, traced=True)
    assert harness.failed == 0
    assert le.euclid.solve_system is original
    assert le.variants.solve_system is original
    assert harness.digests[True].digest() == harness.digests[False].digest()
    assert len(harness.op_scales) == len(harness.ops_table)
    totals = harness.tracer.layer_totals([1.0] * len(harness.ops_table))
    assert totals["euclid.basic_basis"][0] == 1
    assert totals["matio.parse_matrix"][0] == 3
    assert totals["euclid.find_independent_columns"][0] == 1
    assert all(self_ms >= 0 for _, self_ms in totals.values())


def test_traced_passes_after_the_digest_set_keep_no_spans(loaded):
    le, pool, cases = loaded
    harness = run.Harness(le, pool, cases, run.Tracer())
    harness.run_instance(0, traced=True)
    kept = (len(harness.tracer.spans), len(harness.ops_table), len(harness.op_scales))
    harness.run_instance(run.DIGEST_INSTANCES, traced=True)
    assert (len(harness.tracer.spans), len(harness.ops_table), len(harness.op_scales)) == kept
    assert harness.op_ns[True] > 0 and harness.failed == 0


def test_run_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    for entry in spec["workloads"]:
        tail = workloads.WORKLOADS[entry["name"]]
        assert f"p{tail} of >={workloads.min_samples(tail)} samples" in entry["why"]
        assert f"default seed {run.DEFAULT_SEED}" in entry["why"]
    end_to_end = [f"{op}_{kind}_ms" for op in run.OPS for kind in ("p50", "tail")]
    assert [m["name"] for m in spec["end_to_end"]] == end_to_end + ["setup_s", "peak_rss_mb"]
    counters = [f"{op}.{key}" for op in BASIS_OPS for key in OpCounters().metrics()]
    layers = [f"{name}.{kind}" for name in LAYER_NAMES for kind in ("calls", "self_ms")]
    per_layer = layers + ["trace.overhead_ratio"] + counters + ["det0_bits"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
