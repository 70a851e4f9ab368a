"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), HERE) if p not in sys.path]

import pytest  # noqa: E402

import calibration  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, TRACED, Tracer, lipfree_modules  # noqa: E402

# call sites that look a traced function up through another module
CROSS_MODULE_BINDINGS = (
    ("cli", "main"),
    ("cli", "free_norm_lp"),
    ("cli", "admissibility_lp"),
    ("cli", "verify_l1_isometry"),
    ("cli", "parse_space"),
    ("norm_engine", "solve_lp_max"),
    ("norm_engine", "min_cost_transport"),
    ("norm_engine", "intersect_halfplanes"),
    ("constructions", "solve_lp_max"),
    ("constructions", "validate_metric"),
    ("constructions", "is_ultrametric"),
    ("constructions", "lip_norm"),
    ("space_catalog", "load_space"),
    ("metric_core", "validate_metric"),
)


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_traced_run_wraps_every_binding():
    modules = lipfree_modules()
    originals = {
        f"{name}.{function}": getattr(sys.modules[f"lipfree.{name}"], function)
        for name, functions in TRACED.items()
        for function in functions
    }
    by_id = {id(f): span for span, f in originals.items()}
    bindings = [
        (module, attribute, by_id[id(value)])
        for module in modules
        for attribute, value in vars(module).items()
        if id(value) in by_id and value is originals[by_id[id(value)]]
    ]
    tracer = Tracer()
    tracer.install()
    try:
        for module, attribute, span in bindings:
            assert getattr(module, attribute).perfbench_span == span, (module, attribute)
        for name, attribute in CROSS_MODULE_BINDINGS:
            assert hasattr(getattr(sys.modules[f"lipfree.{name}"], attribute), "perfbench_span")
        # a binding under any name in any module is wrapped
        for module in modules:
            for attribute, value in vars(module).items():
                assert id(value) not in by_id, f"{module.__name__}.{attribute} is not traced"
    finally:
        tracer.uninstall()
    for module, attribute, span in bindings:
        assert getattr(module, attribute) is originals[span]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_stdout_identical(workload, tmp_path):
    pool = workloads.generate(workload, 1, 20, str(tmp_path))
    plain = [worker.execute(op) for op in pool]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for op_id, op in enumerate(pool):
            tracer.op_id = op_id
            traced.append(worker.execute(op))
    finally:
        tracer.uninstall()
    for op, (ok, out), traced_result in zip(pool, plain, traced):
        assert ok, out
        assert workloads.check(op, out) is None, op.args
        assert traced_result == (ok, out), op.args
    sums = tracer.op_self_sums()
    assert set(sums) == set(range(len(pool)))
    assert tracer.layer_totals()["space_catalog.oracle.calls"] > 0


def test_cycle_lengths():
    assert workloads.CYCLE["construct-verify"] == len(workloads._CV_SLOTS)
    assert set(workloads.CYCLE) == set(workloads.WORKLOADS)


def test_inputs_follow_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 5, 30, str(tmp_path))
        again = workloads.generate(workload, 5, 30, str(tmp_path))
        other = workloads.generate(workload, 6, 30, str(tmp_path))
        assert [op.args for op in first] == [op.args for op in again]
        assert [op.args for op in first] != [op.args for op in other]


def test_benchmark_json_matches_the_runner():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert [m["name"] for m in bench["per_layer"]] == list(LAYER_METRICS)
    assert [m["unit"] for m in bench["per_layer"]] == list(LAYER_METRICS.values())
    results = [(0, True, "", 0.5), (1, True, "", 1.0)]
    summary = worker.untraced_summary(results, [calibration.REFERENCE_S] * 3, 1)
    reported = {name for name in summary if not name.startswith("wall_")}
    assert {m["name"] for m in bench["end_to_end"]} == (
        reported - {"beyond_p90", "kernel_s"}
    ) | {"setup_s"}


def test_times_scale_to_the_reference_speed():
    ref = calibration.REFERENCE_S
    results = [(i, True, "", 0.1) for i in range(8)]
    assert worker.reference_latencies(results, [ref] * 9) == pytest.approx([0.1] * 8)
    # a machine at half speed: the kernel takes twice as long, so do the operations
    slow = [(i, True, "", 0.2) for i in range(8)]
    assert worker.reference_latencies(slow, [2 * ref] * 9) == pytest.approx([0.1] * 8)
    # one disturbed kernel run does not move the operations next to it
    kernels = [ref] * 9
    kernels[4] = 5 * ref
    assert worker.reference_latencies(results, kernels) == pytest.approx([0.1] * 8)
    assert run.reference_setup(0.6, 2 * ref, 4 * ref) == pytest.approx(0.2)


def test_figures_cover_complete_cycles():
    # cycles of a short and a long operation; a trailing short one is left out
    results = [(i, True, "", 1.0 if i % 2 else 0.1) for i in range(5)]
    summary = worker.untraced_summary(results, [calibration.REFERENCE_S] * 6, 2)
    assert summary["latency_p50_s"] == pytest.approx(0.55)
    assert summary["ops_per_s"] == pytest.approx(2 / 1.1)
