"""One benchmark worker: set up a workload, run it for a while, check it.

Started by run.py, one at a time, in a scrubbed environment.  It prints
``ready`` once its inputs exist (the end of set-up), then, unless
``--setup-only``, runs operations in a closed loop (one client, one thread)
for ``--seconds``, checks every distinct output outside the timed window,
and prints one JSON line of results.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

# lipfree resolves through the PYTHONPATH that run.py sets; main() checks it
import lipfree
from lipfree import cli, constructions

import calibration
import workloads
from tracing import LAYER_METRICS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# operations generated per second of run time; a faster run wraps around and
# repeats inputs, whose outputs must then repeat byte for byte
POOL_PER_SECOND = 12
# kernel runs whose median gives the machine's speed at the end of set-up
SETUP_KERNEL_RUNS = 5


def execute(op: workloads.Op) -> tuple[bool, str]:
    """Run one operation; returns (exited cleanly, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op.kind == "cli":
                code = cli.main(list(op.args))
            else:
                out.write(workloads.run_plan_op(*op.args))
                code = 0
    except SystemExit as exc:  # argparse usage error
        return False, f"exit {exc.code}: {err.getvalue().strip()}"
    except Exception as exc:  # an operation that raises is a failed operation
        return False, f"{type(exc).__name__}: {exc}"
    if code != 0:
        return False, f"exit {code}: {err.getvalue().strip()}"
    return True, out.getvalue()


def run_loop(pool, seconds: float, tracer: Tracer | None = None):
    """Closed loop over the pool until ``seconds`` pass (at least one operation).

    A calibration kernel runs before every operation and once after the
    last, outside the operation's timing.  Returns (pool index, ok, output,
    latency) per operation and the kernel times, one more than there are
    operations.
    """
    results, kernel_times = [], []
    deadline = perf_counter() + seconds
    while not results or perf_counter() < deadline:
        index = len(results) % len(pool)
        if tracer is not None:
            tracer.op_id = len(results)
        kernel_times.append(calibration.measure())
        t0 = perf_counter()
        ok, output = execute(pool[index])
        results.append((index, ok, output, perf_counter() - t0))
    kernel_times.append(calibration.measure())
    return results, kernel_times


def check_results(pool, results) -> tuple[int, list[str]]:
    """Failed operations (raised, nonzero exit, wrong or unrepeatable output)."""
    first: dict[int, str] = {}
    verdict: dict[int, str | None] = {}
    failed, errors = 0, []
    for index, ok, output, _ in results:
        error = None if ok else output
        if error is None and index in first:
            if output != first[index]:
                error = "output differs from an earlier run of the same input"
            else:
                error = verdict[index]
        elif error is None:
            first[index] = output
            try:
                error = workloads.check(pool[index], output)
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
            verdict[index] = error
        if error is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {index} {pool[index].args[:4]}: {error}")
    return failed, errors


def reference_latencies(results, kernel_times) -> list[float]:
    """Each operation's latency at reference speed (see calibration.py).

    The speed near an operation is the median of the six kernel runs
    around it, three before and three after, so one disturbed kernel run
    does not move it.
    """
    scaled = []
    for i, result in enumerate(results):
        near = statistics.median(kernel_times[max(0, i - 2): i + 4])
        scaled.append(result[3] * calibration.REFERENCE_S / near)
    return scaled


def untraced_summary(results, kernel_times, cycle: int) -> dict:
    """End-to-end metrics of one timed loop, in reference seconds.

    All figures are over the complete cycles of the workload's schedule, or
    over all operations when no cycle is complete.  ``ops_per_s`` is the
    median over those cycles of the cycle's operations over their summed
    latency.  The ``wall_*`` entries are the same figures unscaled, for the
    report only.
    """
    def figures(latencies):
        p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
        rates = [
            cycle / sum(latencies[end - cycle:end])
            for end in range(cycle, len(latencies) + 1, cycle)
        ]
        return {
            "ops_per_s": statistics.median(rates) if rates else len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": p90,
            "beyond_p90": sum(1 for v in latencies if v > p90),
        }

    # every complete cycle holds the same shapes, a trailing partial one only
    # the first of them, so a slower run would weigh those more
    whole = results[: len(results) // cycle * cycle] or results
    metrics = figures(reference_latencies(results, kernel_times)[: len(whole)])
    wall = figures([r[3] for r in whole])
    metrics.update({f"wall_{name}": wall[name] for name in ("ops_per_s", "latency_p50_s", "latency_p90_s")})
    metrics["kernel_s"] = statistics.median(kernel_times)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def traced_summary(pool, seconds: float, trace_path: str | None) -> tuple[dict, int, int, list[str]]:
    """Untraced then traced halves over the same operations.

    Per-layer values are per traced operation.  A traced operation fails
    when its stdout differs from the untraced run of the same input (a
    repeat in ``check_results``) or its self times add up to more than its
    wall time.
    """
    plain, plain_kernels = run_loop(pool, seconds / 2)
    tracer = Tracer()
    cache = constructions._plan_space.cache_info()
    tracer.install()
    try:
        traced, traced_kernels = run_loop(pool, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    after = constructions._plan_space.cache_info()
    if trace_path:
        tracer.write(trace_path)

    failed, errors = check_results(pool, plain + traced)
    self_sums = tracer.op_self_sums()
    for op_id, (index, _, _, latency) in enumerate(traced):
        if self_sums.get(op_id, 0.0) > latency:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {index}: self times exceed the operation's wall time")

    ops = len(traced)
    totals = tracer.layer_totals()
    metrics = {name: totals.get(name, 0) / ops for name in LAYER_METRICS}
    lookups = (after.hits - cache.hits) + (after.misses - cache.misses)
    metrics["constructions.plan_space_cache.hit_ratio"] = (
        (after.hits - cache.hits) / lookups if lookups else 0.0
    )
    # in reference seconds, so that a change of machine speed between the
    # halves does not show as tracing overhead
    plain_ref = reference_latencies(plain, plain_kernels)
    traced_ref = reference_latencies(traced, traced_kernels)
    metrics["trace.traced_ops_per_s"] = ops / sum(traced_ref)
    metrics["trace.untraced_ops_per_s"] = len(plain) / sum(plain_ref)
    # time of the operations both halves ran, traced over untraced
    common = min(ops, len(plain))
    metrics["trace.overhead_ratio"] = sum(traced_ref[:common]) / sum(plain_ref[:common])
    return metrics, len(plain) + ops, failed, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, help="spec files; removed on exit")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    source = os.path.join(ROOT, "src", "lipfree")
    if os.path.dirname(os.path.abspath(lipfree.__file__)) != source:
        sys.stderr.write(f"lipfree imported from {lipfree.__file__}, not {source}\n")
        return 2

    os.makedirs(args.workdir, exist_ok=True)
    try:
        cycle = workloads.CYCLE[args.workload]
        count = cycle * max(3, -(-int(POOL_PER_SECOND * args.seconds) // cycle))
        pool = workloads.generate(args.workload, args.seed, count, args.workdir)
        print("ready", flush=True)
        # the machine's speed right after set-up, to scale the set-up time
        setup_kernel_s = calibration.measure(SETUP_KERNEL_RUNS)
        if args.setup_only:
            print(json.dumps({"setup_kernel_s": setup_kernel_s}))
            return 0
        if args.trace:
            metrics, attempted, failed, errors = traced_summary(pool, args.seconds, args.spans)
        else:
            results, kernel_times = run_loop(pool, args.seconds)
            metrics = untraced_summary(results, kernel_times, cycle)
            attempted = len(results)
            failed, errors = check_results(pool, results)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "setup_kernel_s": setup_kernel_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
