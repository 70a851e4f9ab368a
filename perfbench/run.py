"""Benchmark runner for lipfree.

    python3 perfbench/run.py --workload norm-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run starts worker processes one at a time from the repository's own
``src/`` with a scrubbed environment: one discarded set-up (so bytecode
caches exist), further set-ups that are timed only, and one worker that
sets up and then measures.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  Times
of the end-to-end metrics are reference seconds: each timed interval is
scaled by the calibration kernel run next to it (see calibration.py), and
the report prints the wall-clock figures beside them.  The
last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

WORKLOADS = ("norm-dense", "norm-sparse", "construct-verify")
SETUP_SAMPLES = 7  # timed set-ups per untraced run, the measuring worker's included
KERNEL_RUNS = 5  # calibration kernel runs just before each worker starts
RUN_LIMIT_S = 170  # every worker of one workload run ends within this


def _design() -> dict:
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def worker_env() -> dict:
    """Only what the worker needs: no LIPFREE_HORIZON, a fixed hash seed."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "lipfree")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


class WorkerError(RuntimeError):
    pass


def start_worker(args: list[str], deadline: float) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its ``ready`` line.

    Returns it, the set-up time and the calibration kernel's time just
    before the start.
    """
    kernel_s = calibration.measure(KERNEL_RUNS)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        finish(proc, deadline)
        raise WorkerError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup, kernel_s


def reference_setup(setup: float, kernel_before: float, kernel_after: float) -> float:
    """Set-up time at reference speed, from the kernel runs just before and after it."""
    return setup * calibration.REFERENCE_S / ((kernel_before + kernel_after) / 2)


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """The rest of a worker's stdout; kills it past the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    workdir = os.path.join(RUN_DIR, f"work-{os.getpid()}")

    def setup_only() -> float:
        proc, setup, before = start_worker([*common, "--workdir", workdir, "--setup-only"], deadline)
        after = json.loads(finish(proc, deadline).strip().splitlines()[-1])["setup_kernel_s"]
        return reference_setup(setup, before, after)

    setup_only()  # discarded: writes bytecode caches and warms the file cache
    setups = [setup_only() for _ in range(SETUP_SAMPLES - 1)] if not trace else []
    spans = os.path.join(RUN_DIR, f"spans-{workload}-{seed}.json")
    proc, setup, before = start_worker(
        [*common, "--trace", str(trace), "--workdir", workdir, "--spans", spans], deadline
    )
    lines = finish(proc, deadline).strip().splitlines()
    result = json.loads(lines[-1])
    if not trace:
        setups.append(reference_setup(setup, before, result["setup_kernel_s"]))
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def report(workload: str, result: dict, units: dict) -> None:
    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload}: {attempted} operations, {failed} failed")
    for name, value in metrics.items():
        if name in units:
            print(f"  {name:48s} {value:14.6g} {units[name]}")
    if "latency_p90_s" in metrics:
        print(f"  {'failed_ratio':48s} {failed / attempted:14.6g} ratio")
        print(f"  ({metrics['beyond_p90']} samples beyond latency_p90_s)")
        print(
            f"  times above are reference seconds; wall clock: "
            f"ops_per_s {metrics['wall_ops_per_s']:.4g}, "
            f"latency_p50_s {metrics['wall_latency_p50_s']:.4g}, "
            f"latency_p90_s {metrics['wall_latency_p90_s']:.4g}, "
            f"calibration kernel {metrics['kernel_s'] * 1e3:.3g} ms "
            f"(reference {calibration.REFERENCE_S * 1e3:.3g} ms)"
        )
    for error in result["errors"]:
        print(f"  FAILED {error}")


def main(argv=None) -> int:
    design = _design()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=design["default_seed"])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lipfree", "__init__.py")):
        sys.stderr.write(f"no lipfree sources under {ROOT}/src; nothing to benchmark\n")
        return 2
    units = _units()
    print(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"cpu={platform.processor() or platform.machine()} "
        f"lipfree_src_sha256={source_digest()} seed={args.seed} seconds={args.seconds}"
    )
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
            report(workload, results[workload], units)
    except WorkerError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(os.path.join(RUN_DIR, f"work-{os.getpid()}"), ignore_errors=True)

    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, value in result["metrics"].items():
            if name in units:
                metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
