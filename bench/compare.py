"""Alternating parent/change benchmark pairs, written as one BENCH json.

    python3 bench/compare.py --parent DIR --change DIR --seed 1 --out BENCH_2.json

DIR is a full checkout (with ``perfbench/`` and ``src/``) of each side.  Each
of the ``PAIRS`` pairs p runs ``perfbench/run.py --workload all`` once per
side, the parent first when p is even and the change first when p is odd.
For every end-to-end metric of every workload the output holds each side's
runs, median and quartiles (``statistics.quantiles(n=4)``), and how many
pairs the change won in the direction ``BENCHMARK.json`` calls better.  One
traced run per side adds the per-layer figures.  ``bench/adversarial.py``
runs ``ADVERSARIAL_RUNS`` times on each side's sources, alternating in the
same way, so that drift of the host over the run reaches both sides; each of
its timed entries keeps both sides' runs, median and quartiles of the
seconds, and in how many of the alternating pairs the change was faster,
as the end-to-end metrics do; each hash is kept once when every run of both
sides agrees on it, else as each side's list of runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10
ADVERSARIAL_RUNS = 4


def run_benchmark(checkout: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"failed": result["failed"], "attempted": result["attempted"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def adversarial(checkout: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "adversarial.py")],
        env={**os.environ, "PYTHONPATH": os.path.join(checkout, "src")},
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"runs": values, "q1": q1, "median": statistics.median(values), "q3": q3}


def compared(parent: list[float], change: list[float], lower: bool) -> dict:
    """Both sides' summaries of paired runs, and how many pairs the change won."""
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    return {"parent": summary(parent), "change": summary(change),
            "change_wins": wins, "pairs": len(parent)}


def merge_runs(parent: list, change: list):
    """One nested result from each side's paired runs: timings (floats) as
    ``compared`` in seconds, anything else once if every run of both sides
    agrees, else as each side's list of runs."""
    first = parent[0]
    if isinstance(first, dict):
        return {key: merge_runs([run[key] for run in parent], [run[key] for run in change])
                for key in first}
    if isinstance(first, float):
        return compared(parent, change, lower=True)
    if all(run == first for run in parent + change):
        return first
    return {"parent": parent, "change": change}


def adversarial_summaries(sides: dict) -> dict:
    runs = {"parent": [], "change": []}
    for p in range(ADVERSARIAL_RUNS):
        order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(adversarial(sides[side]))
            print(f"adversarial {p} {side} done", file=sys.stderr, flush=True)
    return merge_runs(runs["parent"], runs["change"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sides = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}

    runs = {"parent": [], "change": []}
    for p in range(PAIRS):
        order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_benchmark(sides[side], args.seed, 0))
            print(f"pair {p} {side} done", file=sys.stderr, flush=True)

    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        if name.rsplit(".", 1)[-1] not in better:
            continue
        metrics[name] = compared([r["metrics"][name] for r in runs["parent"]],
                                 [r["metrics"][name] for r in runs["change"]],
                                 lower=better[name.rsplit(".", 1)[-1]] == "lower")
    out = {
        "seed": args.seed,
        "pairs": PAIRS,
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in sides},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in sides},
        "end_to_end": metrics,
        "traced": {side: run_benchmark(sides[side], args.seed, 1)["metrics"] for side in sides},
        "adversarial": adversarial_summaries(sides),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
