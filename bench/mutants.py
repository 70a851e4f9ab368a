"""Committed mutations: does the test suite catch each one?

    python3 bench/mutants.py

Each entry of ``MUTANTS`` is (file under ``src/``, exact old text,
replacement, test files).  For each entry the runner copies ``src/`` to a
temporary directory, replaces the old text, which must occur exactly once,
and runs the named test files on the copy (``pytest -x``, from the
temporary directory, so no cache or example database lands in the repo).
A mutant is killed when pytest fails, and survives when it passes.  One line
per mutant gives the verdict, the seconds taken and the old text's first
line; the last line gives the kill rate and the total seconds.

A change that rewrites mutated code updates the entry in the same change:
``tests/test_mutants.py`` checks that every old text occurs once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 900


class Mutant(NamedTuple):
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # relative to the repo


NORM = ("tests/test_norm_engine.py",)
METRIC = ("tests/test_metric_core.py",)
CONSTRUCTIONS = ("tests/test_constructions.py",)

MUTANTS = [
    # free_norm's three certificate checks
    Mutant("lipfree/norm_engine.py", "    if shipped != masses:\n", "    if False:\n", NORM),
    Mutant(
        "lipfree/norm_engine.py",
        "    if sum((m * dist[x][y] for x, y, m in plan), Fraction(0)) != value:\n",
        "    if False:\n",
        NORM,
    ),
    Mutant("lipfree/norm_engine.py", "    if pairing(function, element) != value:\n", "    if False:\n", NORM),
    # the tree's two O(n) structure checks
    Mutant("lipfree/norm_engine.py", "        if ints[up[-1]] != c:\n", "        if False:\n", NORM),
    Mutant(
        "lipfree/norm_engine.py",
        "        if any(ints[s][t] != k for s, t, k in zip(order, order[1:], keys)):\n",
        "        if False:\n",
        NORM,
    ),
    # the tree route: the increment's sign, the halving, the line's root end,
    # leftovers and partial masses in _matched, ties and the root in _dendrogram
    Mutant(
        "lipfree/norm_engine.py",
        "(length[v] if m > 0 else -length[v] if m < 0 else 0)",
        "(-length[v] if m > 0 else length[v] if m < 0 else 0)",
        NORM,
    ),
    Mutant("lipfree/norm_engine.py", "        half = 2\n", "        half = 1\n", NORM),
    Mutant(
        "lipfree/norm_engine.py",
        "up = sorted(range(n), key=c.__getitem__, reverse=True)",
        "up = sorted(range(n), key=c.__getitem__)",
        NORM,
    ),
    Mutant("lipfree/norm_engine.py", "    return sources or sinks\n", "    return []\n", NORM),
    Mutant("lipfree/norm_engine.py", "            sources[-1] = (x, a - m)\n", "            sources.pop()\n", NORM),
    Mutant(
        "lipfree/norm_engine.py",
        "        if spine and height[spine[-1]] == k:\n",
        "        if False:\n",
        NORM,
    ),
    Mutant("lipfree/norm_engine.py", "            parent[child] = spine[-1]\n", "            pass\n", NORM),
    # the transport's dual gcd, applied to the duals but not to their scale
    Mutant(
        "lipfree/norm_engine.py",
        "beta, beta_scale = [b // g for b in beta], transport.cost_scale // g",
        "beta, beta_scale = [b // g for b in beta], transport.cost_scale",
        NORM,
    ),
    # both thinning rules
    Mutant(
        "lipfree/constructions.py",
        "low, high = limit, (3 * limit + value) / 4",
        "low, high = limit, (limit + value) / 2",
        CONSTRUCTIONS,
    ),
    Mutant(
        "lipfree/constructions.py",
        "low, high = (limit + value) / 2, limit",
        "low, high = value, limit",
        CONSTRUCTIONS,
    ),
    # one validation route: "neighbour" read as ultrametric, positivity
    # skipping a column, rounded ints kept, no slack past the cap, no
    # symmetry tolerance, row 0's diagonal unchecked, Prim rerun on "neighbour"
    Mutant(
        "lipfree/metric_core.py",
        '    if space.certificate == "ultrametric":\n',
        '    if space.certificate in ("ultrametric", "neighbour"):\n',
        METRIC,
    ),
    Mutant(
        "lipfree/metric_core.py",
        "            for j in range(i + 1, len(row)):\n                if row[j] <= tol",
        "            for j in range(i + 2, len(row)):\n                if row[j] <= tol",
        METRIC,
    ),
    Mutant("lipfree/metric_core.py", "    if slack:  # rounded ints are not kept", "    if False:  # rounded ints are not kept", METRIC),
    Mutant(
        "lipfree/metric_core.py",
        "return [v.numerator * scale // v.denominator for v in values], scale, 1",
        "return [v.numerator * scale // v.denominator for v in values], scale, 0",
        METRIC,
    ),
    Mutant(
        "lipfree/metric_core.py",
        "if v is not w and v != w and abs(v - w) > tol:",
        "if v is not w and v != w:",
        METRIC,
    ),
    Mutant("lipfree/metric_core.py", "        if dist[i][i]:\n", "        if i and dist[i][i]:\n", METRIC),
    Mutant(
        "lipfree/metric_core.py",
        'if space.certificate in (None, "line") and _ultrametric_certificate(',
        'if space.certificate in (None, "line", "neighbour") and _ultrametric_certificate(',
        METRIC,
    ),
]


def source(mutant: Mutant) -> str:
    with open(os.path.join(ROOT, "src", mutant.file), encoding="utf-8") as handle:
        return handle.read()


def run(mutant: Mutant) -> tuple[str, float]:
    """The mutant's verdict, "killed" or "survived", and the seconds its tests took."""
    text = source(mutant)
    if text.count(mutant.old) != 1:
        raise SystemExit(f"the old text occurs {text.count(mutant.old)} times in {mutant.file}: {mutant.old!r}")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(tmp, "src", mutant.file), "w", encoding="utf-8") as handle:
            handle.write(text.replace(mutant.old, mutant.new))
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 *(os.path.join(ROOT, test) for test in mutant.tests)],
                cwd=tmp, env={**os.environ, "PYTHONPATH": os.path.join(tmp, "src")},
                capture_output=True, timeout=TIMEOUT_S,
            )
            verdict = "survived" if done.returncode == 0 else "killed"
        except subprocess.TimeoutExpired:
            verdict = "killed"  # a mutant that hangs the tests is caught by any time limit
        return verdict, time.perf_counter() - start


def main() -> None:
    killed, total = 0, 0.0
    for mutant in MUTANTS:
        verdict, seconds = run(mutant)
        killed += verdict == "killed"
        total += seconds
        print(f"{verdict:8} {seconds:7.1f} s  {mutant.file}: {mutant.old.strip().splitlines()[0]}", flush=True)
    print(f"killed {killed} of {len(MUTANTS)} in {total:.1f} s")


if __name__ == "__main__":
    main()
