"""Worst case for the common denominator of the metric scans.

    PYTHONPATH=src python3 bench/adversarial.py

Every entry above the diagonal of an n-point matrix is 1 + 1/p for its own
prime p, so the lcm of the denominators is the product of n(n-1)/2 primes.
All entries lie in (1, 2), so the matrix is a metric and the full triangle
scan runs; it is not an ultrametric.  Prints one JSON object: per size, the
median wall seconds over ``REPEATS`` runs of ``validate_metric`` on the
matrix and of ``is_ultrametric`` on the validated space (a ``file:`` family
runs both).
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

from lipfree import is_ultrametric, validate_metric

SIZES = (40, 64, 96, 128, 192)
REPEATS = 3


def primes(count: int, start: int = 1000) -> list[int]:
    found: list[int] = []
    candidate = start
    while len(found) < count:
        candidate += 1
        if all(candidate % d for d in range(2, int(candidate**0.5) + 1)):
            found.append(candidate)
    return found


def adversarial_matrix(n: int) -> list[list[Fraction]]:
    denominators = iter(primes(n * (n - 1) // 2))
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = 1 + Fraction(1, next(denominators))
    return mat


def median_seconds(call) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    out = {}
    for n in SIZES:
        mat = adversarial_matrix(n)
        space = validate_metric(mat)
        out[f"n={n}"] = {
            "validate_metric_s": median_seconds(lambda: validate_metric(mat)),
            "is_ultrametric_s": median_seconds(lambda: is_ultrametric(space)),
        }
    print(json.dumps({"repeats": REPEATS, "sizes": out}))


if __name__ == "__main__":
    main()
