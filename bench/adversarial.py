"""Worst case for the common denominator of the metric scans.

    PYTHONPATH=src python3 bench/adversarial.py

Every entry above the diagonal of an n-point matrix is 1 + 1/p for its own
prime p, so the lcm of the denominators is the product of n(n-1)/2 primes.
All entries lie in (1, 2), so the matrix is a metric and the full triangle
scan runs; it is not an ultrametric.  Prints one JSON object: per size, the
median wall seconds over ``REPEATS`` runs of ``validate_metric`` on the
matrix and of ``is_ultrametric`` on the validated space (a ``file:`` family
runs both), and per size in ``NORM_SIZES`` of ``free_norm_flow`` on a seeded
element that supports every point (``free_norm(...).value`` where that
exists, the Fraction transport of earlier versions otherwise), with a hash
of the norm it returned.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from fractions import Fraction
from time import perf_counter

from lipfree import FreeElement, free_norm_flow, is_ultrametric, validate_metric

SIZES = (24, 40, 64, 96, 128, 192)
NORM_SIZES = (24, 40, 64)
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
        if n in NORM_SIZES:
            rng = random.Random(n)
            element = FreeElement.from_pairs(
                (p, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)))
                for p in range(1, n)
            )
            out[f"n={n}"]["free_norm_s"] = median_seconds(lambda: free_norm_flow(element, space))
            value = str(free_norm_flow(element, space)).encode()
            out[f"n={n}"]["free_norm_sha256"] = hashlib.sha256(value).hexdigest()[:16]
    print(json.dumps({"repeats": REPEATS, "sizes": out}))


if __name__ == "__main__":
    main()
