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
of the norm it returned.  The same matrices, read as a family, time the
admissibility probe: the minimum-ratio cycle ``admissibility`` at every size
in ``ADMISSIBILITY_SIZES`` (skipped where the sources lack it) and the exact
LP ``admissibility_lp`` at ``ADMISSIBILITY_LP_SIZES``, each with a hash of
the tau it returned.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from fractions import Fraction
from time import perf_counter

from lipfree import FreeElement, admissibility_lp, free_norm_flow, is_ultrametric, validate_metric
from lipfree.space_catalog import family_from_space

try:
    from lipfree import admissibility
except ImportError:  # sources from before the cycle route
    admissibility = None

SIZES = (16, 24, 32, 40, 64, 96, 128, 192)
NORM_SIZES = (24, 40, 64)
ADMISSIBILITY_SIZES = (16, 32, 64, 128)
ADMISSIBILITY_LP_SIZES = (16, 32)
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


def timed(call) -> tuple[float, object]:
    """Median wall seconds of ``REPEATS`` calls, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        result = call()
        times.append(perf_counter() - start)
    return statistics.median(times), result


def digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def main() -> None:
    out = {}
    for n in SIZES:
        mat = adversarial_matrix(n)
        space = validate_metric(mat)
        out[f"n={n}"] = {
            "validate_metric_s": timed(lambda: validate_metric(mat))[0],
            "is_ultrametric_s": timed(lambda: is_ultrametric(space))[0],
        }
        if n in NORM_SIZES:
            rng = random.Random(n)
            element = FreeElement.from_pairs(
                (p, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)))
                for p in range(1, n)
            )
            seconds, value = timed(lambda: free_norm_flow(element, space))
            out[f"n={n}"]["free_norm_s"] = seconds
            out[f"n={n}"]["free_norm_sha256"] = digest(value)
        if n not in ADMISSIBILITY_SIZES:
            continue
        family = family_from_space(space)
        for name, probe, sizes in (
            ("admissibility", admissibility, ADMISSIBILITY_SIZES),
            ("admissibility_lp", admissibility_lp, ADMISSIBILITY_LP_SIZES),
        ):
            if probe is not None and n in sizes:
                seconds, result = timed(lambda: probe(family, n))
                out[f"n={n}"][f"{name}_s"] = seconds
                out[f"n={n}"][f"{name}_tau_sha256"] = digest(result.tau)
    print(json.dumps({"repeats": REPEATS, "sizes": out}))


if __name__ == "__main__":
    main()
