"""A fixed reference computation that measures the machine's current speed.

The shared host this benchmark is meant for changes speed by up to half
within seconds and between hours, and it changes the speed of every
interpreter-bound program alike.  So every timed interval is paired with
runs of this kernel taken next to it in time, and reported as
``interval * REFERENCE_S / kernel_time``: seconds on a machine where the
kernel takes ``REFERENCE_S``.  The kernel is the same pure-Python mix as
lipfree's hot loops (Fraction arithmetic, as in the simplex, and an
integer triple scan, as in ``validate_metric``), and it lives here, so no
change to lipfree changes it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# kernel time that defines one reference second (about its time on a
# 2-vCPU Xeon VM under CPython 3.11)
REFERENCE_S = 0.0025

_N = 26
_MATRIX = tuple(tuple((i * 7 + j * 3) % 5 + 1 for j in range(_N)) for i in range(_N))


def kernel() -> int:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, 7 + i % 5) * Fraction(3, 1 + i % 4)
    d = _MATRIX
    bad = 0
    for i in range(_N):
        row = d[i]
        for j in range(_N):
            dij = row[j]
            for k in range(_N):
                if dij > row[k] + d[k][j]:
                    bad += 1
    return bad + total.numerator % 7


def measure(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` kernel runs, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)
