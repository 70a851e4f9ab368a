"""Exact rational simplex for small dense LPs.

Solves  max c.x  subject to  A x <= b,  x >= 0  with b >= 0, so the slack
basis is feasible and no phase-1 is needed.  The tableau is kept integral
(fraction-free pivoting: every entry is a subdeterminant of the scaled input
divided by the previous pivot, so the divisions below are exact); real
tableau values are entry/den.  Dantzig's rule with a switch to Bland's rule
after a stall guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .metric_core import integer_scale

MAX_PIVOTS = 20000


@dataclass(frozen=True)
class LPSolution:
    value: Fraction
    x: tuple[Fraction, ...]


def solve_lp_max(c: Sequence, rows: Sequence[Sequence], rhs: Sequence) -> LPSolution:
    n = len(c)
    m = len(rows)
    if any(v < 0 for v in rhs):
        raise ValueError("solve_lp_max needs b >= 0 (origin-feasible form)")

    # scale each constraint row (with its rhs) and the objective to integers
    tableau: list[list[int]] = []
    for row, b in zip(rows, rhs):
        if len(row) != n:
            raise ValueError("constraint row length mismatch")
        tableau.append(integer_scale([*row, b])[0])
    obj, obj_scale = integer_scale(c)

    width = n + m + 1
    for i, row in enumerate(tableau):
        body = row[:-1] + [0] * m + [row[-1]]
        body[n + i] = 1
        tableau[i] = body
    tableau.append(obj + [0] * (m + 1))

    den = 1
    basis = list(range(n, n + m))
    zrow = tableau[m]
    rhs_col = width - 1

    pivots = 0
    stall = 0
    bland = False
    last_value = None
    while True:
        # entering column
        enter = -1
        if bland:
            for j in range(width - 1):
                if zrow[j] > 0:
                    enter = j
                    break
        else:
            best = 0
            for j in range(width - 1):
                v = zrow[j]
                if v > best:
                    best = v
                    enter = j
        if enter < 0:
            break

        # ratio test: min rhs/col over rows with positive column entry
        leave = -1
        best_num = best_den = 0
        for r in range(m):
            a = tableau[r][enter]
            if a > 0:
                bval = tableau[r][rhs_col]
                if leave < 0 or bval * best_den < best_num * a or (
                    bval * best_den == best_num * a and basis[r] < basis[leave]
                ):
                    leave, best_num, best_den = r, bval, a
        if leave < 0:
            raise RuntimeError("LP is unbounded")

        pivot_row = tableau[leave]
        p = pivot_row[enter]
        for r in range(m + 1):
            if r == leave:
                continue
            row = tableau[r]
            f = row[enter]
            if f == 0:
                if den != 1 or p != 1:
                    tableau[r] = [(p * v) // den for v in row]
            else:
                tableau[r] = [(p * v - f * w) // den for v, w in zip(row, pivot_row)]
        den = p
        basis[leave] = enter
        zrow = tableau[m]

        pivots += 1
        if pivots > MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")
        value = Fraction(-zrow[rhs_col], den)
        if value == last_value:
            stall += 1
            if stall > m + n + 4:
                bland = True
        else:
            stall = 0
            last_value = value

    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tableau[r][rhs_col], den)
    value = Fraction(-zrow[rhs_col], den) / obj_scale
    return LPSolution(value=value, x=tuple(x))
