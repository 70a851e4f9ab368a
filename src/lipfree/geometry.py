"""Exact planar convex polygon clipping (half-plane intersection)."""

from __future__ import annotations

from fractions import Fraction

Point = tuple[Fraction, Fraction]


def clip_halfplane(poly: list[Point], a: Fraction, b: Fraction, c: Fraction) -> list[Point]:
    """Sutherland-Hodgman step: keep the part of the polygon with a*u + b*v <= c."""
    if not poly:
        return []
    out: list[Point] = []
    m = len(poly)
    for idx in range(m):
        cur = poly[idx]
        nxt = poly[(idx + 1) % m]
        cur_val = a * cur[0] + b * cur[1]
        nxt_val = a * nxt[0] + b * nxt[1]
        cur_in = cur_val <= c
        nxt_in = nxt_val <= c
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            # the segment crosses the boundary strictly, so the denominator is nonzero
            t = (c - cur_val) / (nxt_val - cur_val)
            out.append(
                (
                    cur[0] + t * (nxt[0] - cur[0]),
                    cur[1] + t * (nxt[1] - cur[1]),
                )
            )
    return dedupe(out)


def dedupe(poly: list[Point]) -> list[Point]:
    out: list[Point] = []
    for p in poly:
        if not out or p != out[-1]:
            out.append(p)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def doubled_area(poly: list[Point]) -> Fraction:
    total = Fraction(0)
    m = len(poly)
    for i in range(m):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % m]
        total += x1 * y2 - x2 * y1
    return total


def canonical_ccw(poly: list[Point]) -> tuple[Point, ...]:
    """Counterclockwise orientation, starting at the lexicographically smallest vertex."""
    if not poly:
        return ()
    if doubled_area(poly) < 0:
        poly = poly[::-1]
    start = min(range(len(poly)), key=lambda i: poly[i])
    return tuple(poly[start:] + poly[:start])


def intersect_halfplanes(seed: list[Point], halfplanes) -> tuple[Point, ...]:
    """Clip a bounded seed polygon by (a, b, c) half-planes a*u + b*v <= c."""
    poly = list(seed)
    for a, b, c in halfplanes:
        poly = clip_halfplane(poly, Fraction(a), Fraction(b), Fraction(c))
        if not poly:
            break
    return canonical_ccw(poly)
