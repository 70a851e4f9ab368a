"""Generators for the catalog metric families and randomized test families.

Catalog ids (CLI spellings; ``CATALOG`` maps each id to its builder):

* ``uniform:d``   all pairwise distances equal d
* ``convline``    0, 1, 1/2, 1/3, ... on the real line (accumulation at the base)
* ``intline``     1, 2, 3, ... on the real line (unbounded, slow growth)
* ``geomline``    2, 4, 8, ... on the real line (unbounded, fast growth)
* ``remark:k``    the six bounded/unbounded sequence metrics with k = 1..6
* ``dendro:seed:depth[:leaves]``  random dendrogram ultrametric
* ``file:path``   custom finite space from JSON
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .errors import EmptyLevels, InvalidFamilyParameters, outside_input
from .metric_core import (
    MAX_POINTS,
    FiniteMetricSpace,
    MetricFamily,
    as_fraction,
    is_ultrametric,
    load_space,
    read_text,
    truncate,
)


def _monotone_line_seek(value: Callable[[int], Fraction]):
    """first_index_beyond for points on a line with increasing coordinates."""

    def seek(center: int, radius: Fraction) -> int:
        bound = value(center) + radius
        # exponential search to the right of the centre, then bisect
        lo = hi = center + 1
        step = 1
        while value(hi) <= bound:
            hi += step
            step *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if value(mid) > bound:
                hi = mid
            else:
                lo = mid + 1
        return hi

    return seek


def uniform(d) -> MetricFamily:
    d = as_fraction(d)
    if d <= 0:
        raise InvalidFamilyParameters("uniform distance must be positive")
    return MetricFamily(
        label=f"uniform:{d}",
        oracle=lambda i, j: d,
        d_limit=d,
        bounded=True,
        ultrametric=True,
        distinct_distances=1,
    )


# The line oracles below give |value(i) - value(j)| for i < j as one Fraction.


def convergent_line() -> MetricFamily:
    """Points 0, 1, 1/2, 1/3, ...: x_1 = 0 and x_n = 1/(n - 1)."""

    def oracle(i: int, j: int) -> Fraction:
        return Fraction(1, j - 1) if i == 1 else Fraction(j - i, (i - 1) * (j - 1))

    return MetricFamily(
        label="convline",
        oracle=oracle,
        bounded=True,
        converges_to_base=True,
    )


def integer_line() -> MetricFamily:
    return MetricFamily(
        label="intline",
        oracle=lambda i, j: Fraction(j - i),
        bounded=False,
        delta_unbounded=True,
        first_index_beyond=_monotone_line_seek(Fraction),
    )


MAX_GEOMLINE_INDEX = 1 << 20  # point n is the n-bit integer 2**n: 128 KiB here


def _geomline_guard(n: int) -> None:
    if n > MAX_GEOMLINE_INDEX:
        raise InvalidFamilyParameters(f"geomline indices stop at {MAX_GEOMLINE_INDEX}")


def geometric_line() -> MetricFamily:
    def value(n: int) -> Fraction:
        _geomline_guard(n)
        return Fraction(2**n)

    def oracle(i: int, j: int) -> Fraction:
        _geomline_guard(j)
        return Fraction((1 << j) - (1 << i))

    return MetricFamily(
        label="geomline",
        oracle=oracle,
        bounded=False,
        delta_unbounded=True,
        first_index_beyond=_monotone_line_seek(value),
    )


# rho(x_k, x_n) for k < n over one common denominator:
#   1: k + n - 1/k   2: 2 - 1/k   3: 2 - 1/k + 1/n
#   4: 2 - 1/k - 1/(2n)   5: 1 + 1/n   6: 1 + 1/(2k) + 1/n
_REMARK_FORMULAS = {
    1: lambda k, n: Fraction(k * (k + n) - 1, k),
    2: lambda k, n: Fraction(2 * k - 1, k),
    3: lambda k, n: Fraction(2 * k * n - n + k, k * n),
    4: lambda k, n: Fraction(4 * k * n - 2 * n - k, 2 * k * n),
    5: lambda k, n: Fraction(n + 1, n),
    6: lambda k, n: Fraction(2 * k * n + n + 2 * k, 2 * k * n),
}

_REMARK_D = {2: Fraction(2), 3: Fraction(2), 4: Fraction(2), 5: Fraction(1), 6: Fraction(1)}


def remark(which) -> MetricFamily:
    which = int(which)
    if which not in _REMARK_FORMULAS:
        raise InvalidFamilyParameters("remark families are numbered 1..6")
    formula = _REMARK_FORMULAS[which]
    return MetricFamily(
        label=f"remark:{which}",
        # the metric is stated for n > k; the oracle's i < j are k and n
        oracle=formula,
        d_limit=_REMARK_D.get(which),
        bounded=which != 1,
    )


# ---------------------------------------------------------------------------
# Dendrogram ultrametrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DendrogramSpec:
    """Seeded random dendrogram: leaf metric = level value of the lowest
    common ancestor, levels strictly decreasing along root-to-leaf depth."""

    seed: int
    leaf_count: int
    levels: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.levels:
            raise EmptyLevels("a dendrogram needs at least one merge level")
        lv = tuple(as_fraction(v) for v in self.levels)
        object.__setattr__(self, "levels", lv)
        if any(v <= 0 for v in lv):
            raise InvalidFamilyParameters("level distances must be positive")
        if any(a <= b for a, b in zip(lv, lv[1:])):
            raise InvalidFamilyParameters("level distances must be strictly decreasing")
        if self.leaf_count < len(lv) + 1:
            raise InvalidFamilyParameters(
                f"at least {len(lv) + 1} leaves are needed for depth {len(lv)}"
            )


def ultrametric_from_codes(codes: Sequence[tuple], levels: Sequence, label: str) -> MetricFamily:
    """Ultrametric on leaves given by tree path codes: rho = levels[common prefix length]."""
    levels = tuple(as_fraction(v) for v in levels)
    codes = tuple(tuple(c) for c in codes)

    def oracle(i: int, j: int) -> Fraction:
        a, b = codes[i - 1], codes[j - 1]
        cpl = 0
        for u, v in zip(a, b):
            if u != v:
                break
            cpl += 1
        return levels[cpl]

    return MetricFamily(
        label=label,
        oracle=oracle,
        size=len(codes),
        bounded=True,
        ultrametric=True,
        distinct_distances=len(levels),
    )


def dendrogram_ultrametric(spec: DendrogramSpec) -> MetricFamily:
    """Random spine-shaped dendrogram, deterministic in the seed.

    The spine is a root-to-leaf path of internal nodes; each spine node at
    depth t carries 1..3 side leaves, the deepest node carries the remaining
    leaves as a terminal cluster.  Leaves are indexed shallow to deep, so
    distances to later leaves never increase.
    """
    rng = random.Random(spec.seed)
    depth = len(spec.levels)
    side = [1] * (depth - 1)
    terminal = 2
    extra = spec.leaf_count - sum(side) - terminal
    for _ in range(extra):
        slot = rng.randrange(depth)
        if slot < depth - 1 and side[slot] < 3:
            side[slot] += 1
        else:
            terminal += 1

    codes: list[tuple[int, ...]] = []
    for t in range(depth - 1):
        for c in range(1, side[t] + 1):
            codes.append((0,) * t + (c,))
    for c in range(terminal):
        codes.append((0,) * (depth - 1) + (c,))

    label = f"dendro:{spec.seed}:{depth}:{spec.leaf_count}"
    return ultrametric_from_codes(codes, spec.levels, label)


def _default_levels(seed: int, depth: int) -> tuple[Fraction, ...]:
    # strictly decreasing toward a positive limit, fast enough decay for
    # the ultrametric thinning chains to accept consecutive values
    rng = random.Random(seed * 7919 + 13)
    limit = Fraction(rng.randrange(1, 5), rng.randrange(1, 3))
    gap = Fraction(rng.randrange(1, 5))
    return tuple(limit + gap / 4**t for t in range(depth))


def dendrogram(seed, depth, leaf_count=None) -> MetricFamily:
    """``dendro:seed:depth[:leaves]``; leaves default to max(64, depth + 8),
    at most MAX_POINTS.

    No truncation or plan uses more than MAX_POINTS points, so more leaves,
    or a depth that needs more, are refused before the levels are built.
    """
    seed, depth = int(seed), int(depth)
    if depth < 1:
        raise EmptyLevels("dendrogram depth must be >= 1")
    if depth >= MAX_POINTS:
        raise InvalidFamilyParameters(f"dendrogram depth must be below {MAX_POINTS}")
    leaf_count = min(max(64, depth + 8), MAX_POINTS) if leaf_count is None else int(leaf_count)
    if leaf_count > MAX_POINTS:
        raise InvalidFamilyParameters(f"a dendrogram has at most {MAX_POINTS} leaves")
    spec = DendrogramSpec(seed=seed, leaf_count=leaf_count, levels=_default_levels(seed, depth))
    return dendrogram_ultrametric(spec)


def family_from_space(space: FiniteMetricSpace, label: str) -> MetricFamily:
    """Wrap a validated finite space as a (finite) family; point i maps to index i+1.

    A plan on the family reads back by ``plan_from_json`` only when ``label``
    is a catalog or ``file:`` label that rebuilds it."""
    ultra, _ = is_ultrametric(space)
    return MetricFamily(
        label=label,
        oracle=lambda i, j: space.dist[i - 1][j - 1],
        size=space.n,
        bounded=True,
        ultrametric=ultra,
        approximate=space.approximate,
    )


def file_family(path: str) -> MetricFamily:
    return family_from_space(load_space(read_text(path)), label=f"file:{path}")


class CatalogEntry(NamedTuple):
    build: Callable[..., MetricFamily]
    params: str
    exercises: str


# family id -> its builder, and the texts ``lipfree spaces list`` prints
CATALOG = {
    "uniform": CatalogEntry(
        uniform, "d: positive rational", "bounded uniformly separated case; ultrametric constant case"
    ),
    "convline": CatalogEntry(convergent_line, "none", "accumulation-point case (strict subcase)"),
    "intline": CatalogEntry(integer_line, "none", "unbounded greedy case; unbounded-delta pairing"),
    "geomline": CatalogEntry(
        geometric_line, "none", "unbounded greedy case with fast growth; unbounded-delta pairing"
    ),
    "remark": CatalogEntry(remark, "k: 1..6", "admissibility probes: spaces without exact radii"),
    "dendro": CatalogEntry(
        dendrogram,
        "seed: int, depth: int, leaves: int (optional)",
        "ultrametric subsequence extraction and exact l1 plans",
    ),
    "file": CatalogEntry(file_family, "path to JSON {n, dist}", "custom finite spaces"),
}


def make_family(family_id: str, *params) -> MetricFamily:
    """Build the CATALOG family ``family_id`` from its parameters.

    An unknown id, a wrong number of parameters or a malformed one raises
    InvalidFamilyParameters.
    """
    if family_id not in CATALOG:
        raise InvalidFamilyParameters(f"unknown family id {family_id!r}")
    with outside_input(f"parameters for {family_id}"):
        return CATALOG[family_id].build(*params)


def parse_family(label: str) -> MetricFamily:
    """Family shorthand: ``uniform:1``, ``remark:2``, ``dendro:7:10``, ``file:path``."""
    parts = label.split(":")
    if parts[0] == "file":
        return make_family("file", ":".join(parts[1:]))
    return make_family(parts[0], *parts[1:])


def parse_space(label: str):
    """Space shorthand ``family:params:N`` (last segment is the truncation size)
    or ``file:path.json`` for a custom finite space."""
    parts = label.split(":")
    if parts[0] == "file":
        return load_space(read_text(":".join(parts[1:])))
    if len(parts) < 2:
        raise InvalidFamilyParameters("space shorthand needs a truncation size")
    family = make_family(parts[0], *parts[1:-1])
    with outside_input("truncation size"):
        n = int(parts[-1])
    return truncate(family, n)

