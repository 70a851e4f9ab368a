"""Generators for the catalog metric families and randomized test families.

Catalog ids (CLI spellings):

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
from typing import Callable, Optional, Sequence

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


def _monotone_line_seek(value: Callable[[int], Fraction], size: Optional[int]):
    """first_index_beyond for points on a line with increasing coordinates."""

    def seek(center: int, radius: Fraction, lo: int) -> Optional[int]:
        vc = value(center)
        if value(lo) < vc - radius:
            return lo
        # exponential search on the right side, then bisect
        i = max(lo, center)
        step = 1
        while value(i) <= vc + radius:
            i += step
            step *= 2
            if size is not None and i > size:
                i = size
                if value(i) <= vc + radius:
                    return None
                break
        hi, lo_i = i, max(lo, center)
        while lo_i < hi:
            mid = (lo_i + hi) // 2
            if value(mid) > vc + radius:
                hi = mid
            else:
                lo_i = mid + 1
        return hi if hi >= lo else None

    return seek


def _line_family(label, value, **meta) -> MetricFamily:
    def oracle(i: int, j: int) -> Fraction:
        return abs(value(i) - value(j))

    return MetricFamily(label=label, oracle=oracle, **meta)


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
    )


def convergent_line() -> MetricFamily:
    def value(n: int) -> Fraction:
        return Fraction(0) if n == 1 else Fraction(1, n - 1)

    return _line_family(
        "convline",
        value,
        bounded=True,
        converges_to_base=True,
    )


def integer_line() -> MetricFamily:
    value = lambda n: Fraction(n)
    return _line_family(
        "intline",
        value,
        bounded=False,
        delta_unbounded=True,
        first_index_beyond=_monotone_line_seek(value, None),
    )


MAX_GEOMLINE_INDEX = 1 << 20  # point n is the n-bit integer 2**n: 128 KiB here


def geometric_line() -> MetricFamily:
    def value(n: int) -> Fraction:
        if n > MAX_GEOMLINE_INDEX:
            raise InvalidFamilyParameters(f"geomline indices stop at {MAX_GEOMLINE_INDEX}")
        return Fraction(2**n)

    return _line_family(
        "geomline",
        value,
        bounded=False,
        delta_unbounded=True,
        first_index_beyond=_monotone_line_seek(value, None),
    )


_REMARK_FORMULAS = {
    1: lambda k, n: Fraction(k + n) - Fraction(1, k),
    2: lambda k, n: 2 - Fraction(1, k),
    3: lambda k, n: 2 - Fraction(1, k) + Fraction(1, n),
    4: lambda k, n: 2 - Fraction(1, k) - Fraction(1, 2 * n),
    5: lambda k, n: 1 + Fraction(1, n),
    6: lambda k, n: 1 + Fraction(1, 2 * k) + Fraction(1, n),
}

_REMARK_D = {2: Fraction(2), 3: Fraction(2), 4: Fraction(2), 5: Fraction(1), 6: Fraction(1)}


def remark(which) -> MetricFamily:
    which = int(which)
    if which not in _REMARK_FORMULAS:
        raise InvalidFamilyParameters("remark families are numbered 1..6")
    formula = _REMARK_FORMULAS[which]
    return MetricFamily(
        label=f"remark:{which}",
        # the metric is stated for n > k; min(index pair) plays the role of k
        oracle=lambda i, j: formula(i, j),
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


def family_from_space(space: FiniteMetricSpace, label: str = "custom") -> MetricFamily:
    """Wrap a validated finite space as a (finite) family; point i maps to index i+1."""
    ultra, _ = is_ultrametric(space)
    return MetricFamily(
        label=label,
        oracle=lambda i, j: space.dist[i - 1][j - 1],
        size=space.n,
        bounded=True,
        ultrametric=ultra,
    )


def make_family(family_id: str, *params) -> MetricFamily:
    """Build a catalog family by id; raises InvalidFamilyParameters otherwise.

    The ``custom`` family takes the path of a JSON space file.
    """
    with outside_input(f"parameters for {family_id}"):
        if family_id == "uniform":
            (d,) = params
            return uniform(d)
        if family_id == "convline":
            return convergent_line()
        if family_id == "intline":
            return integer_line()
        if family_id == "geomline":
            return geometric_line()
        if family_id == "remark":
            (which,) = params
            return remark(which)
        if family_id == "dendro":
            return dendrogram(*params)
        if family_id == "custom":
            (path,) = params
            return family_from_space(load_space(read_text(path)), label=f"file:{path}")
    raise InvalidFamilyParameters(f"unknown family id {family_id!r}")


def parse_family(label: str) -> MetricFamily:
    """Family shorthand: ``uniform:1``, ``remark:2``, ``dendro:7:10``, ``file:path``."""
    parts = label.split(":")
    if parts[0] == "file":
        return make_family("custom", ":".join(parts[1:]))
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


FAMILY_INFO = [
    {
        "id": "uniform",
        "params": "d: positive rational",
        "exercises": "bounded uniformly separated case; ultrametric constant case",
    },
    {
        "id": "convline",
        "params": "none",
        "exercises": "accumulation-point case (strict subcase)",
    },
    {
        "id": "intline",
        "params": "none",
        "exercises": "unbounded greedy case; unbounded-delta pairing",
    },
    {
        "id": "geomline",
        "params": "none",
        "exercises": "unbounded greedy case with fast growth; unbounded-delta pairing",
    },
    {
        "id": "remark",
        "params": "k: 1..6",
        "exercises": "admissibility probes: spaces without exact radii",
    },
    {
        "id": "dendro",
        "params": "seed: int, depth: int, leaves: int (optional)",
        "exercises": "ultrametric subsequence extraction and exact l1 plans",
    },
    {
        "id": "file",
        "params": "path to JSON {n, dist}",
        "exercises": "custom finite spaces",
    },
]
