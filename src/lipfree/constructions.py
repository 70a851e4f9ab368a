"""Executable embedding constructions.

An ``EmbeddingPlan`` is a chosen subsequence of family points {x_n} with
radii {r_n} satisfying the separation inequality rho(x_m, x_n) >= r_m + r_n,
checked once when the plan is built.  Positions are 1-based (position 1 is
the plan's base point); pair n couples positions (2n, 2n+1) and has ratio
q_n = (r_{2n} + r_{2n+1}) / rho(x_{2n}, x_{2n+1}).  A plan is exact when
every ratio equals 1; exact plans span an isometric l1 copy with a norm-1
projection onto it.

The radii_* builders execute the selection arguments of the source
constructions greedily and deterministically: every "there exists an index"
step takes the smallest admissible family index, scanning at most ``HORIZON``
candidates, or every point of a smaller family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import ceil
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    ExactnessRequired,
    HorizonExhausted,
    InvalidFamilyParameters,
    MetadataRequired,
    NotConvergent,
    NotUltrametric,
    SeparationViolation,
    outside_input,
)
from .metric_core import (
    MAX_POINTS,
    FiniteMetricSpace,
    LipFunction,
    MetricFamily,
    as_fraction,
    distance_matrix,
    exact_space,
    fraction_str,
    integer_scale,
    is_certified_ultrametric,
    is_ultrametric,
    rational_distances,
    scaled_distances,
    validate_metric,
)
from .norm_engine import lip_norm  # noqa: F401 (perfbench binds constructions.lip_norm)
from .simplex import solve_lp_max

HORIZON = 10000
MAX_ADMISSIBILITY_POINTS = 128  # Bellman-Ford on 2N nodes: 0.2 s on catalog families
MAX_ADMISSIBILITY_LP_POINTS = 64  # the exact LP has N(N-1)/2 separation rows
# N^2 times the bits of an N-point plan's common denominator, which every scaled distance
# carries: 1028 bits at 511 points, where radii_bounded_separated takes 743 on the catalog
MAX_SCALED_BITS = 1 << 28
ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class EmbeddingPlan:
    """Subsequence indices and radii of one construction.

    A plan has 1..MAX_POINTS points and a string or no case.  Building it
    fetches each distance between its positions once, into ``dist``, scales
    it and ``r`` to ints by one exact lcm, checks separation on those ints,
    raising SeparationViolation(m, n) at the first (lexicographic) violated
    pair, and derives the ratios q_n, exactness (every q_n is 1) and the pair rows.
    An index past the family's size, and then an lcm of more than
    MAX_SCALED_BITS / N^2 bits, raise InvalidFamilyParameters.
    """

    family: MetricFamily
    x_idx: tuple[int, ...]
    r: tuple[Fraction, ...]
    case: Optional[str] = None
    ratios: tuple[Fraction, ...] = field(init=False, compare=False)  # q_1, q_2, ...
    exact: bool = field(init=False, compare=False)
    # rho between positions m and n at [m - 1][n - 1]
    dist: tuple[tuple[Fraction, ...], ...] = field(init=False, compare=False, repr=False)
    scale: int = field(init=False, compare=False, repr=False)  # lcm of the denominators of dist and r
    int_dist: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)  # dist * scale
    # for each point label p, {n: f_n(p) * scale} over the pairs n where f_n(p) != 0
    pair_rows: tuple[Mapping[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.x_idx) != len(self.r):
            raise ValueError("indices and radii must align")
        if not self.x_idx or self.x_idx[0] < 1:
            raise ValueError("a plan needs at least one point, at positive indices")
        if any(a >= b for a, b in zip(self.x_idx, self.x_idx[1:])):
            raise ValueError("plan indices must be strictly increasing")
        if any(v < 0 for v in self.r):
            raise ValueError("radii must be nonnegative")
        if len(self.x_idx) > MAX_POINTS:
            raise ValueError(f"a plan has at most {MAX_POINTS} points")
        if not isinstance(self.case, (str, type(None))):  # plans are hashed by _plan_space
            raise ValueError("case must be a string or None")
        if self.family.size is not None and self.x_idx[-1] > self.family.size:
            raise InvalidFamilyParameters(f"family {self.family.label} has only {self.family.size} points")

        N = self.n_points
        upper = rational_distances(
            self.family.distance(self.x_idx[m], self.x_idx[n]) for m, n in combinations(range(N), 2)
        )
        dist = distance_matrix(upper, N)
        ints, scale = integer_scale([*self.r, *upper], MAX_SCALED_BITS // (N * N))
        R, D = tuple(ints[:N]), distance_matrix(ints[N:], N, 0)
        for m, n in combinations(range(N), 2):
            if R[m] + R[n] > D[m][n]:
                raise SeparationViolation(m + 1, n + 1, self.r[m] + self.r[n], dist[m][n])
        # f_n(p) = g_2n(p) - g_2n+1(p) at every pair, although separation puts g_k at x_k alone
        pairs = range(1, self.pair_count + 1)
        rows = tuple(MappingProxyType({
            n: v for n, ra, rb, da, db in zip(pairs, R[1::2], R[2::2], Dp[1::2], Dp[2::2])
            if (v := (ra - da if ra > da else 0) - (rb - db if rb > db else 0))
        }) for Dp in D)
        ratios = tuple(Fraction(R[2 * n - 1] + R[2 * n], D[2 * n - 1][2 * n]) for n in pairs)
        self.__dict__.update(dist=dist, scale=scale, int_dist=D,
                             pair_rows=rows, ratios=ratios, exact=all(q == 1 for q in ratios))

    @property
    def n_points(self) -> int:
        return len(self.x_idx)

    @property
    def pair_count(self) -> int:
        return (self.n_points - 1) // 2

    def rho(self, m: int, n: int) -> Fraction:
        """Distance between plan positions (1-based)."""
        return self.dist[m - 1][n - 1]

    def space(self) -> FiniteMetricSpace:
        return _plan_space(self)


@lru_cache(maxsize=2)  # one plan's verifiers; each entry keeps its plan alive
def _plan_space(plan: EmbeddingPlan) -> FiniteMetricSpace:
    """``dist`` as a space, validated on ``int_dist`` by ``exact_space``."""
    return exact_space(plan.dist, plan.int_dist, plan.scale, plan.family.approximate)


def make_plan(family: MetricFamily, x_idx, r, case: Optional[str] = None) -> EmbeddingPlan:
    """Build a plan from any sequences of indices and rational radii."""
    return EmbeddingPlan(
        family, tuple(int(i) for i in x_idx), tuple(as_fraction(v) for v in r), case
    )


@dataclass(frozen=True)
class PlanReport:
    n_points: int
    ratios: tuple[tuple[int, Fraction], ...]  # (pair index, q_n)
    exact: bool


def check_plan(plan: EmbeddingPlan) -> PlanReport:
    """The plan's numbered pair ratios; building the plan checked separation."""
    ratios = tuple(enumerate(plan.ratios, 1))
    return PlanReport(n_points=plan.n_points, ratios=ratios, exact=plan.exact)


# ---------------------------------------------------------------------------
# Block sums, the l-infinity side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexPartition:
    """Disjoint strictly increasing sequences of pair indices (1-based)."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if any(a >= b for a, b in zip(block, block[1:])):
                raise ValueError("partition blocks must be strictly increasing")
            for m in block:
                if m < 1 or m in seen:
                    raise ValueError("partition blocks must be disjoint positive indices")
                seen.add(m)

    @staticmethod
    def round_robin(k_blocks: int, pair_count: int) -> "IndexPartition":
        """Block k takes the pair indices congruent to k mod K."""
        blocks = tuple(
            tuple(m for m in range(1, pair_count + 1) if m % k_blocks == k % k_blocks)
            for k in range(1, k_blocks + 1)
        )
        return IndexPartition(blocks=blocks)


def _block_sums(plan: EmbeddingPlan, partition: IndexPartition, coeffs: Sequence):
    """sum_k a_k f_k at every label, times plan.scale * s, and the coefficients' lcm s."""
    coeffs = [as_fraction(a) for a in coeffs]
    if len(coeffs) != len(partition.blocks):
        raise ValueError("one coefficient per partition block")
    ints, scale = integer_scale(coeffs)
    weight = {m: a for a, block in zip(ints, partition.blocks) for m in block}
    return [sum(weight[n] * v for n, v in row.items() if n in weight) for row in plan.pair_rows], scale


def lin_comb_function(plan: EmbeddingPlan, partition: IndexPartition, coeffs: Sequence) -> LipFunction:
    """sum_k a_k f_k on the plan's points, where the block function f_k sums
    the pair functions f_m of block k; with the one block (n,) and
    coefficient 1 this is f_n."""
    values, scale = _block_sums(plan, partition, coeffs)
    return LipFunction(values=tuple(Fraction(v, scale * plan.scale) for v in values))


@dataclass(frozen=True)
class LinftyReport:
    lip: Fraction
    lower: Fraction  # max over available pairs of |a_block| * q_n
    upper: Fraction  # max |a_k|


def verify_linfty_isometry(plan: EmbeddingPlan, partition: IndexPartition, coeffs: Sequence) -> LinftyReport:
    """Lipschitz norm of sum a_k f_k on the plan's 2*pair_count+1 pair points.

    The norm never exceeds max|a_k| (disjoint supports) and is at least
    |a_k| * q_n for every pair n of block k inside the plan, so it converges
    to max|a_k| exactly as the ratios approach 1.  To truncate, pass a prefix plan.
    """
    coeffs = [as_fraction(a) for a in coeffs]
    n_points = 2 * plan.pair_count + 1
    h, scale = _block_sums(plan, partition, coeffs)
    plan.space()  # the plan's metric is validated
    num, den = 0, 1  # the largest |h(p) - h(q)| / rho(p, q) on ints, over scale
    for p, q in combinations(range(n_points), 2):
        if abs(h[p] - h[q]) * den > num * plan.int_dist[p][q]:
            num, den = abs(h[p] - h[q]), plan.int_dist[p][q]
    lip = Fraction(num, den * scale)
    lower = max(
        (abs(a) * plan.ratios[m - 1] for a, block in zip(coeffs, partition.blocks) for m in block
         if m <= plan.pair_count),
        default=ZERO,
    )
    upper = max((abs(a) for a in coeffs), default=ZERO)
    return LinftyReport(lip=lip, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# The l1 side: isometry, projection
# ---------------------------------------------------------------------------


def verify_l1_isometry(plan: EmbeddingPlan, coeffs: Sequence) -> Fraction:
    """Free norm of sum a_n e_n, with e_n = (delta_{x_2n} - delta_{x_2n+1}) / rho(x_2n, x_2n+1).

    Every e_n has norm 1, so the norm is at most sum |a_n|.  When
    ``verify_projection`` accepts the plan's pair rows, h = sum sign(a_n) f_n
    is 1-Lipschitz and pairs with sum a_n e_n to sum |a_n|, so the bounds
    meet; rows it refuses raise AssertionError.
    Raises ExactnessRequired when the plan is not exact, since then only the
    upper inequality holds.
    """
    if not plan.exact:
        raise ExactnessRequired("the tight pair condition r_2n + r_2n+1 = rho is needed")
    coeffs = [as_fraction(a) for a in coeffs]
    if len(coeffs) > plan.pair_count:
        raise InvalidFamilyParameters(
            f"{len(coeffs)} coefficients for a plan of {plan.pair_count} pairs"
        )
    if not verify_projection(plan).ok:
        raise AssertionError("the pair rows do not make sum sign(a_n) f_n 1-Lipschitz")
    return sum(map(abs, coeffs), ZERO)


@dataclass(frozen=True)
class ProjectionReport:
    basis_reproduced: bool  # P(e_n) = e_n exactly for all pairs
    lipschitz_ok: bool  # sum_n |f_n(p) - f_n(q)| <= rho(p, q) for all pairs
    n_pairs: int

    @property
    def ok(self) -> bool:
        return self.basis_reproduced and self.lipschitz_ok


def verify_projection(plan: EmbeddingPlan) -> ProjectionReport:
    """Exact checks that r(x) = sum_n f_n(x) e_n is a norm-1 projection onto span{e_n}.

    The coefficients of a point are its sparse row {n: f_n(p)}, and each
    check compares two rows over the union of their keys: r(e_n) = e_n is
    row(x_2n) - row(x_2n+1) = rho(x_2n, x_2n+1) e_n, and r has norm 1 when
    sum_n |f_n(p) - f_n(q)| <= rho(p, q) for every pair of points.  Rows and
    rho are the plan's ints, both times plan.scale, so nothing is divided.
    On an inexact plan the row gap of pair n is (r_2n + r_2n+1) e_n, so the
    basis check fails while the row check, which separation alone decides,
    still passes.
    """
    pairs = plan.pair_count
    n_points = 2 * pairs + 1
    rows, D = plan.pair_rows, plan.int_dist

    def gaps(p: int, q: int) -> list[tuple[int, int]]:
        a, b = rows[p], rows[q]
        return [(m, a.get(m, 0) - b.get(m, 0)) for m in a.keys() | b.keys()]

    basis_ok = all(
        {m: v for m, v in gaps(2 * n - 1, 2 * n) if v} == {n: D[2 * n - 1][2 * n]}
        for n in range(1, pairs + 1)
    )
    plan.space()  # the plan's metric is validated
    # the l1 gap of two rows is at most the sum of their l1 norms: only a pair above rho needs it
    norms = [sum(map(abs, row.values())) for row in rows]
    lip_ok = all(
        norms[p] + norms[q] <= D[p][q] or sum(abs(v) for _, v in gaps(p, q)) <= D[p][q]
        for p in range(n_points)
        for q in range(p + 1, n_points)
    )
    return ProjectionReport(basis_reproduced=basis_ok, lipschitz_ok=lip_ok, n_pairs=pairs)


# ---------------------------------------------------------------------------
# Radii selection algorithms
# ---------------------------------------------------------------------------


def _plan_length(n_pairs: int) -> int:
    """Points in a plan of ``n_pairs`` pairs, refused unless in 1..MAX_POINTS."""
    if not 0 <= n_pairs <= (MAX_POINTS - 1) // 2:
        raise InvalidFamilyParameters(f"pair count must be in 0..{(MAX_POINTS - 1) // 2}")
    return 2 * n_pairs + 1


def _require_points(family: MetricFamily, needed: int) -> None:
    if family.size is not None and family.size < needed:
        raise HorizonExhausted(
            f"{family.label} has {family.size} points, {needed} needed"
        )


def _scan_limit(family: MetricFamily) -> int:
    """The last family index a builder scans: HORIZON, or the family's size if smaller."""
    return HORIZON if family.size is None else min(HORIZON, family.size)


def radii_accumulation(family: MetricFamily, n_pairs: int) -> EmbeddingPlan:
    """Radii for a sequence converging to the family's first point.

    If on the scanned prefix every pair satisfies rho(x_m, x_n) =
    rho(x_m, x_1) + rho(x_n, x_1), take r_n = rho(x_n, x_1) on the prefix.
    Otherwise pick pairs with the strict inequality greedily, set
    delta_n = (rho(x_2n, x_1) + rho(x_2n+1, x_1) - rho(x_2n, x_2n+1)) / 2 and
    r = distance-to-base minus delta, forcing later points within delta_n/2
    of the base.  Both subcases produce exact plans.
    """
    L = _plan_length(n_pairs)
    if not family.converges_to_base:
        raise NotConvergent(f"{family.label} does not declare convergence to x_1")
    _require_points(family, L)

    base_dist = lambda i: family.distance(1, i)
    equality = all(
        family.distance(m, n) == base_dist(m) + base_dist(n)
        for m in range(2, L + 1)
        for n in range(m + 1, L + 1)
    )
    if equality:
        x_idx = list(range(1, L + 1))
        radii = [base_dist(i) for i in x_idx]
        return make_plan(family, x_idx, radii, case="accum-equality")

    x_idx = [1]
    radii = [ZERO]
    cap: Optional[Fraction] = None
    next_i = 2
    limit = _scan_limit(family)
    for _ in range(n_pairs):
        found = None
        i = next_i
        while i <= limit and found is None:
            if cap is None or base_dist(i) <= cap:
                j = i + 1
                while j <= limit:
                    if (cap is None or base_dist(j) <= cap) and family.distance(
                        i, j
                    ) < base_dist(i) + base_dist(j):
                        found = (i, j)
                        break
                    j += 1
            i += 1
        if found is None:
            raise HorizonExhausted("no admissible pair within the scan horizon")
        i, j = found
        delta = (base_dist(i) + base_dist(j) - family.distance(i, j)) / 2
        x_idx += [i, j]
        radii += [base_dist(i) - delta, base_dist(j) - delta]
        cap = delta / 2 if cap is None else min(cap, delta / 2)
        next_i = j + 1
    return make_plan(family, x_idx, radii, case="accum-strict")


def _resolve_d_limit(family: MetricFamily) -> Fraction:
    """The limit d of the d_k, from metadata or an exact stabilised estimate."""
    if family.d_limit is not None:
        return family.d_limit
    window = 16
    hi = _scan_limit(family)
    if hi < 2 * window + 4:
        raise MetadataRequired(f"{family.label} is too small to estimate limits")
    tail = []
    for k in range(hi - 2 * window, hi - window):
        row = {family.distance(k, n) for n in range(hi - window + 1, hi + 1)}
        if len(row) != 1:
            raise MetadataRequired(f"{family.label}: row {k} does not stabilise")
        tail.append(next(iter(row)))
    if len(set(tail)) != 1:
        raise MetadataRequired(f"{family.label}: d_k does not stabilise at the horizon")
    return tail[0]


def radii_bounded_separated(family: MetricFamily, n_pairs: int) -> EmbeddingPlan:
    """Radii for a bounded uniformly separated family.

    Extracts a subsequence whose pairwise distances fall in the shrinking
    windows (d(1 - 1/(2m)), d(1 + 1/(2m))) around the limit d, then takes
    r_n = (d/2)(1 - 1/n).  The pair ratios obey the lower-bound chain
    q_n > (1 - 1/(4n) - 1/(2(2n+1))) / (1 + 1/(4n)).
    """
    L = _plan_length(n_pairs)
    if not family.bounded:
        raise MetadataRequired(f"{family.label} is not bounded")
    d = _resolve_d_limit(family)
    limit = _scan_limit(family)

    # a candidate joins when its distance to the m-th chosen point lies in windows[m - 1]
    windows = [(d * (1 - Fraction(1, 2 * m)), d * (1 + Fraction(1, 2 * m))) for m in range(1, L)]
    chosen: list[int] = []
    for start in range(1, limit + 1):
        chosen = [start]
        for cand in range(start + 1, limit + 1):
            if len(chosen) == L:
                break
            if all(lo < family.distance(idx, cand) < hi for idx, (lo, hi) in zip(chosen, windows)):
                chosen.append(cand)
        if len(chosen) == L:
            break
    if len(chosen) < L:
        raise HorizonExhausted("window extraction failed within the scan horizon")

    radii = [d / 2 * (1 - Fraction(1, n)) for n in range(1, L + 1)]
    return make_plan(family, chosen, radii, case="bounded")


def radii_unbounded(family: MetricFamily, n_pairs: int) -> EmbeddingPlan:
    """Greedy radii for an unbounded family.

    From x_1 (the first family index) and r_1 = 1, each step takes the
    smallest next index with rho(x_{n+1}, x_n) > n * max_k(rho(x_n, x_k) + r_k)
    and sets r_{n+1} = rho(x_{n+1}, x_n) minus that maximum; the pair ratios
    then exceed 1 - 1/(2n).
    """
    L = _plan_length(n_pairs)
    x_idx = [1]
    radii = [ONE]
    while len(x_idx) < L:
        n = len(x_idx)
        last = x_idx[-1]
        peak = max(
            family.distance(last, k) + rk for k, rk in zip(x_idx, radii)
        )
        bound = n * peak
        nxt = None
        if family.first_index_beyond is not None:
            nxt = family.first_index_beyond(last, bound)
        else:
            for i in range(last + 1, _scan_limit(family) + 1):
                if family.distance(i, last) > bound:
                    nxt = i
                    break
        if nxt is None or (family.size is not None and nxt > family.size):
            raise HorizonExhausted("no index beyond the greedy bound within the horizon")
        x_idx.append(nxt)
        radii.append(family.distance(nxt, last) - peak)
    return make_plan(family, x_idx, radii, case="unbounded")


def radii_unbounded_delta(family: MetricFamily, n_pairs: int) -> EmbeddingPlan:
    """Radii along a marked pairing whose base-point defect grows without bound.

    For pair t the defect is delta_t = (rho(x_2t, x_1) + rho(x_2t+1, x_1)
    - rho(x_2t, x_2t+1)) / 2; pairs are kept greedily once delta_t dominates
    twice every previously chosen distance to the base.  The resulting plan
    is exact by construction.
    """
    _plan_length(n_pairs)
    if not family.delta_unbounded:
        raise MetadataRequired(f"{family.label} does not declare an unbounded-defect pairing")
    x_idx = [1]
    radii = [ZERO]
    cap = ZERO
    t = 1
    pairs_done = 0
    while pairs_done < n_pairs:
        if t > HORIZON:
            raise HorizonExhausted("no pair with large enough defect within the horizon")
        i, j = 2 * t, 2 * t + 1
        if family.size is not None and j > family.size:
            raise HorizonExhausted(f"{family.label} exhausted before {n_pairs} pairs")
        di, dj = family.distance(1, i), family.distance(1, j)
        delta = (di + dj - family.distance(i, j)) / 2
        if delta >= cap:
            x_idx += [i, j]
            radii += [di - delta, dj - delta]
            cap = max(cap, 2 * di, 2 * dj)
            pairs_done += 1
        t += 1
    return make_plan(family, x_idx, radii, case="udelta")


# --- ultrametric extraction -------------------------------------------------


class _DistanceTable:
    """rho on the family indices 1..scan, each pair fetched at most once.

    Every value is kept as one object per distinct value, so equal values
    are identical and compare by ``is``.  Row i holds rho(x_i, x_j) for
    i < j <= scan at index j, None until that pair is fetched; it is only
    as long as its last fetched index until ``values(i)`` fetches the rest,
    so the many rows that the probes touch stay short.
    ``values(i)`` gives the row's objects and ``ints(i)`` their multiples
    of the lcm of their denominators, so that values of one row compare in
    order as ints.  A value the table does not hold yet is read as
    ``truncate`` reads it (``rational_distances``), so a custom oracle's
    int, float or string becomes a ``Fraction`` and a value that is no
    rational raises InvalidFamilyParameters; a value equal to one it holds
    is that one.
    """

    def __init__(self, family: MetricFamily, scan: int):
        self.family = family
        self.scan = scan
        self._same: dict[tuple[int, int], Fraction] = {}
        self._rows: list[list] = [[] for _ in range(scan + 1)]
        self._full: set[int] = set()
        self._ints: dict[int, tuple[int, list]] = {}

    def _one(self, value) -> Fraction:
        try:
            return self._same[value.numerator, value.denominator]
        except (AttributeError, KeyError):  # a new value, or a custom oracle's float or string
            (value,) = rational_distances((value,))
            return self._same.setdefault((value.numerator, value.denominator), value)

    def distance(self, i: int, j: int) -> Fraction:
        if i > j:
            i, j = j, i
        row = self._rows[i]
        if len(row) <= j:
            row += [None] * (j + 1 - len(row))
        value = row[j]
        if value is None:
            value = row[j] = self._one(self.family.distance(i, j))
        return value

    def values(self, i: int) -> list:
        row = self._rows[i]
        if i not in self._full:
            row += [None] * (self.scan + 1 - len(row))
            for j in range(i + 1, self.scan + 1):
                if row[j] is None:
                    row[j] = self._one(self.family.distance(i, j))
            self._full.add(i)
        return row

    def ints(self, i: int) -> tuple[int, list]:
        """The row's lcm L and its values times L."""
        if i not in self._ints:
            ints, scale = integer_scale(self.values(i)[i + 1 :])
            self._ints[i] = (scale, [None] * (i + 1) + ints)
        return self._ints[i]


def _uniform_clique(table: _DistanceTable, length: int) -> Optional[list[int]]:
    """Indices with all pairwise distances equal, preferring larger values.

    Each candidate value is grown greedily from a pair that realises it, so
    uniform clusters that do not contain the first family index are still
    found.  A later index joins when its distance to every chosen index is
    the value; ``pool`` keeps the later indices that still can.
    """
    scan = table.scan
    probe = min(scan, 64)
    # the probe's pairs by value, keyed by the id of the table's one object
    # per value, which spares hashing a Fraction per pair
    by_value: dict[int, list[tuple[int, int]]] = {}
    values: list[Fraction] = []
    for i in range(1, probe + 1):
        for j in range(i + 1, probe + 1):
            d = table.distance(i, j)
            pairs = by_value.get(id(d))
            if pairs is None:
                pairs = by_value[id(d)] = []
                values.append(d)
            pairs.append((i, j))
    for d in sorted(values, reverse=True):
        for i, j in by_value[id(d)][:40]:
            chosen = [i, j]
            row_i, row_j = table.values(i), table.values(j)
            pool = [c for c in range(j + 1, scan + 1) if row_i[c] is d and row_j[c] is d]
            while pool:
                chosen.append(pool[0])
                if len(chosen) == length:
                    return chosen
                row = table.values(pool[0])
                pool = [c for c in pool[1:] if row[c] is d]
    return None


def _monotone_chain(
    table: _DistanceTable,
    length: int,
    decreasing: bool,
    stop: Optional[Callable[[list[int]], bool]] = None,
) -> Optional[list[int]]:
    """Indices y_1 < y_2 < ... whose distance matrix is constant along rows.

    decreasing: rho(y_s, y_t) = d_s for t > s with d strictly decreasing
    (the value belongs to the earlier point); increasing: rho(y_s, y_t) = e_t
    with e strictly increasing (the value belongs to the later point).
    Greedy with chronological backtracking over the scanned prefix until
    ``length`` is reached, then extended greedily as far as the scan allows
    (the extra elements give the thinning step room to skip), or until
    ``stop``, asked with the chain before each extension, returns True.

    The search stops with None after 20 * scan steps.  A step is one
    candidate examined at the current depth, or one pop once the candidates
    of a depth run out; the greedy extension counts none.
    """
    scan = table.scan
    budget = 20 * scan
    stack: list[int] = []
    cursor = [1]  # next candidate to try at each depth
    # kept[t] is the row that stack[t + 1] brings to the equality tests: the
    # row of y_t and its value at y_{t+1} when decreasing, the row of
    # y_{t+1} when increasing
    kept: list = []

    def first_admissible(start: int) -> Optional[int]:
        """The least j >= start that can extend the stack, or None."""
        if len(stack) < 2:  # any index extends a stack of at most one
            return start if start <= scan else None
        for t in range(len(kept), len(stack) - 1):
            if decreasing:
                row = table.values(stack[t])
                kept.append((row, row[stack[t + 1]]))
            else:
                kept.append(table.values(stack[t + 1]))
        if decreasing:
            # each earlier point keeps its row value; the new closing value
            # rho(y_last, j) must continue the strict descent below
            # prev = rho(y_{last-1}, y_last), which need not be in the row's scale
            scale, last = table.ints(stack[-1])
            bar = ceil(table.distance(stack[-2], stack[-1]) * scale)
            for j in range(start, scan + 1):
                if last[j] < bar and all(row[j] is v for row, v in kept):
                    return j
            return None
        # rho(y_s, j) is one value e for every s, and e > prev: the order is
        # tested in the first row, where prev = rho(y_1, y_last), the
        # equalities across rows
        first = table.ints(stack[0])[1]
        bar = first[stack[-1]]
        head = table.values(stack[0])
        for j in range(start, scan + 1):
            if first[j] > bar and all(row[j] is head[j] for row in kept):
                return j
        return None

    steps = 0
    while True:
        depth = len(stack)
        start = cursor[depth]
        cand = first_admissible(start)
        # candidates start..cand, or start..scan and then the pop
        steps += cand - start + 1 if cand is not None else scan - start + 2
        if steps > budget:
            return None
        if cand is None:
            if not stack:
                return None
            stack.pop()
            del kept[len(stack) - 1 :]
            cursor.pop()
            cursor[-1] += 1
            continue
        stack.append(cand)
        cursor[depth] = cand
        cursor.append(cand + 1)
        if len(stack) == length:
            while not (stop and stop(stack)) and (extra := first_admissible(stack[-1] + 1)) is not None:
                stack.append(extra)
            return stack


def radii_ultrametric(family: MetricFamily, n_pairs: int) -> EmbeddingPlan:
    """Radii inside an ultrametric family via the bounded trichotomy.

    Scans for, in order: a chain with row-constant strictly decreasing
    values (decreasing case, thinned so consecutive values satisfy
    d_next <= (3 d + d_prev) / 4, radii r_2n = rho - d_{2n+1}/2 and
    r_{2n+1} = d_{2n+1}/2); a chain with strictly increasing values
    (increasing case, thinned by e_next >= (d + e_prev) / 2, radii
    r_2n = r_{2n+1} = rho/2); a set with all pairwise distances equal
    (constant case, r_n = d/2).  All three produce exact plans.  The
    40-point ultrametric probe and the three searches share one table of the
    family distances on the scanned prefix.

    A decreasing chain of L + 1 points has L distinct values and an
    increasing chain of L has L - 1, so a search is skipped when
    ``family.distinct_distances`` is below that count: it could only fail.
    """
    L = _plan_length(n_pairs)
    scan = min(family.size or MAX_POINTS, MAX_POINTS)
    table = _DistanceTable(family, scan)
    n = min(scan, 40)
    upper = [table.distance(i + 1, j + 1) for i, j in combinations(range(n), 2)]
    probe, ints, scale = scaled_distances(upper, n)
    if ints is None or not is_certified_ultrametric(ints, scale, family.approximate):
        ok, witness = is_ultrametric(validate_metric(probe, family.approximate))
        if not ok:
            raise NotUltrametric(witness)
    bound = family.distinct_distances

    if bound is None or bound >= L:
        found = _thinned_chain(table, L, family.d_limit, decreasing=True)
        if found is not None:
            x_idx, d_sel = found
            radii = [ZERO] * L
            for n in range(1, (L - 1) // 2 + 1):
                radii[2 * n - 1] = d_sel[2 * n - 1] - d_sel[2 * n] / 2
                radii[2 * n] = d_sel[2 * n] / 2
            return make_plan(family, x_idx, radii, case="ultra-decreasing")

    if bound is None or bound >= L - 1:
        found = _thinned_chain(table, L, family.d_limit, decreasing=False)
        if found is not None:
            x_idx = found[0]
            radii = [ZERO] * L
            for n in range(1, (L - 1) // 2 + 1):
                rho = table.distance(x_idx[2 * n - 1], x_idx[2 * n])
                radii[2 * n - 1] = rho / 2
                radii[2 * n] = rho / 2
            return make_plan(family, x_idx, radii, case="ultra-increasing")

    clique = _uniform_clique(table, L)
    if clique is not None:
        d = table.distance(clique[0], clique[1])
        return make_plan(family, clique, [d / 2] * L, case="ultra-constant")

    raise HorizonExhausted("no ultrametric subsequence of the required shape found")


def _thinned_chain(
    table: _DistanceTable, needed: int, d_limit: Optional[Fraction], decreasing: bool
) -> Optional[tuple[list[int], list]]:
    """The monotone chain's indices and values at the thinning's ``needed`` picks, or None.

    A decreasing chain has needed + 1 points and value d_s = rho(y_s, y_{s+1})
    at position s (the trailing point only closes the last row); an
    increasing chain has ``needed`` points and value e_s = rho(y_1, y_s) at
    s >= 1.  The thinning's limit is ``d_limit``, or else the value at the
    end of the fully extended chain.  With ``d_limit`` the picks depend only
    on the chain's prefix, so the chain stops growing once they are complete.
    """

    def value(chain: list[int], s: int):
        if decreasing:
            return table.distance(chain[s], chain[s + 1])
        return None if s == 0 else table.distance(chain[0], chain[s])

    def values(chain: list[int], start: int):
        end = len(chain) - 1 if decreasing else len(chain)
        return (value(chain, s) for s in range(start, end))

    thin = _decreasing_thinning if decreasing else _increasing_thinning
    stop = None
    if d_limit is not None:
        thinning = thin(d_limit, needed)
        stop = lambda chain: thinning.feed(values(chain, thinning.fed))
    chain = _monotone_chain(table, needed + 1 if decreasing else needed, decreasing, stop)
    if chain is None:
        return None
    if d_limit is None:
        thinning = thin(value(chain, len(chain) - 2 if decreasing else len(chain) - 1), needed)
    if not thinning.feed(values(chain, thinning.fed)):
        return None
    return [chain[s] for s in thinning.picked], [value(chain, s) for s in thinning.picked]


class _Thinning:
    """The thinning step, fed a chain's values in order.

    Position 0 is always picked; a later position is picked when
    ``keeps(value, value at the last pick)``, until ``needed`` are picked.
    Each value is decided when it is fed, so the picks of a prefix of the
    chain are a prefix of the chain's picks.
    """

    def __init__(self, keeps: Callable, needed: int):
        self.keeps = keeps
        self.needed = needed
        self.picked: list[int] = []
        self.last = None
        self.fed = 0

    def feed(self, values) -> bool:
        """Decide the next positions from ``values``; whether ``needed`` are picked."""
        for value in values:
            if len(self.picked) == self.needed:
                break
            if not self.picked or self.keeps(value, self.last):
                self.picked.append(self.fed)
                self.last = value
            self.fed += 1
        return len(self.picked) == self.needed


def _decreasing_thinning(d_inf: Fraction, needed: int) -> _Thinning:
    return _Thinning(lambda d, last: d_inf <= d <= (3 * d_inf + last) / 4, needed)


def _increasing_thinning(d_sup: Fraction, needed: int) -> _Thinning:
    # e_0 is None: position 0 is the chain's first point, whose value is
    # carried by the later points
    def keeps(e, last):
        return 2 * e >= d_sup if last is None else (d_sup + last) / 2 <= e <= d_sup

    return _Thinning(keeps, needed)


# ---------------------------------------------------------------------------
# Admissibility probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Obstruction:
    """A cycle that proves no radii reach a worst-pair ratio above tau.

    ``upper`` lists separation pairs (m, n) and ``slots`` pair slots n, as
    multisets.  Every position lies in at least as many upper pairs as slot
    ends and sum rho(upper) = tau * sum rho(slots); summing the separation
    rows of the upper pairs then bounds every slot sum, so no feasible radii
    give all slots a ratio above tau.
    """

    upper: tuple[tuple[int, int], ...]
    slots: tuple[int, ...]


@dataclass(frozen=True)
class AdmissibilityResult:
    tau: Optional[Fraction]
    radii: Optional[tuple[Fraction, ...]]
    no_pair_slots: bool = False
    obstruction: Optional[Obstruction] = None  # from ``admissibility`` when tau < 1


def _prefix_order(N: int, ordering: Optional[Sequence[int]], cap: int) -> tuple[int, ...]:
    """Family indices of positions 1..N, refused unless N is in 0..cap."""
    if not 0 <= N <= cap:
        raise InvalidFamilyParameters(f"admissibility N must be in 0..{cap}, not {N}")
    order = tuple(range(1, N + 1)) if ordering is None else tuple(int(i) for i in ordering)
    if len(order) != N or len(set(order)) != N or any(i < 1 for i in order):
        raise InvalidFamilyParameters("ordering must injectively map 1..N to family indices")
    return order


def _ratio_bellman_ford(w, partner, p: int, q: int):
    """Bellman-Ford at tau = p/q on the doubled constraint graph, from 0 everywhere.

    Node +m carries P[m] and node -m carries M[m] (0-based positions); the
    integer weights are q * scale times the constraint constants:

    * -n -> +m, q*w[m][n], for m != n (r_m + r_n <= rho);
    * +m -> -m, 0 (r_m >= 0);
    * +j -> -i, -p*w[i][j], for each slot {i, j} (r_i + r_j >= tau * rho).

    Returns ``((P, M), None)`` once nothing relaxes, or else ``(None,
    cycle)`` for the first cycle of the predecessor graph, every one of which
    has negative weight, as the upper pairs and slot numbers along it.
    """
    n = len(w)
    upper = [[q * v for v in row] for row in w]
    lower = [None if partner[j] is None else -p * w[j][partner[j]] for j in range(n)]
    P, M = [0] * n, [0] * n
    via_minus = [None] * n  # predecessor of +m: the -k it was reached from
    via_plus = [None] * n  # predecessor of -k: +k or +partner(k)
    active = range(n)
    while True:
        lowered = set()
        for j in active:
            pj = P[j]
            if pj < M[j]:
                M[j], via_plus[j] = pj, j
                lowered.add(j)
            i = partner[j]
            if i is not None and pj + lower[j] < M[i]:
                M[i], via_plus[i] = pj + lower[j], j
                lowered.add(i)
        active = set()
        for k in sorted(lowered):
            mk, row = M[k], upper[k]
            for m in range(n):
                if m != k and mk + row[m] < P[m]:
                    P[m], via_minus[m] = mk + row[m], k
                    active.add(m)
        if not active:
            return (P, M), None
        active = sorted(active)
        cycle = _predecessor_cycle(via_minus, via_plus)
        if cycle is not None:
            return None, cycle


def _predecessor_cycle(via_minus, via_plus):
    """A cycle of the predecessor graph as (upper pairs, slot numbers), or None."""
    n = len(via_minus)
    stamp = [0] * n
    for start in range(n):
        m = start
        while m is not None and not stamp[m]:
            stamp[m] = start + 1
            k = via_minus[m]
            m = None if k is None else via_plus[k]
        if m is None or stamp[m] != start + 1:
            continue
        pairs, slots, first = [], [], m
        while True:
            k = via_minus[m]
            pairs.append((min(k, m), max(k, m)))
            m = via_plus[k]
            if m != k:
                slots.append((k + 1) // 2)  # 0-based positions 2n - 1 and 2n
            if m == first:
                return pairs, slots
    return None


def _min_ratio_cycle(w, partner):
    """Newton steps from tau = 1: tau*, its final (P, M) and the last negative
    cycle found, None when tau* = 1."""
    tau, last = ONE, None
    while True:
        potentials, cycle = _ratio_bellman_ford(w, partner, tau.numerator, tau.denominator)
        if cycle is None:
            return tau, potentials, last
        pairs, slots = last = cycle
        ratio = Fraction(sum(w[m][k] for m, k in pairs), sum(w[2 * n - 1][2 * n] for n in slots))
        if ratio >= tau:
            raise AssertionError("a predecessor cycle is not negative")
        tau = ratio


def _check_admissibility(rho, tau: Fraction, radii, obstruction: Optional[Obstruction]) -> None:
    """Raise AssertionError unless the radii reach tau and the obstruction caps it."""
    N = len(radii)
    slot_rho = [rho[2 * n - 1][2 * n] for n in range(1, (N - 1) // 2 + 1)]
    if any(v < 0 for v in radii):
        raise AssertionError("a radius is negative")
    for m in range(N):
        for n in range(m + 1, N):
            if radii[m] + radii[n] > rho[m][n]:
                raise AssertionError(f"radii break separation at ({m + 1}, {n + 1})")
    for n, d in enumerate(slot_rho, 1):
        if radii[2 * n - 1] + radii[2 * n] < tau * d:
            raise AssertionError(f"radii miss tau on slot {n}")
    if obstruction is None:
        if tau != 1:
            raise AssertionError("tau < 1 needs an obstruction")
        return
    ends = [0] * (N + 1)
    for m, n in obstruction.upper:
        ends[m] += 1
        ends[n] += 1
    for n in obstruction.slots:
        ends[2 * n] -= 1
        ends[2 * n + 1] -= 1
    slot_sum = sum((slot_rho[n - 1] for n in obstruction.slots), ZERO)
    if min(ends) < 0 or slot_sum <= 0:
        raise AssertionError("the obstruction leaves a slot end uncovered")
    if sum((rho[m - 1][n - 1] for m, n in obstruction.upper), ZERO) != tau * slot_sum:
        raise AssertionError("the obstruction's ratio differs from tau")


def admissibility(
    family: MetricFamily, N: int, ordering: Optional[Sequence[int]] = None
) -> AdmissibilityResult:
    """Best achievable worst-pair ratio on a fixed prefix, as a minimum-ratio cycle.

    tau* is the optimum of ``admissibility_lp``: the largest tau for which
    radii r >= 0 with r_m + r_n <= rho(x_m, x_n) and r_2n + r_2n+1 >=
    tau * rho(x_2n, x_2n+1) exist.  These are unit two-variable constraints,
    feasible exactly when their doubled constraint graph has no negative
    cycle (Mine, "The octagon abstract domain", HOSC 19, 2006).  A cycle
    costs A - tau * B with B >= 0, so tau* is the least ratio A / B of a
    cycle; Newton (Dinkelbach) steps from tau = 1 set tau to the ratio of
    each negative cycle Bellman-Ford finds, until none is left.  The radii
    come from the final distances, r_m = (d(+m) - d(-m)) / 2, and are one
    optimal vector of several.

    Before returning, the radii are checked against every constraint, and
    for tau < 1 the last cycle is checked as an ``Obstruction``; either
    failing raises AssertionError.
    """
    order = _prefix_order(N, ordering, MAX_ADMISSIBILITY_POINTS)
    if N < 3:
        return AdmissibilityResult(tau=None, radii=None, no_pair_slots=True)
    upper = rational_distances(family.distance(order[i], order[j]) for i, j in combinations(range(N), 2))
    ints, scale = integer_scale(upper)
    rho, w = distance_matrix(upper, N), distance_matrix(ints, N, 0)
    partner = [None] * N  # 0-based positions 2n - 1 and 2n form slot n
    for n in range(1, (N - 1) // 2 + 1):
        partner[2 * n - 1], partner[2 * n] = 2 * n, 2 * n - 1

    tau, (P, M), cycle = _min_ratio_cycle(w, partner)
    radii = tuple(Fraction(P[m] - M[m], 2 * tau.denominator * scale) for m in range(N))
    obstruction = None
    if cycle is not None:
        pairs, slots = cycle
        obstruction = Obstruction(
            upper=tuple(sorted((m + 1, n + 1) for m, n in pairs)), slots=tuple(sorted(slots))
        )
    _check_admissibility(rho, tau, radii, obstruction)
    return AdmissibilityResult(tau=tau, radii=radii, obstruction=obstruction)


def admissibility_lp(
    family: MetricFamily, N: int, ordering: Optional[Sequence[int]] = None
) -> AdmissibilityResult:
    """Best achievable worst-pair ratio on a fixed prefix, as an exact LP.

    Maximises tau subject to r_m + r_n <= rho(x_m, x_n) for all m != n and
    r_2n + r_2n+1 >= tau * rho(x_2n, x_2n+1) for every complete pair slot,
    over nonnegative radii.  tau* = 1 exactly when radii witnessing the
    tight pair condition exist on this prefix with this ordering.  This is
    the independent oracle that the tests hold ``admissibility`` to.
    """
    order = _prefix_order(N, ordering, MAX_ADMISSIBILITY_LP_POINTS)
    slots = [(2 * n, 2 * n + 1) for n in range(1, (N - 1) // 2 + 1)]
    if not slots:
        return AdmissibilityResult(tau=None, radii=None, no_pair_slots=True)

    rho = lambda m, n: family.distance(order[m - 1], order[n - 1])
    n_vars = N + 1  # r_1..r_N, tau
    rows, rhs = [], []
    for m in range(1, N + 1):
        for n in range(m + 1, N + 1):
            row = [ZERO] * n_vars
            row[m - 1] = ONE
            row[n - 1] = ONE
            rows.append(row)
            rhs.append(rho(m, n))
    for i, j in slots:
        row = [ZERO] * n_vars
        row[i - 1] = -ONE
        row[j - 1] = -ONE
        row[N] = rho(i, j)
        rows.append(row)
        rhs.append(ZERO)
    objective = [ZERO] * n_vars
    objective[N] = ONE
    solution = solve_lp_max(objective, rows, rhs)
    return AdmissibilityResult(tau=solution.value, radii=solution.x[:N])


# ---------------------------------------------------------------------------
# Plan serialization (external interface)
# ---------------------------------------------------------------------------


def plan_to_json(plan: EmbeddingPlan) -> dict:
    return {
        "family": plan.family.label,
        "x_idx": list(plan.x_idx),
        "r": [fraction_str(v) for v in plan.r],
        "exact": plan.exact,
        "case": plan.case,
    }


def plan_from_json(source) -> EmbeddingPlan:
    """Parse {"family", "x_idx", "r", "case"} from JSON text or a dict.

    Input that is not such an object, a case that is not a string or null, a
    plan of no or more than MAX_POINTS points, indices that are not strictly
    increasing positive integers and radii that are not nonnegative rationals
    raise InvalidFamilyParameters; radii that break separation raise
    SeparationViolation.
    """
    from .space_catalog import parse_family

    with outside_input("plan JSON"):
        obj = json.loads(source) if isinstance(source, (str, bytes)) else source
        if not isinstance(obj, dict):
            raise ValueError("a plan JSON object is needed")
        x_idx, r = obj["x_idx"], obj["r"]
        if not isinstance(x_idx, (list, tuple)) or any(type(i) is not int for i in x_idx):
            raise ValueError("x_idx must be a list of integers")
        if not isinstance(r, (list, tuple)):
            raise ValueError("r must be a list of rationals")
        if not isinstance(obj["family"], str):
            raise ValueError("family must be a label")
        return make_plan(parse_family(obj["family"]), x_idx, r, case=obj.get("case"))
