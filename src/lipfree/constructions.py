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
step takes the smallest admissible family index, scanning at most ``horizon``
candidates (default 10000).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

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
    FreeElement,
    LipFunction,
    MetricFamily,
    as_fraction,
    distance_matrix,
    fraction_str,
    is_ultrametric,
    truncate,
    validate_metric,
)
from .norm_engine import free_norm_flow, lip_norm
from .simplex import solve_lp_max

DEFAULT_HORIZON = 10000
MAX_ADMISSIBILITY_POINTS = 64  # the exact LP has N(N-1)/2 separation rows
ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class EmbeddingPlan:
    """Subsequence indices and radii of one construction.

    Building a plan checks the separation inequality on every pair of
    positions, raising SeparationViolation(m, n) at the first
    (lexicographic) violated pair, and derives the pair ratios q_n and the
    exactness flag (every ratio equals 1).
    """

    family: MetricFamily
    x_idx: tuple[int, ...]
    r: tuple[Fraction, ...]
    case: Optional[str] = None
    ratios: tuple[Fraction, ...] = field(init=False, compare=False)  # q_1, q_2, ...
    exact: bool = field(init=False, compare=False)

    def __post_init__(self):
        if len(self.x_idx) != len(self.r):
            raise ValueError("indices and radii must align")
        if not self.x_idx or self.x_idx[0] < 1:
            raise ValueError("a plan needs at least one point, at positive indices")
        if any(a >= b for a, b in zip(self.x_idx, self.x_idx[1:])):
            raise ValueError("plan indices must be strictly increasing")
        if any(v < 0 for v in self.r):
            raise ValueError("radii must be nonnegative")
        for m in range(1, self.n_points + 1):
            for n in range(m + 1, self.n_points + 1):
                s = self.r[m - 1] + self.r[n - 1]
                d = self.rho(m, n)
                if s > d:
                    raise SeparationViolation(m, n, s, d)
        ratios = tuple(
            (self.r[2 * n - 1] + self.r[2 * n]) / self.rho(2 * n, 2 * n + 1)
            for n in range(1, self.pair_count + 1)
        )
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "exact", all(q == 1 for q in ratios))

    @property
    def n_points(self) -> int:
        return len(self.x_idx)

    @property
    def pair_count(self) -> int:
        return (self.n_points - 1) // 2

    def rho(self, m: int, n: int) -> Fraction:
        """Distance between plan positions (1-based)."""
        return self.family.distance(self.x_idx[m - 1], self.x_idx[n - 1])

    def space(self, n_points: Optional[int] = None) -> FiniteMetricSpace:
        return _plan_space(self, n_points or self.n_points)


@lru_cache(maxsize=256)
def _plan_space(plan: EmbeddingPlan, n_points: int) -> FiniteMetricSpace:
    return validate_metric(distance_matrix(lambda i, j: plan.rho(i + 1, j + 1), n_points))


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


def check_plan(plan: EmbeddingPlan, n_points: Optional[int] = None) -> PlanReport:
    """Report the pair ratios of the plan's first ``n_points`` positions.

    Separation was checked when the plan was built; the exact flag is true
    when every ratio of the prefix is 1.
    """
    N = plan.n_points if n_points is None else min(n_points, plan.n_points)
    ratios = tuple(enumerate(plan.ratios[: max(N - 1, 0) // 2], 1))
    return PlanReport(n_points=N, ratios=ratios, exact=all(q == 1 for _, q in ratios))


# ---------------------------------------------------------------------------
# Bump functions, block sums, the l-infinity side
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


def bump_eval(plan: EmbeddingPlan, n: int, p: int) -> Fraction:
    """g_n at point p of the truncation: max(r_n - rho(p, x_n), 0).

    ``n`` is a plan position (1-based), ``p`` a point label of the plan's
    truncation (0-based, label p is position p+1).
    """
    value = plan.r[n - 1] - plan.rho(p + 1, n)
    return value if value > 0 else ZERO


def f_k_eval(plan: EmbeddingPlan, partition: IndexPartition, k: int, p: int) -> Fraction:
    """Block function f_k at point p: sum over the block of g_{2m} - g_{2m+1}.

    Separation makes the bump supports disjoint, so at most one term is
    nonzero.
    """
    total = ZERO
    for m in partition.blocks[k - 1]:
        if 2 * m + 1 <= plan.n_points:
            total += bump_eval(plan, 2 * m, p) - bump_eval(plan, 2 * m + 1, p)
    return total


def lin_comb_eval(
    plan: EmbeddingPlan, partition: IndexPartition, coeffs: Sequence, p: int
) -> Fraction:
    """sum a_k f_k at point p; with one block and coefficient 1 this is f_1."""
    coeffs = [as_fraction(a) for a in coeffs]
    if len(coeffs) != len(partition.blocks):
        raise ValueError("one coefficient per partition block")
    return sum(
        (a * f_k_eval(plan, partition, k, p) for k, a in enumerate(coeffs, 1) if a),
        ZERO,
    )


def pair_function(plan: EmbeddingPlan, n: int, n_points: Optional[int] = None) -> LipFunction:
    """The single-pair function f_n = g_{2n} - g_{2n+1} restricted to the truncation."""
    N = n_points or plan.n_points
    values = [bump_eval(plan, 2 * n, p) - bump_eval(plan, 2 * n + 1, p) for p in range(N)]
    return LipFunction(values=tuple(values))


def lin_comb_function(
    plan: EmbeddingPlan, partition: IndexPartition, coeffs: Sequence, n_points: Optional[int] = None
) -> LipFunction:
    N = n_points or plan.n_points
    values = [lin_comb_eval(plan, partition, coeffs, p) for p in range(N)]
    return LipFunction(values=tuple(values))


@dataclass(frozen=True)
class LinftyReport:
    lip: Fraction
    lower: Fraction  # max over available pairs of |a_block| * q_n
    upper: Fraction  # max |a_k|


def verify_linfty_isometry(
    plan: EmbeddingPlan,
    partition: IndexPartition,
    coeffs: Sequence,
    n_pairs: Optional[int] = None,
) -> LinftyReport:
    """Lipschitz norm of sum a_k f_k on the truncation with 2*n_pairs+1 points.

    The norm never exceeds max|a_k| (disjoint supports) and is at least
    |a_k| * q_n for every pair n of block k inside the truncation, so it
    converges to max|a_k| exactly as the ratios approach 1.
    """
    coeffs = [as_fraction(a) for a in coeffs]
    pairs = plan.pair_count if n_pairs is None else n_pairs
    n_points = 2 * pairs + 1
    if n_points > plan.n_points:
        raise ValueError("truncation exceeds the plan")
    h = lin_comb_function(plan, partition, coeffs, n_points)
    lip = lip_norm(h, plan.space(n_points))
    lower = ZERO
    for k, block in enumerate(partition.blocks, 1):
        if k > len(coeffs):
            break
        a = abs(coeffs[k - 1])
        for m in block:
            if m <= pairs and a * plan.ratios[m - 1] > lower:
                lower = a * plan.ratios[m - 1]
    upper = max((abs(a) for a in coeffs), default=ZERO)
    return LinftyReport(lip=lip, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# The l1 side: basis, isometry, projection
# ---------------------------------------------------------------------------


def l1_basis(plan: EmbeddingPlan, n: int) -> FreeElement:
    """e_n = (delta_{x_{2n}} - delta_{x_{2n+1}}) / rho(x_{2n}, x_{2n+1})."""
    if 2 * n + 1 > plan.n_points:
        raise ValueError(f"pair {n} exceeds the plan")
    rho = plan.rho(2 * n, 2 * n + 1)
    return FreeElement.from_pairs([(2 * n - 1, 1 / rho), (2 * n, -1 / rho)])


def l1_combination(plan: EmbeddingPlan, coeffs: Sequence) -> FreeElement:
    coeffs = [as_fraction(a) for a in coeffs]
    pairs = []
    for n, a in enumerate(coeffs, 1):
        if a == 0:
            continue
        rho = plan.rho(2 * n, 2 * n + 1)
        pairs += [(2 * n - 1, a / rho), (2 * n, -a / rho)]
    return FreeElement.from_pairs(pairs)


def verify_l1_isometry(plan: EmbeddingPlan, coeffs: Sequence) -> Fraction:
    """Free norm of sum a_n e_n; equals sum |a_n| exactly on exact plans.

    The norm comes from the certified transport engine.
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
    return free_norm_flow(l1_combination(plan, coeffs), plan.space(2 * len(coeffs) + 1))


def projection_coeffs(plan: EmbeddingPlan, p: int, n_pairs: Optional[int] = None) -> tuple[Fraction, ...]:
    """Coefficients (f_1(p), ..., f_N(p)) of the projection r(x) = sum f_n(x) e_n."""
    if not plan.exact:
        raise ExactnessRequired("the projection is defined for exact plans")
    pairs = plan.pair_count if n_pairs is None else n_pairs
    return tuple(
        bump_eval(plan, 2 * n, p) - bump_eval(plan, 2 * n + 1, p)
        for n in range(1, pairs + 1)
    )


@dataclass(frozen=True)
class ProjectionReport:
    basis_reproduced: bool  # P(e_n) = e_n exactly for all pairs
    lipschitz_ok: bool  # sum_n |f_n(p) - f_n(q)| <= rho(p, q) for all pairs
    n_pairs: int

    @property
    def ok(self) -> bool:
        return self.basis_reproduced and self.lipschitz_ok


def verify_projection(plan: EmbeddingPlan, n_pairs: Optional[int] = None) -> ProjectionReport:
    """Exact checks that the coefficient map is a norm-1 projection onto span{e_n}."""
    if not plan.exact:
        raise ExactnessRequired("the projection is defined for exact plans")
    pairs = plan.pair_count if n_pairs is None else n_pairs
    n_points = 2 * pairs + 1
    coeff_rows = [projection_coeffs(plan, p, pairs) for p in range(n_points)]

    basis_ok = True
    for n in range(1, pairs + 1):
        rho = plan.rho(2 * n, 2 * n + 1)
        for m in range(1, pairs + 1):
            # coefficient of e_m in P(e_n)
            value = (coeff_rows[2 * n - 1][m - 1] - coeff_rows[2 * n][m - 1]) / rho
            if value != (ONE if m == n else ZERO):
                basis_ok = False

    space = plan.space(n_points)
    lip_ok = True
    for p in range(n_points):
        for q in range(p + 1, n_points):
            total = sum(
                (abs(a - b) for a, b in zip(coeff_rows[p], coeff_rows[q])), ZERO
            )
            if total > space.dist[p][q]:
                lip_ok = False
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


def radii_accumulation(family: MetricFamily, n_pairs: int, horizon: int = DEFAULT_HORIZON) -> EmbeddingPlan:
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
    limit = horizon if family.size is None else min(horizon, family.size)
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


def _resolve_d_limit(family: MetricFamily, horizon: int) -> Fraction:
    """The limit d of the d_k, from metadata or an exact stabilised estimate."""
    if family.d_limit is not None:
        return family.d_limit
    window = 16
    hi = horizon if family.size is None else min(horizon, family.size)
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


def radii_bounded_separated(family: MetricFamily, n_pairs: int, horizon: int = DEFAULT_HORIZON) -> EmbeddingPlan:
    """Radii for a bounded uniformly separated family.

    Extracts a subsequence whose pairwise distances fall in the shrinking
    windows (d(1 - 1/(2m)), d(1 + 1/(2m))) around the limit d, then takes
    r_n = (d/2)(1 - 1/n).  The pair ratios obey the lower-bound chain
    q_n > (1 - 1/(4n) - 1/(2(2n+1))) / (1 + 1/(4n)).
    """
    L = _plan_length(n_pairs)
    if family.bounded is False:
        raise MetadataRequired(f"{family.label} is not bounded")
    d = _resolve_d_limit(family, horizon)
    limit = horizon if family.size is None else min(horizon, family.size)

    chosen: list[int] = []
    for start in range(1, limit + 1):
        chosen = [start]
        cand = start + 1
        while cand <= limit and len(chosen) < L:
            ok = True
            for m, idx in enumerate(chosen, 1):
                rho = family.distance(idx, cand)
                half = Fraction(1, 2 * m)
                if not (d * (1 - half) < rho < d * (1 + half)):
                    ok = False
                    break
            if ok:
                chosen.append(cand)
            cand += 1
        if len(chosen) == L:
            break
    if len(chosen) < L:
        raise HorizonExhausted("window extraction failed within the scan horizon")

    radii = [d / 2 * (1 - Fraction(1, n)) for n in range(1, L + 1)]
    return make_plan(family, chosen, radii, case="bounded")


def radii_unbounded(
    family: MetricFamily,
    n_pairs: int,
    horizon: int = DEFAULT_HORIZON,
    r1: Fraction = ONE,
) -> EmbeddingPlan:
    """Greedy radii for an unbounded family.

    From x_1 (the first family index) and r_1 > 0, each step takes the
    smallest next index with rho(x_{n+1}, x_n) > n * max_k(rho(x_n, x_k) + r_k)
    and sets r_{n+1} = rho(x_{n+1}, x_n) minus that maximum; the pair ratios
    then exceed 1 - 1/(2n).
    """
    L = _plan_length(n_pairs)
    r1 = as_fraction(r1)
    if r1 <= 0:
        raise InvalidFamilyParameters("r_1 must be positive")
    x_idx = [1]
    radii = [r1]
    while len(x_idx) < L:
        n = len(x_idx)
        last = x_idx[-1]
        peak = max(
            family.distance(last, k) + rk for k, rk in zip(x_idx, radii)
        )
        bound = n * peak
        nxt = None
        if family.first_index_beyond is not None:
            nxt = family.first_index_beyond(last, bound, last + 1)
        else:
            limit = horizon if family.size is None else min(horizon, family.size)
            for i in range(last + 1, limit + 1):
                if family.distance(i, last) > bound:
                    nxt = i
                    break
        if nxt is None or (family.size is not None and nxt > family.size):
            raise HorizonExhausted("no index beyond the greedy bound within the horizon")
        x_idx.append(nxt)
        radii.append(family.distance(nxt, last) - peak)
    return make_plan(family, x_idx, radii, case="unbounded")


def radii_unbounded_delta(family: MetricFamily, n_pairs: int, horizon: int = DEFAULT_HORIZON) -> EmbeddingPlan:
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
        if t > horizon:
            raise HorizonExhausted("no pair with large enough defect within the horizon")
        i, j = 2 * t, 2 * t + 1
        if family.size is not None and j > family.size:
            raise HorizonExhausted(f"{family.label} exhausted before {n_pairs} pairs")
        if i > x_idx[-1]:
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


def _uniform_clique(family: MetricFamily, scan: int, length: int) -> Optional[list[int]]:
    """Indices with all pairwise distances equal, preferring larger values.

    Each candidate value is grown greedily from a pair that realises it, so
    uniform clusters that do not contain the first family index are still
    found.
    """
    probe = min(scan, 64)
    by_value: dict[Fraction, list[tuple[int, int]]] = {}
    for i in range(1, probe + 1):
        for j in range(i + 1, probe + 1):
            by_value.setdefault(family.distance(i, j), []).append((i, j))
    for d in sorted(by_value, reverse=True):
        for i, j in by_value[d][:40]:
            chosen = [i, j]
            for cand in range(j + 1, scan + 1):
                if all(family.distance(cand, s) == d for s in chosen):
                    chosen.append(cand)
                    if len(chosen) == length:
                        return chosen
    return None


def _monotone_chain(family: MetricFamily, scan: int, length: int, decreasing: bool) -> Optional[list[int]]:
    """Indices y_1 < y_2 < ... whose distance matrix is constant along rows.

    decreasing: rho(y_s, y_t) = d_s for t > s with d strictly decreasing
    (the value belongs to the earlier point); increasing: rho(y_s, y_t) = e_t
    with e strictly increasing (the value belongs to the later point).
    Greedy with chronological backtracking over the scanned prefix until
    ``length`` is reached, then extended greedily as far as the scan allows
    (the extra elements give the thinning step room to skip).
    """
    budget = 20 * scan
    stack: list[int] = []
    cursor = [1]  # next candidate to try at each depth

    def admissible(j: int) -> bool:
        if not stack:
            return True
        if decreasing:
            vals = [family.distance(s, j) for s in stack]
            # each earlier point keeps its row value; the new closing value
            # must continue the strict descent
            for s_pos in range(len(stack) - 1):
                expected = family.distance(stack[s_pos], stack[s_pos + 1])
                if vals[s_pos] != expected:
                    return False
            if len(stack) >= 2:
                prev = family.distance(stack[-2], stack[-1])
                if vals[-1] >= prev:
                    return False
            return True
        new_val = family.distance(stack[-1], j)
        for s_pos in range(len(stack) - 1):
            if family.distance(stack[s_pos], j) != new_val:
                return False
        if len(stack) >= 2:
            prev = family.distance(stack[-2], stack[-1])
            if new_val <= prev:
                return False
        return True

    steps = 0
    while True:
        steps += 1
        if steps > budget:
            return None
        depth = len(stack)
        cand = cursor[depth]
        if cand > scan:
            if not stack:
                return None
            stack.pop()
            cursor.pop()
            cursor[-1] += 1
            continue
        if admissible(cand):
            stack.append(cand)
            cursor[depth] = cand
            cursor.append(cand + 1)
            if len(stack) == length:
                for extra in range(cand + 1, scan + 1):
                    if admissible(extra):
                        stack.append(extra)
                return stack
        else:
            cursor[depth] = cand + 1


def radii_ultrametric(family: MetricFamily, n_pairs: int, horizon: int = DEFAULT_HORIZON) -> EmbeddingPlan:
    """Radii inside an ultrametric family via the bounded trichotomy.

    Scans for, in order: a chain with row-constant strictly decreasing
    values (decreasing case, thinned so consecutive values satisfy
    d_next <= (3 d + d_prev) / 4, radii r_2n = rho - d_{2n+1}/2 and
    r_{2n+1} = d_{2n+1}/2); a chain with strictly increasing values
    (increasing case, thinned by e_next >= (d + e_prev) / 2, radii
    r_2n = r_{2n+1} = rho/2); a set with all pairwise distances equal
    (constant case, r_n = d/2).  All three produce exact plans.
    """
    L = _plan_length(n_pairs)
    scan = min(horizon, family.size or horizon, 512)
    probe = min(scan, 40)
    ok, witness = is_ultrametric(truncate(family, probe))
    if not ok:
        raise NotUltrametric(witness)

    chain = _monotone_chain(family, scan, L + 1, decreasing=True)
    if chain is not None:
        # row values d_s = rho(y_s, y_{s+1}); the trailing point only closes the last row
        d_vals = [family.distance(chain[s], chain[s + 1]) for s in range(len(chain) - 1)]
        d_inf = family.d_limit if family.d_limit is not None else d_vals[-1]
        picked = _thin_decreasing(d_vals, d_inf, L)
        if picked is not None:
            x_idx = [chain[s] for s in picked]
            d_sel = [d_vals[s] for s in picked]
            radii = [ZERO] * L
            for n in range(1, (L - 1) // 2 + 1):
                radii[2 * n - 1] = d_sel[2 * n - 1] - d_sel[2 * n] / 2
                radii[2 * n] = d_sel[2 * n] / 2
            return make_plan(family, x_idx, radii, case="ultra-decreasing")

    chain = _monotone_chain(family, scan, L, decreasing=False)
    if chain is not None:
        e_vals = [None] + [
            family.distance(chain[0], chain[s]) for s in range(1, len(chain))
        ]
        d_sup = family.d_limit if family.d_limit is not None else e_vals[-1]
        picked = _thin_increasing(e_vals, d_sup, L)
        if picked is not None:
            x_idx = [chain[s] for s in picked]
            radii = [ZERO] * L
            for n in range(1, (L - 1) // 2 + 1):
                rho = family.distance(x_idx[2 * n - 1], x_idx[2 * n])
                radii[2 * n - 1] = rho / 2
                radii[2 * n] = rho / 2
            return make_plan(family, x_idx, radii, case="ultra-increasing")

    clique = _uniform_clique(family, scan, L)
    if clique is not None:
        d = family.distance(clique[0], clique[1])
        return make_plan(family, clique, [d / 2] * L, case="ultra-constant")

    raise HorizonExhausted("no ultrametric subsequence of the required shape found")


def _thin_decreasing(d_vals: list[Fraction], d_inf: Fraction, needed: int) -> Optional[list[int]]:
    picked = [0]
    for s in range(1, len(d_vals)):
        if len(picked) == needed:
            break
        if d_vals[s] <= (3 * d_inf + d_vals[picked[-1]]) / 4 and d_vals[s] >= d_inf:
            picked.append(s)
    return picked if len(picked) == needed else None


def _thin_increasing(e_vals: list, d_sup: Fraction, needed: int) -> Optional[list[int]]:
    picked = [0]
    for s in range(1, len(e_vals)):
        if len(picked) == needed:
            break
        e = e_vals[s]
        if len(picked) == 1:
            if 2 * e >= d_sup:
                picked.append(s)
        elif e >= (d_sup + e_vals[picked[-1]]) / 2 and e <= d_sup:
            picked.append(s)
    return picked if len(picked) == needed else None


# ---------------------------------------------------------------------------
# Admissibility probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityResult:
    tau: Optional[Fraction]
    radii: Optional[tuple[Fraction, ...]]
    no_pair_slots: bool = False


def admissibility_lp(
    family: MetricFamily, N: int, ordering: Optional[Sequence[int]] = None
) -> AdmissibilityResult:
    """Best achievable worst-pair ratio on a fixed prefix, as an exact LP.

    Maximises tau subject to r_m + r_n <= rho(x_m, x_n) for all m != n and
    r_2n + r_2n+1 >= tau * rho(x_2n, x_2n+1) for every complete pair slot,
    over nonnegative radii.  tau* = 1 exactly when radii witnessing the
    tight pair condition exist on this prefix with this ordering.
    """
    if N > MAX_ADMISSIBILITY_POINTS:
        raise InvalidFamilyParameters(f"admissibility N must be at most {MAX_ADMISSIBILITY_POINTS}")
    order = tuple(range(1, N + 1)) if ordering is None else tuple(int(i) for i in ordering)
    if len(order) != N or len(set(order)) != N or any(i < 1 for i in order):
        raise InvalidFamilyParameters("ordering must injectively map 1..N to family indices")
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


def plan_from_json(source, family: Optional[MetricFamily] = None) -> EmbeddingPlan:
    """Parse {"family", "x_idx", "r", "case"} from JSON text or a dict.

    Input that is not such an object, an empty plan, indices that are not
    strictly increasing positive integers and radii that are not nonnegative
    rationals raise InvalidFamilyParameters; radii that break separation raise
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
        fam = family if family is not None else parse_family(obj["family"])
        return make_plan(fam, x_idx, r, case=obj.get("case"))
