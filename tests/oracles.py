"""Independent brute-force oracles and random instance generators.

Everything here is deliberately dumb and separate from the library code
paths it checks: exhaustive scans, pairwise line intersections, vertex
enumeration of tiny LPs, shortest-path metric closures.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

from typing import Optional

from lipfree import (
    EmbeddingPlan,
    FiniteMetricSpace,
    FreeElement,
    FreeNormResult,
    HorizonExhausted,
    IndexPartition,
    LinftyReport,
    LipFunction,
    MetadataRequired,
    MetricFamily,
    NotUltrametric,
    ProjectionReport,
    as_fraction,
    is_ultrametric,
    lip_norm,
    make_plan,
    validate_metric,
)
from lipfree.constructions import (
    ONE,
    ZERO,
    _decreasing_thinning,
    _increasing_thinning,
    _plan_length,
    _resolve_d_limit,
    _scan_limit,
)
from lipfree.flow import min_cost_transport
from lipfree.metric_core import _SCAN_BITS, FLOAT_TOLERANCE


def triangle_scan(dist, tolerance=0) -> tuple | None:
    """First (i, j, k) with dist[i][k] > dist[i][j] + dist[j][k] + tolerance, else None."""
    n = len(dist)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k in (i, j):
                    continue
                if dist[i][k] > dist[i][j] + dist[j][k] + tolerance:
                    return (i, j, k)
    return None


def truncate_reference(family: MetricFamily, N: int) -> FiniteMetricSpace:
    """``truncate`` before it scaled its own distances: the full matrix, one
    ``family.distance`` call per pair i < j in ``combinations`` order, then
    ``validate_metric`` on it."""
    mat = [[Fraction(0)] * N for _ in range(N)]
    for i, j in combinations(range(N), 2):
        mat[i][j] = mat[j][i] = family.distance(i + 1, j + 1)
    return validate_metric(mat, family.approximate)


def ultrametric_scan(dist) -> tuple | None:
    """First (x, y, z) with dist[x][y] > max(dist[x][z], dist[z][y]), else None."""
    n = len(dist)
    for x in range(n):
        for y in range(n):
            if y == x:
                continue
            for z in range(n):
                if z in (x, y):
                    continue
                if dist[x][y] > dist[x][z] and dist[x][y] > dist[z][y]:
                    return (x, y, z)
    return None


def rand_fraction(rng: random.Random, max_num=6, max_den=4, signed=False) -> Fraction:
    num = rng.randint(1, max_num)
    if signed and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, max_den))


def random_metric_space(rng: random.Random, n: int) -> FiniteMetricSpace:
    """Random rational metric: positive symmetric weights closed under shortest paths."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rand_fraction(rng) + Fraction(1, 4)
            d[i][j] = d[j][i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if i != j and d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return validate_metric(d)


def random_element(rng: random.Random, n_points: int, support_size: int) -> FreeElement:
    points = rng.sample(range(1, n_points), support_size)
    return FreeElement.from_pairs(
        [(p, rand_fraction(rng, signed=True)) for p in points]
    )


def one_point_extension(rng: random.Random, space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Extend by one point with random admissible distances.

    Distances to a new point must satisfy |f(i) - f(j)| <= rho(i, j)
    <= f(i) + f(j); built from a random 1-Lipschitz function shifted up.
    """
    n = space.n
    anchors = {p: rand_fraction(rng, max_num=4) for p in range(n)}
    f = [min(anchors[q] + space.dist[p][q] for q in range(n)) for p in range(n)]
    shift = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            need = (space.dist[i][j] - f[i] - f[j]) / 2
            if need > shift:
                shift = need
    shift += Fraction(1, rng.randint(1, 5))  # keep the new distances positive
    f = [v + shift for v in f]
    d = [list(row) + [f[i]] for i, row in enumerate(space.dist)]
    d.append(f + [Fraction(0)])
    return validate_metric(d)


def assert_scaled_ints(space: FiniteMetricSpace, scale: Optional[int] = None) -> None:
    """``space.ints`` is ``space.dist`` times ``scale`` exactly, in ints, or None
    exactly when ``scale`` passes ``_SCAN_BITS``.

    ``scale`` defaults to the lcm of the entries' denominators, and of the
    tolerance's on an approximate space: the scale of ``validate_metric``.
    """
    if scale is None:
        tol = [FLOAT_TOLERANCE.denominator] if space.approximate else []
        scale = lcm(*(v.denominator for row in space.dist for v in row), *tol)
    if scale.bit_length() > _SCAN_BITS:
        assert space.ints is None and space.scale is None
        return
    assert space.scale == scale
    assert type(space.ints) is tuple and all(type(row) is tuple for row in space.ints)
    assert all(type(v) is int for row in space.ints for v in row)
    assert space.ints == tuple(tuple(v * scale for v in row) for row in space.dist)


def shortest_path_costs(space: FiniteMetricSpace, points) -> list[list[Fraction]]:
    """``space.dist`` with each entry among ``points`` lowered to the shortest
    path through ``points``, by relaxing every triple until none changes."""
    costs = [list(row) for row in space.dist]
    changed = True
    while changed:
        changed = False
        for i in points:
            for j in points:
                for k in points:
                    if costs[i][k] + costs[k][j] < costs[i][j]:
                        costs[i][j] = costs[i][k] + costs[k][j]
                        changed = True
    return costs


def assert_certificate(result, element: FreeElement, space: FiniteMetricSpace, costs=None) -> None:
    """The transport certificate, recomputed from scratch.

    The pairing of the attaining function with the element equals the value,
    and the plan moves exactly the positive part (base balance included)
    onto the negative part at a total cost equal to the value, priced at
    ``costs`` (the metric by default).  The Lipschitz bound is left to
    ``lip_norm``.
    """
    values = result.function.values
    assert values[0] == 0 and len(values) == space.n
    assert sum(c * values[p] for p, c in element.support) == result.value
    masses = dict(element.support)
    masses[0] = -sum(masses.values(), Fraction(0))
    moved = {p: Fraction(0) for p in masses}
    for x, y, m in result.plan:
        assert m > 0 and masses[x] > 0 > masses[y]
        moved[x] += m
        moved[y] -= m
    assert moved == masses
    costs = space.dist if costs is None else costs
    assert sum(m * costs[x][y] for x, y, m in result.plan) == result.value


def free_norm_reference(element: FreeElement, space: FiniteMetricSpace) -> FreeNormResult:
    """``free_norm`` with the c-transform on Fractions, as it was first written.

    The same transport, then f(x) = min_j (beta_j + rho(x, y_j)) - f(0) with
    every sum and comparison on Fractions; no certificate checks.
    """
    masses = dict(element.support)
    balance = -sum(masses.values(), Fraction(0))
    if balance != 0:
        masses[0] = balance
    sources = [(p, c) for p, c in sorted(masses.items()) if c > 0]
    sinks = [(p, -c) for p, c in sorted(masses.items()) if c < 0]
    if not sources:
        return FreeNormResult(Fraction(0), LipFunction((Fraction(0),) * space.n), ())
    dist = space.dist
    transport = min_cost_transport(
        [c for _, c in sources],
        [c for _, c in sinks],
        lambda i, j: dist[sources[i][0]][sinks[j][0]],
    )
    beta = [-p for p in transport.potentials[len(sources):]]
    values = [min(b + dist[x][y] for b, (y, _) in zip(beta, sinks)) for x in range(space.n)]
    function = LipFunction(tuple(v - values[0] for v in values))
    plan = tuple((sources[i][0], sinks[j][0], m) for i, j, m in transport.plan)
    return FreeNormResult(transport.cost, function, plan)


def free_norm_vertex_enum(element: FreeElement, space: FiniteMetricSpace) -> Fraction:
    """Free norm by enumerating vertices of the feasible Lipschitz-value polytope.

    Only for supports of size <= 3: solves every square subsystem of tight
    constraints, keeps the feasible points, and maximises the pairing.
    """
    points = [p for p, _ in element.support]
    coefs = dict(element.support)
    m = len(points)
    if m == 0:
        return Fraction(0)
    assert m <= 3, "oracle is exponential; keep supports tiny"
    nodes = [0] + points
    # constraints: a.f <= b over variables f(points); f(0) = 0 folded in
    constraints = []
    for i in nodes:
        for j in nodes:
            if i == j:
                continue
            row = [Fraction(0)] * m
            if i != 0:
                row[points.index(i)] += 1
            if j != 0:
                row[points.index(j)] -= 1
            constraints.append((row, space.dist[i][j]))
    best = Fraction(0)
    for subset in combinations(range(len(constraints)), m):
        rows = [constraints[s][0] for s in subset]
        rhs = [constraints[s][1] for s in subset]
        sol = _solve_square(rows, rhs)
        if sol is None:
            continue
        if all(
            sum(a * x for a, x in zip(row, sol)) <= b for row, b in constraints
        ):
            value = sum(coefs[p] * sol[points.index(p)] for p in points)
            if value > best:
                best = value
    return best


def _solve_square(rows, rhs):
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [v / pv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def halfplane_vertices_bruteforce(dx0, dy0, dxy) -> set:
    """Vertices of A by intersecting all pairs of the six boundary lines."""
    one = Fraction(1)
    lines = [
        (one, Fraction(0), Fraction(dx0)),
        (-one, Fraction(0), Fraction(dx0)),
        (Fraction(0), one, Fraction(dy0)),
        (Fraction(0), -one, Fraction(dy0)),
        (one, -one, Fraction(dxy)),
        (-one, one, Fraction(dxy)),
    ]
    vertices = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        u = (c1 * b2 - c2 * b1) / det
        v = (a1 * c2 - a2 * c1) / det
        if all(a * u + b * v <= c for a, b, c in lines):
            vertices.add((u, v))
    return vertices


def cyclically_equal(seq_a, seq_b) -> bool:
    """Equality of closed polygons up to rotation (same orientation)."""
    a, b = list(seq_a), list(seq_b)
    if len(a) != len(b):
        return False
    return any(a[k:] + a[:k] == b for k in range(len(a)))


def dendrogram_lca_bruteforce(codes, levels):
    """Leaf distance matrix from explicit ancestor sets (independent of cpl logic)."""
    n = len(codes)
    ancestors = []
    for code in codes:
        ancestors.append({tuple(code[:t]) for t in range(len(code) + 1)})
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            common = ancestors[i] & ancestors[j]
            depth = max(len(c) for c in common)
            d[i][j] = d[j][i] = Fraction(levels[depth])
    return d


# ---------------------------------------------------------------------------
# Ultrametric extraction on direct oracle calls
# ---------------------------------------------------------------------------
# The searches below ask ``family.distance`` for every value they compare,
# once per comparison.  ``constructions`` runs the same searches on a table
# that fetches each pair once; its results must be these, budget cut included.


def uniform_clique_reference(family: MetricFamily, scan: int, length: int) -> Optional[list[int]]:
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


def monotone_chain_reference(family: MetricFamily, scan: int, length: int, decreasing: bool) -> Optional[list[int]]:
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


def _picks(thinning, values) -> Optional[list[int]]:
    """The library's thinning over every value: its picks, or None if too few."""
    return thinning.picked if thinning.feed(values) else None


def radii_ultrametric_reference(family: MetricFamily, n_pairs: int) -> EmbeddingPlan:
    """``radii_ultrametric`` on direct ``family.distance`` calls and the two
    searches above; every other step is the library's.

    Radii inside an ultrametric family via the bounded trichotomy.

    Scans for, in order: a chain with row-constant strictly decreasing
    values (decreasing case, thinned so consecutive values satisfy
    d_next <= (3 d + d_prev) / 4, radii r_2n = rho - d_{2n+1}/2 and
    r_{2n+1} = d_{2n+1}/2); a chain with strictly increasing values
    (increasing case, thinned by e_next >= (d + e_prev) / 2, radii
    r_2n = r_{2n+1} = rho/2); a set with all pairwise distances equal
    (constant case, r_n = d/2).  All three produce exact plans.
    """
    L = _plan_length(n_pairs)
    scan = min(family.size or 512, 512)
    probe = min(scan, 40)
    ok, witness = is_ultrametric(truncate_reference(family, probe))
    if not ok:
        raise NotUltrametric(witness)

    chain = monotone_chain_reference(family, scan, L + 1, decreasing=True)
    if chain is not None:
        # row values d_s = rho(y_s, y_{s+1}); the trailing point only closes the last row
        d_vals = [family.distance(chain[s], chain[s + 1]) for s in range(len(chain) - 1)]
        d_inf = family.d_limit if family.d_limit is not None else d_vals[-1]
        picked = _picks(_decreasing_thinning(d_inf, L), d_vals)
        if picked is not None:
            x_idx = [chain[s] for s in picked]
            d_sel = [d_vals[s] for s in picked]
            radii = [ZERO] * L
            for n in range(1, (L - 1) // 2 + 1):
                radii[2 * n - 1] = d_sel[2 * n - 1] - d_sel[2 * n] / 2
                radii[2 * n] = d_sel[2 * n] / 2
            return make_plan(family, x_idx, radii, case="ultra-decreasing")

    chain = monotone_chain_reference(family, scan, L, decreasing=False)
    if chain is not None:
        e_vals = [None] + [
            family.distance(chain[0], chain[s]) for s in range(1, len(chain))
        ]
        d_sup = family.d_limit if family.d_limit is not None else e_vals[-1]
        picked = _picks(_increasing_thinning(d_sup, L), e_vals)
        if picked is not None:
            x_idx = [chain[s] for s in picked]
            radii = [ZERO] * L
            for n in range(1, (L - 1) // 2 + 1):
                rho = family.distance(x_idx[2 * n - 1], x_idx[2 * n])
                radii[2 * n - 1] = rho / 2
                radii[2 * n] = rho / 2
            return make_plan(family, x_idx, radii, case="ultra-increasing")

    clique = uniform_clique_reference(family, scan, L)
    if clique is not None:
        d = family.distance(clique[0], clique[1])
        return make_plan(family, clique, [d / 2] * L, case="ultra-constant")

    raise HorizonExhausted("no ultrametric subsequence of the required shape found")


# ---------------------------------------------------------------------------
# Bounded window extraction, each window built where it is tested
# ---------------------------------------------------------------------------


def radii_bounded_separated_reference(family: MetricFamily, n_pairs: int) -> EmbeddingPlan:
    """``radii_bounded_separated`` with each window rebuilt at every test,
    as the builder was first written; the limit d and the scan are the library's.

    Extracts a subsequence whose pairwise distances fall in the shrinking
    windows (d(1 - 1/(2m)), d(1 + 1/(2m))) around the limit d, then takes
    r_n = (d/2)(1 - 1/n).
    """
    L = _plan_length(n_pairs)
    if not family.bounded:
        raise MetadataRequired(f"{family.label} is not bounded")
    d = _resolve_d_limit(family)
    limit = _scan_limit(family)

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


# ---------------------------------------------------------------------------
# Bump functions, the l1 basis, block sums and the projection, point by point
# ---------------------------------------------------------------------------
# Every bump value is read through this module's ``bump_eval`` at call time,
# so a test that patches it reaches these routes; the library's verifiers
# read the plan's integer ``pair_rows`` instead.


def bump_eval(plan: EmbeddingPlan, n: int, p: int) -> Fraction:
    """g_n at point p of the truncation: max(r_n - rho(p, x_n), 0).

    ``n`` is a plan position (1-based), ``p`` a point label of the plan's
    truncation (0-based, label p is position p+1).
    """
    value = plan.r[n - 1] - plan.rho(p + 1, n)
    return value if value > 0 else ZERO


def _pair_value(plan: EmbeddingPlan, n: int, p: int) -> Fraction:
    return bump_eval(plan, 2 * n, p) - bump_eval(plan, 2 * n + 1, p)


def l1_basis(plan: EmbeddingPlan, n: int) -> FreeElement:
    """e_n = (delta_{x_{2n}} - delta_{x_{2n+1}}) / rho(x_{2n}, x_{2n+1})."""
    if 2 * n + 1 > plan.n_points:
        raise ValueError(f"pair {n} exceeds the plan")
    rho = plan.rho(2 * n, 2 * n + 1)
    return FreeElement.from_pairs([(2 * n - 1, 1 / rho), (2 * n, -1 / rho)])


def l1_combination(plan: EmbeddingPlan, coeffs) -> FreeElement:
    """sum_n a_n e_n, for ``free_norm`` to check ``verify_l1_isometry`` by transport."""
    coeffs = [as_fraction(a) for a in coeffs]
    pairs = []
    for n, a in enumerate(coeffs, 1):
        if a == 0:
            continue
        rho = plan.rho(2 * n, 2 * n + 1)
        pairs += [(2 * n - 1, a / rho), (2 * n, -a / rho)]
    return FreeElement.from_pairs(pairs)


def lin_comb_eval_reference(plan: EmbeddingPlan, partition: IndexPartition, coeffs, p: int) -> Fraction:
    """sum_k a_k f_k at point p, each block function f_k summed over the
    block's pairs that lie inside the plan."""
    coeffs = [as_fraction(a) for a in coeffs]
    if len(coeffs) != len(partition.blocks):
        raise ValueError("one coefficient per partition block")
    total = ZERO
    for k, a in enumerate(coeffs, 1):
        if a:
            f_k = sum((_pair_value(plan, m, p) for m in partition.blocks[k - 1]
                       if 2 * m + 1 <= plan.n_points), ZERO)
            total += a * f_k
    return total


def separation_reference(family: MetricFamily, x_idx, r) -> Optional[tuple]:
    """(m, n, r_m + r_n, rho) at the first pair of positions m < n, in
    lexicographic order, whose radii sum exceeds their distance, or None."""
    for m, n in combinations(range(len(x_idx)), 2):
        d = family.distance(x_idx[m], x_idx[n])
        if r[m] + r[n] > d:
            return m + 1, n + 1, r[m] + r[n], d
    return None


def prefix(plan: EmbeddingPlan, pairs: int) -> EmbeddingPlan:
    """The plan's first ``pairs`` pairs: its first 2 * pairs + 1 points."""
    n_points = 2 * pairs + 1
    return make_plan(plan.family, plan.x_idx[:n_points], plan.r[:n_points], plan.case)


def prefix_space(plan: EmbeddingPlan, n_points: int) -> FiniteMetricSpace:
    """The plan's space on its first ``n_points`` points, cut from the whole plan's."""
    space = plan.space()
    return FiniteMetricSpace(tuple(row[:n_points] for row in space.dist[:n_points]), space.approximate)


def verify_linfty_reference(plan: EmbeddingPlan, partition: IndexPartition, coeffs) -> LinftyReport:
    """``verify_linfty_isometry`` with the function built point by point."""
    coeffs = [as_fraction(a) for a in coeffs]
    pairs = plan.pair_count
    n_points = 2 * pairs + 1
    h = LipFunction(values=tuple(lin_comb_eval_reference(plan, partition, coeffs, p)
                                 for p in range(n_points)))
    lip = lip_norm(h, prefix_space(plan, n_points))
    lower = ZERO
    for a, block in zip(coeffs, partition.blocks):
        for m in block:
            if m <= pairs and abs(a) * plan.ratios[m - 1] > lower:
                lower = abs(a) * plan.ratios[m - 1]
    upper = max((abs(a) for a in coeffs), default=ZERO)
    return LinftyReport(lip=lip, lower=lower, upper=upper)


def verify_projection_reference(plan: EmbeddingPlan) -> ProjectionReport:
    """``verify_projection`` on dense coefficient rows (f_1(p), ..., f_N(p)):
    every coefficient of r(e_n) against the unit vector, and the l1 distance
    of the rows of every pair of points against rho, on exact and inexact
    plans alike."""
    pairs = plan.pair_count
    n_points = 2 * pairs + 1
    rows = [[_pair_value(plan, n, p) for n in range(1, pairs + 1)] for p in range(n_points)]
    basis_ok = True
    for n in range(1, pairs + 1):
        rho = plan.rho(2 * n, 2 * n + 1)
        for m in range(1, pairs + 1):
            value = (rows[2 * n - 1][m - 1] - rows[2 * n][m - 1]) / rho
            if value != (ONE if m == n else ZERO):
                basis_ok = False
    dist = plan.space().dist
    lip_ok = True
    for p in range(n_points):
        for q in range(p + 1, n_points):
            if sum((abs(a - b) for a, b in zip(rows[p], rows[q])), ZERO) > dist[p][q]:
                lip_ok = False
    return ProjectionReport(basis_reproduced=basis_ok, lipschitz_ok=lip_ok, n_pairs=pairs)


# ---------------------------------------------------------------------------
# Catalog distances by their defining formulas
# ---------------------------------------------------------------------------
# The catalog oracles return each distance as one Fraction(num, den).  These
# are the sums of Fractions they were derived from, as the catalog first
# wrote them: |value(i) - value(j)| on the lines, and the remark formulas.

LINE_VALUES = {
    "convline": lambda n: Fraction(0) if n == 1 else Fraction(1, n - 1),
    "intline": lambda n: Fraction(n),
    "geomline": lambda n: Fraction(2**n),
}

REMARK_FORMULAS = {
    1: lambda k, n: Fraction(k + n) - Fraction(1, k),
    2: lambda k, n: 2 - Fraction(1, k),
    3: lambda k, n: 2 - Fraction(1, k) + Fraction(1, n),
    4: lambda k, n: 2 - Fraction(1, k) - Fraction(1, 2 * n),
    5: lambda k, n: 1 + Fraction(1, n),
    6: lambda k, n: 1 + Fraction(1, 2 * k) + Fraction(1, n),
}


def catalog_distance_reference(label: str, i: int, j: int) -> Fraction:
    """rho(x_i, x_j) for 1 <= i < j on ``convline``, ``intline``,
    ``geomline`` or ``remark:k``."""
    family, _, which = label.partition(":")
    if family == "remark":
        return REMARK_FORMULAS[int(which)](i, j)
    value = LINE_VALUES[family]
    return abs(value(i) - value(j))
