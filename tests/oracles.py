"""Independent brute-force oracles and random instance generators.

Everything here is deliberately dumb and separate from the library code
paths it checks: exhaustive scans, pairwise line intersections, vertex
enumeration of tiny LPs, shortest-path metric closures.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from lipfree import FiniteMetricSpace, FreeElement, validate_metric


def triangle_scan(dist) -> tuple | None:
    """First (i, j, k) with dist[i][k] > dist[i][j] + dist[j][k], else None."""
    n = len(dist)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k in (i, j):
                    continue
                if dist[i][k] > dist[i][j] + dist[j][k]:
                    return (i, j, k)
    return None


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


def assert_certificate(result, element: FreeElement, space: FiniteMetricSpace) -> None:
    """The transport certificate, recomputed from scratch.

    The pairing of the attaining function with the element equals the value,
    and the plan moves exactly the positive part (base balance included)
    onto the negative part at a total metric cost equal to the value.  The
    Lipschitz bound is left to ``lip_norm``.
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
    assert sum(m * space.dist[x][y] for x, y, m in result.plan) == result.value


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
