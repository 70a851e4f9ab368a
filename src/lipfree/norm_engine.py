"""Exact norms over finite pointed metric spaces.

The free-space norm of a finitely supported element has one primary engine,
with two routes, and one independent oracle:

* ``free_norm`` returns the value with a certificate: an optimal transport
  plan, whose cost bounds the norm from above, and an attaining 1-Lipschitz
  function, whose pairing bounds it from below.  It is the one entry that
  certifies: it balances the element at the base, picks the route, closes
  an approximate space's rows under shortest paths, and checks that both
  bounds meet the value before it returns, on ints scaled once per group
  and cross-multiplied with the value.  The two route kernels,
  ``_tree_norm`` and ``_transport_norm``, only compute (value, plan,
  function) from the balanced masses.  The space's certificate picks the
  route:

  - a line or an ultrametric that keeps its certificate's structure
    (``FiniteMetricSpace.structure``: the line's coordinates, or Prim's
    order and keys) takes the tree route.  On a subset of an R-tree the norm
    is the sum over the edges of length x |mass below the edge|, and one
    pass up and one down the tree give the value, a greedy plan and the
    function, in O(n log n) on integers.  The function is 1-Lipschitz
    because the tree carries the metric, which the certificate showed when
    the space was built; the structure is read against the space's ints in
    O(n) first.
  - every other space is transported: the positive part ships onto the
    negative part at metric cost (Kantorovich-Rubinstein duality) with the
    exact min-cost transport of ``flow``, and the function is the
    c-transform of the transport duals, 1-Lipschitz by construction, so the
    value does not rest on the solver being right.  A space that keeps its
    exact ``ints`` is transported on them, and the minimum that defines the
    function at each point is found on integers (the space's, or its row's
    scaled once).

  Either way the function costs one Fraction per point.
  ``free_norm_flow`` is its value alone.
* ``free_norm_lp`` solves the defining linear program over base-normalised
  Lipschitz functions with an exact rational simplex, and returns an
  attaining function.  It shares no code with either route and no product
  path calls it; the test suite requires them to agree exactly.

The restriction of the LP to the support plus the base point is justified by
1-Lipschitz extension: any function feasible on those points extends to the
whole space with the same constant (the extension used below is the largest
such, an inf-convolution against the distance), so the optimum over the
subspace equals the optimum over the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import DegeneratePair, ExactnessRequired, InvalidTriple, PointOutsideSpace, TooFewPoints
from .flow import min_cost_transport
from .geometry import canonical_ccw, dedupe, intersect_halfplanes
from .metric_core import FiniteMetricSpace, FreeElement, LipFunction, as_fraction, integer_scale
from .simplex import solve_lp_max


def lip_norm(f: LipFunction, space: FiniteMetricSpace) -> Fraction:
    """Minimal Lipschitz constant of f on the space (0 for a single point)."""
    if len(f.values) != space.n:
        raise ValueError("function and space sizes differ")
    best = Fraction(0)
    vals = f.values
    dist = space.dist
    for i in range(space.n):
        vi = vals[i]
        row = dist[i]
        for j in range(i + 1, space.n):
            ratio = abs(vi - vals[j]) / row[j]
            if ratio > best:
                best = ratio
    return best


def pairing(f: LipFunction, element: FreeElement) -> Fraction:
    """Evaluation of the function against the element: sum a_i * f(x_i)."""
    return sum((c * f.values[p] for p, c in element.support), Fraction(0))


@dataclass(frozen=True)
class FreeNormResult:
    value: Fraction
    function: LipFunction  # attaining function, Lipschitz constant <= 1
    # (source point, sink point, mass) of an optimal transport plan, priced at the
    # shortest-path distances within support + base on an approximate space; None from the LP
    plan: Optional[tuple[tuple[int, int, Fraction], ...]] = None


def _mcshane_extension(space: FiniteMetricSpace, anchors: dict[int, Fraction]) -> LipFunction:
    # largest 1-Lipschitz extension of the anchor values, which feasible LP anchors keep
    values = []
    for p in range(space.n):
        values.append(anchors[p] if p in anchors else min(v + space.dist[p][q] for q, v in anchors.items()))
    return LipFunction(values=tuple(values))


def free_norm_lp(element: FreeElement, space: FiniteMetricSpace) -> FreeNormResult:
    """Free-space norm as the exact optimum of the defining linear program.

    Maximises sum a_i f(x_i) over functions with f(base) = 0 and
    |f(i) - f(j)| <= rho(i, j); constraints are posed on the support plus the
    base point only (see module docstring).  Returns the optimum and one
    attaining function of Lipschitz constant at most 1 on the whole space.
    """
    element.check_supported(space)
    if element.is_zero():
        return FreeNormResult(
            value=Fraction(0),
            function=LipFunction(values=(Fraction(0),) * space.n),
        )
    points = [p for p, _ in element.support]
    coefs = {p: c for p, c in element.support}
    m = len(points)
    col = {p: i for i, p in enumerate(points)}

    # variables f_p split as f = plus - minus, columns 2t and 2t + 1
    rows: list[list[int]] = []
    rhs: list[Fraction] = []

    def constraint(entries, bound):
        row = [0] * (2 * m)
        for p, sign in entries:
            row[2 * col[p]] += sign
            row[2 * col[p] + 1] -= sign
        rows.append(row)
        rhs.append(bound)

    for i in points:
        for j in points:
            if i != j:
                constraint([(i, 1), (j, -1)], space.dist[i][j])
    for i in points:
        constraint([(i, 1)], space.dist[i][0])
        constraint([(i, -1)], space.dist[i][0])

    objective = [Fraction(0)] * (2 * m)
    for p in points:
        objective[2 * col[p]] = coefs[p]
        objective[2 * col[p] + 1] = -coefs[p]

    solution = solve_lp_max(objective, rows, rhs)
    anchors = {0: Fraction(0)}
    for p in points:
        anchors[p] = solution.x[2 * col[p]] - solution.x[2 * col[p] + 1]
    return FreeNormResult(value=solution.value, function=_mcshane_extension(space, anchors))


def _shortest_paths(rows, points) -> list:
    """``rows`` with copies of the rows of ``points`` closed under shortest paths
    within ``points`` (Floyd-Warshall); the other rows as they are."""
    closed = {p: list(rows[p]) for p in points}
    for k, row_k in closed.items():
        for row in closed.values():
            for j in closed:
                if row[k] + row_k[j] < row[j]:
                    row[j] = row[k] + row_k[j]
    return [closed.get(p, row) for p, row in enumerate(rows)]


def free_norm(element: FreeElement, space: FiniteMetricSpace) -> FreeNormResult:
    """Free-space norm with its certificate: an optimal plan and an attaining
    1-Lipschitz function.

    This is the one entry that certifies the norm; the two kernels only
    compute.  The support is checked against the space, the balancing
    coefficient a_0 = -sum a_i (a sum of ints) is appended at the base
    point, and the zero element returns at once.  Then the positive part
    ships onto the negative part at metric cost: a space that keeps the
    structure of its line or ultrametric certificate takes the tree route
    (``_tree_norm``), in O(n log n); every other space takes the exact
    transport (``_transport_norm``).

    An approximate space (float entries, accepted within the validation
    tolerance) may break a triangle by up to that tolerance, so direct
    transport can exceed the defining LP.  Before it is transported, copies
    of the rows of the support and the base are closed under shortest paths
    within those points (Floyd-Warshall), which is all the LP's constraints
    allow, on the rows the transport reads and on the Fractions the plan's
    cost is checked on, so both run at the LP's value.  Points outside the
    support keep their raw rows.  A tree needs no closure: its certificate
    held on exact ints.

    Before returning, it checks that the plan's marginals are the element's,
    and that the plan's cost on those distances and the pairing of the
    function with the element each equal the value.  The checks are exact
    on ints: the masses, the plan's masses, the distances on its arcs and
    the function on the support are each scaled once by ``integer_scale``,
    and each sum meets the value by cross-multiplying with the scales.
    """
    element.check_supported(space)
    masses = dict(element.support)
    coefs, scale = integer_scale(list(masses.values()))  # the masses over scale, with the balance
    balance = -sum(coefs)
    if balance:
        masses[0] = Fraction(balance, scale)
        coefs.append(balance)
    if not masses:
        return FreeNormResult(Fraction(0), LipFunction((Fraction(0),) * space.n), ())
    dist = space.dist
    if space.structure is not None:
        value, plan, function = _tree_norm(masses, space)
    else:
        ints = space.ints
        if space.approximate:
            dist = _shortest_paths(dist, {0, *masses})
            if ints is not None:
                ints = _shortest_paths(ints, {0, *masses})
        value, plan, function = _transport_norm(masses, dist, ints, space.scale)
    num, den = value.numerator, value.denominator
    flows, flow_scale = integer_scale([m for _, _, m in plan])
    shipped = dict.fromkeys(masses, 0)
    for (x, y, _), m in zip(plan, flows):
        shipped[x] = shipped.get(x, 0) + m
        shipped[y] = shipped.get(y, 0) - m
    # a point of the plan outside the masses adds a key
    if len(shipped) != len(masses) or any(s * scale != c * flow_scale for s, c in zip(shipped.values(), coefs)):
        raise AssertionError("plan marginals differ from the element")
    arcs, arc_scale = integer_scale([dist[x][y] for x, y, _ in plan])
    if sum(m * d for m, d in zip(flows, arcs)) * den != num * flow_scale * arc_scale:
        raise AssertionError("plan cost differs from the norm")
    values, value_scale = integer_scale([function.values[p] for p in masses])  # f(0) = 0 pairs to 0
    if sum(c * v for c, v in zip(coefs, values)) * den != num * scale * value_scale:
        raise AssertionError("pairing of the attaining function differs from the norm")
    return FreeNormResult(value, function, plan)


def _tree_norm(masses: dict, space: FiniteMetricSpace) -> tuple:
    """The norm of the balanced ``masses`` on the tree that carries a line or
    an ultrametric: (value, plan, function), which ``free_norm`` checks.

    On a subset of an R-tree the norm is the sum over the edges of length x
    |mass below the edge| (Godard, *Proc. AMS* 138, 2010; Evans and Matsen,
    *JRSS B* 74, 2012).  The tree comes from ``space.structure`` in O(n):
    for a line, the path of its points in coordinate order, each edge a gap;
    for an ultrametric, the single-linkage tree of Prim's order and keys
    (``_dendrogram``), each edge from a cluster of height h to its parent of
    height H of length (H - h) / 2.  Lengths are ints over ``space.scale``
    (twice it for an ultrametric) and the masses ints over their lcm.

    The structure is first read against ``space.ints`` in O(n): a line's
    coordinates must be the row of its nearest end, and then the tree
    distance |c_i - c_j| is at most rho(i, j) by the triangle inequality, so
    f is 1-Lipschitz on the space; an ultrametric's keys must be the
    distances between consecutive points of Prim's order.

    One bottom-up pass adds up the value and each node's mass below, and
    matches the opposite-signed masses left in different subtrees where
    they meet, greedily: what crosses an edge is then its mass below, so
    the plan costs the value.  One top-down pass sets f(v) = f(parent) +
    sign(mass below v) x length(v), which is 1-Lipschitz on the tree and
    pairs to the value; f(0) = 0 costs one Fraction per point.
    """
    n, ints = space.n, space.ints
    if space.certificate == "line":
        c = space.structure
        up = sorted(range(n), key=c.__getitem__, reverse=True)  # the root, the nearest end, last
        if ints[up[-1]] != c:
            raise AssertionError("the line's coordinates are not its end's distances")
        parent, length = [0] * n, [0] * n
        for v, u in zip(up, up[1:]):
            parent[v], length[v] = u, c[v] - c[u]
        half = 1
    else:
        order, keys = space.structure
        if any(ints[s][t] != k for s, t, k in zip(order, order[1:], keys)):
            raise AssertionError("Prim's keys are not the distances along Prim's order")
        parent, height, up = _dendrogram(order, keys)
        length = [height[u] - h for u, h in zip(parent, height)]
        half = 2
    mass_ints, mass_scale = integer_scale(list(masses.values()))
    below = [0] * len(parent)
    left = [[] for _ in parent]  # per node, the (point, mass) not yet matched, all of one sign
    for p, m in zip(masses, mass_ints):
        below[p], left[p] = m, [(p, m)]
    total, plan = 0, []
    for v in up[:-1]:
        m, u = below[v], parent[v]
        total += length[v] * abs(m)
        below[u] += m
        left[u] = _matched(left[u], left[v], plan)
    f = [0] * len(parent)
    for v in reversed(up[:-1]):
        m = below[v]
        f[v] = f[parent[v]] + (length[v] if m > 0 else -length[v] if m < 0 else 0)
    unit = half * space.scale
    function = LipFunction(tuple(Fraction(f_p - f[0], unit) for f_p in f[:n]))
    plan.sort()
    return (
        Fraction(total, unit * mass_scale),
        tuple((x, y, Fraction(m, mass_scale)) for x, y, m in plan),
        function,
    )


def _dendrogram(order, keys) -> tuple[list, list, list]:
    """The single-linkage tree of Prim's ``order`` and ``keys``: each node's
    parent and height, and the nodes in an order that puts every child
    before its parent (the root last).

    Points keep their labels as leaves, of height 0, and the clusters follow
    them, one per distinct height of a merge.  Every ball is an interval of
    Prim's order and k_t = rho(p_{t-1}, p_t), so the tree is the max-rooted
    Cartesian tree of the keys with equal keys merged.  One stack holds its
    right spine, heights rising towards the bottom; a node is popped once
    its last child has come, which gives the order.
    """
    parent, height = [0] * len(order), [0] * len(order)
    up, spine = [], [order[0]]
    for t, k in zip(order[1:], keys):
        child = spine.pop()
        up.append(child)
        while spine and height[spine[-1]] < k:
            node = spine.pop()
            parent[child] = node
            up.append(node)
            child = node
        if spine and height[spine[-1]] == k:
            node = spine[-1]
        else:
            node = len(height)
            parent.append(0)
            height.append(k)
            spine.append(node)
        parent[child] = node
        spine.append(t)
    while spine:
        child = spine.pop()
        up.append(child)
        if spine:
            parent[child] = spine[-1]
    return parent, height, up


def _matched(left: list, right: list, plan: list) -> list:
    """Two subtrees' unmatched (point, mass) lists, each of one sign, merged
    where they meet: opposite signs are matched greedily into ``plan`` as
    (source, sink, mass), and the list returned holds what is left, all of
    one sign.  The longer list is extended in place, so each entry is copied
    O(log n) times."""
    if len(left) < len(right):
        left, right = right, left
    if not right:
        return left
    if (left[0][1] > 0) == (right[0][1] > 0):
        left.extend(right)
        return left
    sources, sinks = (left, right) if left[0][1] > 0 else (right, left)
    while sources and sinks:
        (x, a), (y, b) = sources[-1], sinks[-1]
        m = min(a, -b)
        plan.append((x, y, m))
        if a == m:
            sources.pop()
        else:
            sources[-1] = (x, a - m)
        if b == -m:
            sinks.pop()
        else:
            sinks[-1] = (y, b + m)
    return sources or sinks


def _transport_norm(masses: dict, dist, ints, scale: Optional[int]) -> tuple:
    """The norm of the balanced ``masses`` as an exact optimal transport:
    (value, plan, function), which ``free_norm`` checks.

    ``dist`` are the distances, and ``ints`` the same times ``scale``
    (exact integers) or None.  The attaining function is the c-transform of the
    sink duals beta_j, f(x) = min_j (beta_j + rho(x, y_j)) - f(0), which is
    1-Lipschitz on the whole space.

    With ``ints`` the transport and the c-transform run on them: the duals
    come back as ints in the same units, each point's least b + row[y] is
    one int minimum, and f(x) is one Fraction: its difference from the base
    point's minimum over ``scale``.  Costs scaled by one factor leave every
    choice of the search unchanged, so the plan and the duals are those of
    the Fractions.  Without them (the space's common denominator passes
    ``_SCAN_BITS``, or it was built by hand) the transport runs on the
    Fractions, and each point's distances to the sinks are scaled by
    ``integer_scale`` a row at a time: a scale per point, not one for the
    whole n x l block, since with a distinct prime denominator in every entry
    the block's lcm is the product of all n * l primes (20,177 bits on the
    64-point matrix of ``bench/adversarial.py``, where the duals' lcm has
    662).  The duals come back as ints over the transport's cost scale, and
    one gcd brings them to that lcm.  The one loop of the c-transform serves
    both.
    """
    sources = [(p, c) for p, c in sorted(masses.items()) if c > 0]
    sinks = [(p, -c) for p, c in sorted(masses.items()) if c < 0]
    rows, scale = (dist, 1) if ints is None else (ints, scale)
    transport = min_cost_transport(
        [c for _, c in sources],
        [c for _, c in sinks],
        lambda i, j: rows[sources[i][0]][sinks[j][0]],
    )
    value = transport.cost / scale
    ends = [y for y, _ in sinks]
    beta = [-p for p in transport.potentials[len(sources):]]
    g = gcd(transport.cost_scale, *beta)  # beta / cost_scale in lowest terms shares no factor g
    beta, beta_scale = [b // g for b in beta], transport.cost_scale // g
    least = []  # (v, s) per point x: min_j (beta_j + rho(x, y_j)) = v / (s * beta_scale * scale)
    for row in rows:
        at_sinks = [row[y] for y in ends]
        # the space's ints share one scale; Fractions are scaled a row at a time
        row_ints, s = (at_sinks, 1) if ints is not None else integer_scale(at_sinks)
        least.append((min([b * s + r * beta_scale for b, r in zip(beta, row_ints)]), s))
    base, s0 = least[0]  # so that f(0) = 0
    function = LipFunction(tuple(Fraction(v * s0 - base * s, s * s0 * beta_scale * scale) for v, s in least))
    plan = tuple((sources[i][0], sinks[j][0], m) for i, j, m in transport.plan)
    return value, plan, function


def free_norm_flow(element: FreeElement, space: FiniteMetricSpace) -> Fraction:
    """The value of ``free_norm``: the exact balanced transportation optimum."""
    return free_norm(element, space).value


def two_point_norm(a, b, dx0, dy0, dxy) -> Fraction:
    """Closed form for the norm of a*delta_x + b*delta_y on a 3-point space.

    Same sign: dx0|a| + dy0|b|.  Opposite signs: the smaller-magnitude
    coefficient is priced along the x-y edge instead of through the base.
    """
    a, b = as_fraction(a), as_fraction(b)
    dx0, dy0, dxy = as_fraction(dx0), as_fraction(dy0), as_fraction(dxy)
    if dx0 <= 0 or dy0 <= 0 or dxy <= 0:
        raise InvalidTriple("the three distances must be positive")
    if dxy > dx0 + dy0 or dx0 > dxy + dy0 or dy0 > dxy + dx0:
        raise InvalidTriple("triangle inequality fails among the three distances")
    if a * b >= 0:
        return dx0 * abs(a) + dy0 * abs(b)
    if abs(b) <= abs(a):
        return dx0 * abs(a) + (dxy - dx0) * abs(b)
    return (dxy - dy0) * abs(a) + dy0 * abs(b)


@dataclass(frozen=True)
class BallSection:
    """Two-point cross-section data of the unit ball.

    ``vertices`` bound the feasible value region
    A = {(u, v): |u| <= rho(x,0), |v| <= rho(y,0), |u - v| <= rho(x,y)},
    counterclockwise; the norm of a*delta_x + b*delta_y is the maximum of
    |a*u + b*v| over them.  ``ball_vertices`` bound the unit-ball section
    {(a, b): norm <= 1}, obtained as the polar polygon of A.
    """

    x: int
    y: int
    dx0: Fraction
    dy0: Fraction
    dxy: Fraction
    vertices: tuple[tuple[Fraction, Fraction], ...]
    ball_vertices: tuple[tuple[Fraction, Fraction], ...]

    def support_norm(self, a, b) -> Fraction:
        a, b = as_fraction(a), as_fraction(b)
        return max(abs(a * u + b * v) for u, v in self.vertices)


def ball_section(space: FiniteMetricSpace, x: int, y: int) -> BallSection:
    """Exact vertex description of the two-point section through x and y.

    The validated distances are trusted: where an approximate space breaks
    their triangle, the section is still that of the LP on {0, x, y}.
    """
    if x == y:
        raise DegeneratePair(f"points must differ, got x = y = {x}")
    if x == 0 or y == 0:
        raise DegeneratePair("section points must differ from the base point")
    for p in (x, y):
        if not 0 <= p < space.n:
            raise PointOutsideSpace(p, space.n)
    dx0, dy0, dxy = space.dist[x][0], space.dist[y][0], space.dist[x][y]
    box = [(dx0, -dy0), (dx0, dy0), (-dx0, dy0), (-dx0, -dy0)]
    one = Fraction(1)
    vertices = intersect_halfplanes(box, [(one, -one, dxy), (-one, one, dxy)])
    # A is centrally symmetric: its polar, the ball, has one vertex per edge of A
    polar = []
    for (u1, v1), (u2, v2) in zip(vertices, vertices[1:] + vertices[:1]):
        det = u1 * v2 - u2 * v1
        polar.append(((v2 - v1) / det, (u1 - u2) / det))
    ball = canonical_ccw(dedupe(polar))
    section = BallSection(x=x, y=y, dx0=dx0, dy0=dy0, dxy=dxy, vertices=vertices, ball_vertices=ball)
    if any(section.support_norm(a, b) != 1 for a, b in ball):
        raise AssertionError("a ball vertex is off the unit sphere; the polar is broken")
    return section


def nonrotund_witness(space: FiniteMetricSpace) -> tuple[FreeElement, FreeElement]:
    """Two distinct unit vectors u, v with ||u + v|| = 2, all exact.

    Takes the lexicographically smallest pair of non-base points x, y and
    normalises their evaluation elements by the distance to the base:
    u = delta_x / rho(x, 0), v = delta_y / rho(y, 0), so ||u||, ||v|| <= 1
    and ||u + v|| <= 2.  The function f = rho(., 0) pairs to 1 with u and
    with v, so to 2 with u + v, and it is 1-Lipschitz on {0, x, y} exactly
    when |rho(x, 0) - rho(y, 0)| <= rho(x, y), which every metric meets;
    then it extends to the whole space and attains all three norms.  An
    approximate space that breaks it by its tolerance raises
    ExactnessRequired.
    """
    if space.n < 3:
        raise TooFewPoints("a witness needs at least 3 points")
    x, y = 1, 2
    if abs(space.dist[x][0] - space.dist[y][0]) > space.dist[x][y]:
        raise ExactnessRequired(f"the triangle (0, {x}, {y}) fails, so ||u + v|| < 2")
    u = FreeElement.from_pairs([(x, 1 / space.dist[x][0])])
    v = FreeElement.from_pairs([(y, 1 / space.dist[y][0])])
    return u, v
