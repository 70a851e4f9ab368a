"""Exact norms over finite pointed metric spaces.

The free-space norm of a finitely supported element has one primary engine
and one independent oracle:

* ``free_norm`` ships the positive part onto the negative part at metric
  cost (Kantorovich-Rubinstein duality) with the exact min-cost transport of
  ``flow``, and returns the value with a certificate: the optimal plan,
  whose cost bounds the norm from above, and an attaining 1-Lipschitz
  function built from the transport duals, whose pairing bounds it from
  below.  The engine checks that both bounds meet the value before it
  returns, so the value does not rest on the solver being right.  A space
  that keeps its exact ``ints`` is transported on them, and the minimum
  that defines the function at each point is found on integers (the
  space's, or its row's scaled once), so the function costs one Fraction
  per point; it serves every space.
  ``free_norm_flow`` is its value alone.
* ``free_norm_lp`` solves the defining linear program over base-normalised
  Lipschitz functions with an exact rational simplex, and returns an
  attaining function.  It shares no code with the transport route and no
  product path calls it; the test suite requires the two to agree exactly.

The restriction of the LP to the support plus the base point is justified by
1-Lipschitz extension: any function feasible on those points extends to the
whole space with the same constant (the extension used below is the largest
such, an inf-convolution against the distance), so the optimum over the
subspace equals the optimum over the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    """Free-space norm as an exact optimal transport, with its certificate.

    The balancing coefficient a_0 = -sum a_i is appended at the base point,
    and the positive part ships onto the negative part at metric cost.  The
    attaining function is the c-transform of the sink duals beta_j,
    f(x) = min_j (beta_j + rho(x, y_j)) - f(0), which is 1-Lipschitz on the
    whole space.  Before returning, the plan's marginals, the plan's cost on
    ``space.dist`` and the pairing of f with the element are each checked to
    equal the value.

    A space with ``ints`` is transported on them, and the c-transform runs
    on them too: the duals come back as ints in the same units, each point's
    least b + row[y] is one int minimum, and f(x) is one Fraction: its
    difference from the base point's minimum over ``space.scale``.  Costs
    scaled by one factor leave every choice of the search unchanged, so the
    plan and the duals are those of the Fractions.  A space without them
    (its common denominator passes ``_SCAN_BITS``, or it was built by hand)
    is transported on its Fractions, and each point's distances to the sinks
    are scaled by ``integer_scale`` a row at a time: a scale per point, not
    one for the whole n x l block, since with a distinct prime denominator
    in every entry the block's lcm is the product of all n * l primes
    (20,177 bits on the 64-point matrix of ``bench/adversarial.py``, where
    the duals' lcm has 662).  The one loop of the c-transform serves both.

    An approximate space (float entries, accepted within the validation
    tolerance) may break a triangle by up to that tolerance, so direct
    transport can exceed the defining LP.  There copies of the rows of the
    support and the base are first closed under shortest paths within those
    points (Floyd-Warshall), which is all the LP's constraints allow, on the
    rows the transport reads and on the Fractions the plan's cost is checked
    on, so both run at the LP's value.  Points outside the support keep
    their raw rows.
    """
    element.check_supported(space)
    masses = dict(element.support)
    balance = -sum(masses.values(), Fraction(0))
    if balance != 0:
        masses[0] = balance
    sources = [(p, c) for p, c in sorted(masses.items()) if c > 0]
    sinks = [(p, -c) for p, c in sorted(masses.items()) if c < 0]
    if not sources:
        return FreeNormResult(Fraction(0), LipFunction((Fraction(0),) * space.n), ())
    dist, ints = space.dist, space.ints
    if space.approximate:
        dist = _shortest_paths(dist, {0, *masses})
        if ints is not None:
            ints = _shortest_paths(ints, {0, *masses})
    rows, scale = (dist, 1) if ints is None else (ints, space.scale)
    transport = min_cost_transport(
        [c for _, c in sources],
        [c for _, c in sinks],
        lambda i, j: rows[sources[i][0]][sinks[j][0]],
    )
    value = transport.cost / scale
    ends = [y for y, _ in sinks]
    beta, beta_scale = integer_scale([-p for p in transport.potentials[len(sources):]])
    least = []  # (v, s) per point x: min_j (beta_j + rho(x, y_j)) = v / (s * beta_scale * scale)
    for row in rows:
        at_sinks = [row[y] for y in ends]
        # the space's ints share one scale; Fractions are scaled a row at a time
        row_ints, s = (at_sinks, 1) if ints is not None else integer_scale(at_sinks)
        least.append((min([b * s + r * beta_scale for b, r in zip(beta, row_ints)]), s))
    base, s0 = least[0]  # so that f(0) = 0
    function = LipFunction(tuple(Fraction(v * s0 - base * s, s * s0 * beta_scale * scale) for v, s in least))
    plan = tuple((sources[i][0], sinks[j][0], m) for i, j, m in transport.plan)

    shipped = dict.fromkeys(masses, Fraction(0))
    for x, y, m in plan:
        shipped[x] += m
        shipped[y] -= m
    if shipped != masses:
        raise AssertionError("transport plan marginals differ from the element")
    if sum((m * dist[x][y] for x, y, m in plan), Fraction(0)) != value:
        raise AssertionError("transport plan cost differs from the norm")
    if pairing(function, element) != value:
        raise AssertionError("pairing of the dual function differs from the norm")
    return FreeNormResult(value, function, plan)


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
    normalises their evaluation elements by the distance to the base.  Then
    ||u + v|| = 2 iff |rho(x, 0) - rho(y, 0)| <= rho(x, y), which every
    metric meets; an approximate space that breaks it by its tolerance
    raises ExactnessRequired.
    """
    if space.n < 3:
        raise TooFewPoints("a witness needs at least 3 points")
    x, y = 1, 2
    if abs(space.dist[x][0] - space.dist[y][0]) > space.dist[x][y]:
        raise ExactnessRequired(f"the triangle (0, {x}, {y}) fails, so ||u + v|| < 2")
    u = FreeElement.from_pairs([(x, 1 / space.dist[x][0])])
    v = FreeElement.from_pairs([(y, 1 / space.dist[y][0])])
    norm_u = free_norm(u, space).value
    norm_v = free_norm(v, space).value
    norm_sum = free_norm(u.plus(v), space).value
    if not (norm_u == 1 and norm_v == 1 and norm_sum == 2):
        raise AssertionError("witness post-conditions failed; norm engine is broken")
    return u, v
