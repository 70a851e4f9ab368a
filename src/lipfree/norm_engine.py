"""Exact norms over finite pointed metric spaces.

The free-space norm of a finitely supported element has one primary engine
and one independent oracle:

* ``free_norm`` ships the positive part onto the negative part at metric
  cost (Kantorovich-Rubinstein duality) with the exact min-cost transport of
  ``flow``, and returns the value with a certificate: the optimal plan,
  whose cost bounds the norm from above, and an attaining 1-Lipschitz
  function built from the transport duals, whose pairing bounds it from
  below.  The engine checks that both bounds meet the value before it
  returns, so the value does not rest on the solver being right.
  ``free_norm_flow`` is its value alone.
* ``free_norm_lp`` solves the defining linear program over base-normalised
  Lipschitz functions with an exact rational simplex, and returns an
  attaining function.  It shares no code with the transport route; the test
  suite requires the two to agree exactly.

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

from .errors import DegeneratePair, InvalidTriple, PointOutsideSpace, TooFewPoints
from .flow import min_cost_transport
from .geometry import canonical_ccw, intersect_halfplanes
from .metric_core import FiniteMetricSpace, FreeElement, LipFunction, as_fraction
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
    # (source point, sink point, mass) of an optimal transport plan; None from the LP
    plan: Optional[tuple[tuple[int, int, Fraction], ...]] = None


def _mcshane_extension(space: FiniteMetricSpace, anchors: dict[int, Fraction]) -> LipFunction:
    # largest 1-Lipschitz extension of the anchor values
    values = []
    for p in range(space.n):
        values.append(min(v + space.dist[p][q] for q, v in anchors.items()))
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


def free_norm(element: FreeElement, space: FiniteMetricSpace) -> FreeNormResult:
    """Free-space norm as an exact optimal transport, with its certificate.

    The balancing coefficient a_0 = -sum a_i is appended at the base point,
    and the positive part ships onto the negative part at metric cost.  The
    attaining function is the c-transform of the sink duals beta_j,
    f(x) = min_j (beta_j + rho(x, y_j)) - f(0), which is 1-Lipschitz on the
    whole space.  Before returning, the plan's marginals, the plan's cost and
    the pairing of f with the element are each checked to equal the value.

    An approximate space (float entries, accepted within the validation
    tolerance) may break a triangle by up to that tolerance, so direct
    transport can exceed the defining LP and its c-transform need not be
    1-Lipschitz.  There the result is that of ``free_norm_lp``, with no plan.
    """
    if space.approximate:
        return free_norm_lp(element, space)
    element.check_supported(space)
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
    value = transport.cost
    k = len(sources)
    beta = [-p for p in transport.potentials[k:]]
    values = [min(b + dist[x][y] for b, (y, _) in zip(beta, sinks)) for x in range(space.n)]
    function = LipFunction(tuple(v - values[0] for v in values))
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


def _check_triple(dx0: Fraction, dy0: Fraction, dxy: Fraction) -> None:
    if dx0 <= 0 or dy0 <= 0 or dxy <= 0:
        raise InvalidTriple("the three distances must be positive")
    if dxy > dx0 + dy0 or dx0 > dxy + dy0 or dy0 > dxy + dx0:
        raise InvalidTriple("triangle inequality fails among the three distances")


def two_point_norm(a, b, dx0, dy0, dxy) -> Fraction:
    """Closed form for the norm of a*delta_x + b*delta_y on a 3-point space.

    Same sign: dx0|a| + dy0|b|.  Opposite signs: the smaller-magnitude
    coefficient is priced along the x-y edge instead of through the base.
    """
    a, b = as_fraction(a), as_fraction(b)
    dx0, dy0, dxy = as_fraction(dx0), as_fraction(dy0), as_fraction(dxy)
    _check_triple(dx0, dy0, dxy)
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


def _section_from_distances(x, y, dx0, dy0, dxy) -> BallSection:
    _check_triple(dx0, dy0, dxy)
    box = [(dx0, -dy0), (dx0, dy0), (-dx0, dy0), (-dx0, -dy0)]
    one = Fraction(1)
    vertices = intersect_halfplanes(
        box, [(one, -one, dxy), (-one, one, dxy)]
    )
    # A is centrally symmetric, so the ball section is its polar polygon
    bound = 1 / min(dx0, dy0)
    seed = [(bound, -bound), (bound, bound), (-bound, bound), (-bound, -bound)]
    ball = intersect_halfplanes(seed, [(u, v, one) for u, v in vertices])
    return BallSection(
        x=x, y=y, dx0=dx0, dy0=dy0, dxy=dxy,
        vertices=canonical_ccw(list(vertices)),
        ball_vertices=ball,
    )


def ball_section(space: FiniteMetricSpace, x: int, y: int) -> BallSection:
    """Exact vertex description of the two-point section through x and y."""
    if x == y:
        raise DegeneratePair(f"points must differ, got x = y = {x}")
    if x == 0 or y == 0:
        raise DegeneratePair("section points must differ from the base point")
    for p in (x, y):
        if not 0 <= p < space.n:
            raise PointOutsideSpace(p, space.n)
    return _section_from_distances(
        x, y, space.dist[x][0], space.dist[y][0], space.dist[x][y]
    )


def nonrotund_witness(space: FiniteMetricSpace) -> tuple[FreeElement, FreeElement]:
    """Two distinct unit vectors u, v with ||u + v|| = 2, all exact.

    Takes the lexicographically smallest pair of non-base points x, y and
    normalises their evaluation elements by the distance to the base.
    """
    if space.n < 3:
        raise TooFewPoints("a witness needs at least 3 points")
    x, y = 1, 2
    u = FreeElement.from_pairs([(x, 1 / space.dist[x][0])])
    v = FreeElement.from_pairs([(y, 1 / space.dist[y][0])])
    norm_u = free_norm(u, space).value
    norm_v = free_norm(v, space).value
    norm_sum = free_norm(u.plus(v), space).value
    if not (norm_u == 1 and norm_v == 1 and norm_sum == 2):
        raise AssertionError("witness post-conditions failed; norm engine is broken")
    return u, v
