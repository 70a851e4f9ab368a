import dataclasses
import importlib.util
import json
import random
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipfree import (
    DegeneratePair,
    ExactnessRequired,
    FiniteMetricSpace,
    FreeElement,
    InvalidTriple,
    LipFunction,
    TooFewPoints,
    ball_section,
    delta,
    free_element_from_json,
    free_norm,
    free_norm_flow,
    free_norm_lp,
    lip_norm,
    load_space,
    make_family,
    nonrotund_witness,
    pairing,
    parse_space,
    truncate,
    two_point_norm,
    validate_metric,
)
from lipfree import norm_engine
from lipfree.cli import main
from lipfree.flow import min_cost_transport
from lipfree.metric_core import _SCAN_BITS, FLOAT_TOLERANCE
from oracles import (
    assert_certificate,
    free_norm_reference,
    free_norm_vertex_enum,
    halfplane_vertices_bruteforce,
    one_point_extension,
    rand_fraction,
    random_element,
    random_metric_space,
    shortest_path_costs,
)
from test_constructions import SUITE_PLANS, prime_pairs_plans

GRID = [F(v, 2) for v in range(-4, 5)]


@st.composite
def metric_spaces(draw, max_points=6):
    n = draw(st.integers(min_value=2, max_value=max_points))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_metric_space(random.Random(seed), n)


@st.composite
def spaces_with_elements(draw, max_points=6):
    space = draw(metric_spaces(max_points))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    mu = random_element(rng, space.n, rng.randint(1, space.n - 1))
    return space, mu


class TestLipNorm:
    def test_zero_function(self):
        space = truncate(make_family("uniform", 1), 4)
        assert lip_norm(LipFunction.from_values([0, 0, 0, 0]), space) == 0

    def test_uniform_three_point_example(self):
        space = truncate(make_family("uniform", 1), 3)
        assert lip_norm(LipFunction.from_values([0, 1, -1]), space) == 2

    @given(metric_spaces())
    @settings(max_examples=30, deadline=None)
    def test_distance_to_base_has_norm_one(self, space):
        f = LipFunction.from_values([space.dist[p][0] for p in range(space.n)])
        assert lip_norm(f, space) == 1


class TestFreeNormLP:
    def test_elementary_difference_is_the_distance(self):
        rng = random.Random(7)
        for _ in range(25):
            space = random_metric_space(rng, rng.randint(3, 6))
            x = rng.randint(1, space.n - 1)
            y = rng.choice([p for p in range(1, space.n) if p != x])
            mu = delta(x).plus(delta(y).scaled(-1))
            assert free_norm_lp(mu, space).value == space.dist[x][y]

    def test_single_delta_is_distance_to_base(self):
        rng = random.Random(8)
        for _ in range(25):
            space = random_metric_space(rng, rng.randint(2, 6))
            x = rng.randint(1, space.n - 1)
            assert free_norm_lp(delta(x), space).value == space.dist[x][0]

    def test_uniform_alternating_sum(self):
        space = truncate(make_family("uniform", 1), 5)
        mu = FreeElement.from_pairs([(1, 1), (2, -1), (3, 1), (4, -1)])
        assert free_norm_lp(mu, space).value == 2

    def test_three_point_flow_cross_check(self):
        space = validate_metric([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        mu = FreeElement.from_pairs([(1, 1), (2, -1)])
        assert free_norm_lp(mu, space).value == 4
        assert free_norm_flow(mu, space) == 4

    def test_zero_element(self):
        space = truncate(make_family("uniform", 1), 3)
        result = free_norm_lp(FreeElement.from_pairs([]), space)
        assert result.value == 0
        assert lip_norm(result.function, space) == 0

    @given(spaces_with_elements(max_points=5))
    @settings(max_examples=40, deadline=None)
    def test_attaining_function_is_feasible_and_tight(self, case):
        space, mu = case
        result = free_norm_lp(mu, space)
        assert lip_norm(result.function, space) <= 1
        assert pairing(result.function, mu) == result.value

    def test_anchors_keep_their_values_in_the_extension(self):
        # the criterion-1 instances: the function equals the min over every
        # anchor at every point, anchors included
        rng = random.Random(20260809)
        for i in range(1000):
            n = rng.randint(2, 8)
            space = random_metric_space(rng, n)
            smax = n - 1 if i % 10 == 0 else min(n - 1, 4)
            mu = random_element(rng, n, rng.randint(1, smax))
            f = free_norm_lp(mu, space).function
            anchors = {0: F(0), **{p: f(p) for p, _ in mu.support}}
            full_min = tuple(min(v + space.dist[p][q] for q, v in anchors.items()) for p in range(n))
            assert f.values == full_min

    def test_matches_vertex_enumeration_oracle(self):
        rng = random.Random(99)
        for _ in range(40):
            space = random_metric_space(rng, rng.randint(2, 5))
            mu = random_element(rng, space.n, rng.randint(1, min(3, space.n - 1)))
            assert free_norm_lp(mu, space).value == free_norm_vertex_enum(mu, space)

    @given(spaces_with_elements(max_points=5))
    @settings(max_examples=30, deadline=None)
    def test_norm_axioms(self, case):
        space, mu = case
        norm = lambda e: free_norm_flow(e, space)
        assert norm(mu.scaled(F(-7, 3))) == F(7, 3) * norm(mu)
        rng = random.Random(hash(mu.support) % 10**6)
        nu = random_element(rng, space.n, rng.randint(1, space.n - 1))
        assert norm(mu.plus(nu)) <= norm(mu) + norm(nu)
        assert (norm(mu) == 0) == mu.is_zero()

    @given(spaces_with_elements(max_points=5))
    @settings(max_examples=25, deadline=None)
    def test_extension_leaves_norm_unchanged(self, case):
        space, mu = case
        rng = random.Random(space.n * 31 + len(mu.support))
        bigger = one_point_extension(rng, space)
        assert free_norm_lp(mu, bigger).value == free_norm_lp(mu, space).value

    @given(spaces_with_elements(max_points=5))
    @settings(max_examples=25, deadline=None)
    def test_duality_inequality(self, case):
        space, mu = case
        # any function built by 1-Lipschitz extension of clipped anchors pairs below the norm
        rng = random.Random(17)
        raw = {p: rand_fraction(rng, signed=True) for p in range(1, space.n)}
        raw[0] = F(0)
        values = [
            min(raw[q] + space.dist[p][q] for q in range(space.n))
            for p in range(space.n)
        ]
        f = LipFunction.from_values([v - values[0] for v in values])
        constant = lip_norm(f, space)
        if constant > 0:
            f = LipFunction.from_values([v / constant for v in f.values])
        norm = free_norm_lp(mu, space).value
        assert pairing(f, mu) <= norm


def _direct_transport(element, space):
    # the positive part shipped straight onto the negative part, base balance included
    masses = dict(element.support)
    masses[0] = -sum(masses.values(), F(0))
    sources = [p for p in sorted(masses) if masses[p] > 0]
    sinks = [p for p in sorted(masses) if masses[p] < 0]
    return min_cost_transport(
        [masses[p] for p in sources],
        [-masses[p] for p in sinks],
        lambda i, j: space.dist[sources[i]][sinks[j]],
    ).cost


class TestFreeNorm:
    def test_approximate_space_transports_on_shortest_paths(self):
        # float differences break some triangles by ~1e-17, inside the tolerance;
        # the LP may relay through such a triangle, direct transport may not
        xs = [0.0, 0.1, 0.3, 0.6, 1.0, 1.7]
        space = load_space(json.dumps({"dist": [[abs(a - b) for b in xs] for a in xs]}))
        assert space.approximate
        rng = random.Random(5)
        relayed = 0
        for _ in range(60):
            mu = random_element(rng, space.n, rng.randint(1, space.n - 1))
            result = free_norm(mu, space)
            assert result.value == free_norm_lp(mu, space).value
            # the plan's marginals and cost, priced within support + base
            costs = shortest_path_costs(space, {0, *(p for p, _ in mu.support)})
            assert_certificate(result, mu, space, costs)
            direct = _direct_transport(mu, space)
            assert 0 <= direct - result.value < FLOAT_TOLERANCE
            relayed += direct != result.value
        assert relayed > 0


def _float_line(rng, n):
    xs = rng.sample([k / 10 for k in range(-60, 60)], n)
    return [[abs(a - b) for b in xs] for a in xs]


def _float_weights(rng, n):
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = 1 + rng.randrange(8) / 8 + rng.randrange(2) / 10
    return d


def _float_l1_plane(rng, n):
    grid = [(x / 10, y / 10) for x in range(-8, 9) for y in range(-8, 9)]
    pts = rng.sample(grid, n)
    return [[abs(a - c) + abs(b - d) for c, d in pts] for a, b in pts]


class TestClosedRoute:
    """On approximate spaces ``free_norm`` transports on the shortest-path
    closure of support + base and keeps the LP's value."""

    @pytest.mark.parametrize("make", [_float_line, _float_weights, _float_l1_plane])
    def test_float_spaces_agree_with_the_lp(self, make):
        rng = random.Random(make.__name__)
        for _ in range(100):
            space = load_space(json.dumps({"dist": make(rng, rng.randint(3, 8))}))
            assert space.approximate
            for _ in range(5):
                mu = random_element(rng, space.n, rng.randint(1, space.n - 1))
                result = free_norm(mu, space)
                assert result.value == free_norm_lp(mu, space).value
                points = sorted({0, *(p for p, _ in mu.support)})
                assert_certificate(result, mu, space, shortest_path_costs(space, points))
                block = FiniteMetricSpace(tuple(tuple(space.dist[i][j] for j in points) for i in points))
                restricted = LipFunction(tuple(result.function.values[p] for p in points))
                assert lip_norm(restricted, block) <= 1


class TestPairing:
    def test_evaluation_of_delta(self):
        space = truncate(make_family("uniform", 1), 4)
        f = LipFunction.from_values([0, F(1, 2), -1, F(3, 4)])
        assert pairing(f, delta(2)) == -1

    def test_zero_function(self):
        f = LipFunction.from_values([0, 0, 0])
        assert pairing(f, FreeElement.from_pairs([(1, 5), (2, -3)])) == 0


class TestTwoPointNorm:
    def test_unit_ultrametric_difference(self):
        assert two_point_norm(1, -1, 1, 1, 1) == 1

    def test_same_sign(self):
        assert two_point_norm(1, 1, 2, 3, 4) == 5

    def test_mixed_sign_larger_b(self):
        assert two_point_norm(1, -2, 2, 3, 4) == (4 - 3) * 1 + 3 * 2 == 7

    def test_case_boundaries_agree(self):
        # at ab = 0 and |a| = |b| the case formulas coincide
        dx0, dy0, dxy = F(2), F(3), F(4)
        assert two_point_norm(F(5, 2), 0, dx0, dy0, dxy) == dx0 * F(5, 2)
        same = dx0 * 1 + (dxy - dx0) * 1
        other = (dxy - dy0) * 1 + dy0 * 1
        assert same == other == two_point_norm(1, -1, dx0, dy0, dxy)

    def test_invalid_triples(self):
        with pytest.raises(InvalidTriple):
            two_point_norm(1, 1, 1, 1, 3)
        with pytest.raises(InvalidTriple):
            two_point_norm(1, 1, 0, 1, 1)

    def test_against_lp_on_random_triples(self):
        rng = random.Random(55)
        for _ in range(40):
            dx0 = rand_fraction(rng) + F(1, 4)
            dy0 = rand_fraction(rng) + F(1, 4)
            lo, hi = abs(dx0 - dy0), dx0 + dy0
            dxy = lo + (hi - lo) * F(rng.randint(1, 4), 4)
            if dxy == 0:
                continue
            space = validate_metric(
                [[0, dx0, dy0], [dx0, 0, dxy], [dy0, dxy, 0]]
            )
            for a in GRID:
                for b in GRID:
                    mu = FreeElement.from_pairs([(1, a), (2, b)])
                    assert free_norm_lp(mu, space).value == two_point_norm(
                        a, b, dx0, dy0, dxy
                    )


class TestBallSection:
    def test_unit_hexagon(self):
        space = truncate(make_family("uniform", 1), 3)
        section = ball_section(space, 1, 2)
        expected = {
            (F(1), F(1)), (F(1), F(0)), (F(0), F(-1)),
            (F(-1), F(-1)), (F(-1), F(0)), (F(0), F(1)),
        }
        assert set(section.vertices) == expected
        assert len(section.vertices) == 6

    def test_tight_triangle_degenerates_to_box(self):
        space = validate_metric([[0, 2, 3], [2, 0, 5], [3, 5, 0]])
        section = ball_section(space, 1, 2)
        assert len(section.vertices) == 4
        assert set(section.vertices) == {
            (F(2), F(3)), (F(-2), F(3)), (F(-2), F(-3)), (F(2), F(-3))
        }

    def test_orientation_and_vertex_count(self):
        from lipfree.geometry import doubled_area

        rng = random.Random(321)
        for _ in range(60):
            dx0 = rand_fraction(rng) + F(1, 4)
            dy0 = rand_fraction(rng) + F(1, 4)
            lo, hi = abs(dx0 - dy0), dx0 + dy0
            dxy = lo + (hi - lo) * F(rng.randint(1, 4), 4)
            if dxy == 0:
                continue
            space = validate_metric([[0, dx0, dy0], [dx0, 0, dxy], [dy0, dxy, 0]])
            section = ball_section(space, 1, 2)
            assert len(section.vertices) in (4, 5, 6)
            assert doubled_area(list(section.vertices)) > 0
            assert set(section.vertices) == halfplane_vertices_bruteforce(dx0, dy0, dxy)
            # every vertex satisfies all constraints with at least two active
            for u, v in section.vertices:
                active = [abs(u) == dx0, abs(v) == dy0, abs(u - v) == dxy]
                assert abs(u) <= dx0 and abs(v) <= dy0 and abs(u - v) <= dxy
                assert sum(active) >= 2

    def test_lower_tight_triangle(self):
        # dy0 = dx0 + dxy: the strip clips the box to a parallelogram
        dx0, dy0, dxy = F(1), F(3), F(2)
        space = validate_metric([[0, dx0, dy0], [dx0, 0, dxy], [dy0, dxy, 0]])
        section = ball_section(space, 1, 2)
        assert len(section.vertices) == 4
        for a in GRID:
            for b in GRID:
                mu = FreeElement.from_pairs([(1, a), (2, b)])
                value = two_point_norm(a, b, dx0, dy0, dxy)
                assert free_norm_lp(mu, space).value == value
                assert section.support_norm(a, b) == value

    def test_support_norm_equals_closed_form(self):
        space = validate_metric([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        section = ball_section(space, 1, 2)
        for a in GRID:
            for b in GRID:
                assert section.support_norm(a, b) == two_point_norm(a, b, 2, 3, 4)

    def test_ball_vertices_have_norm_one(self):
        space = validate_metric([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        section = ball_section(space, 1, 2)
        for a, b in section.ball_vertices:
            assert two_point_norm(a, b, 2, 3, 4) == 1
        # midpoints of consecutive vertices stay inside the ball
        verts = list(section.ball_vertices)
        for (a1, b1), (a2, b2) in zip(verts, verts[1:] + verts[:1]):
            assert two_point_norm((a1 + a2) / 2, (b1 + b2) / 2, 2, 3, 4) <= 1

    def test_ball_vertices_have_norm_one_when_the_pair_is_closest(self):
        # rho(x, y) < min(rho(x, 0), rho(y, 0)): the polar reaches (1/rho(x, y), -1/rho(x, y))
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            dx0, dy0, dxy = (F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(3))
            if not abs(dx0 - dy0) <= dxy < min(dx0, dy0):
                continue
            checked += 1
            section = ball_section(validate_metric([[0, dx0, dy0], [dx0, 0, dxy], [dy0, dxy, 0]]), 1, 2)
            assert (1 / dxy, -1 / dxy) in section.ball_vertices
            for a, b in section.ball_vertices:
                assert two_point_norm(a, b, dx0, dy0, dxy) == 1

    def test_far_base_section_reaches_the_short_edge(self):
        section = ball_section(validate_metric([[0, 10, 10], [10, 0, 1], [10, 1, 0]]), 1, 2)
        assert section.ball_vertices == (
            (F(-1), F(1)), (F(-1, 10), F(0)), (F(0), F(-1, 10)),
            (F(1), F(-1)), (F(1, 10), F(0)), (F(0), F(1, 10)),
        )

    def test_ball_membership_matches_norm(self):
        # (a, b) lies in the emitted ball polygon iff the norm is <= 1;
        # membership is decided by the defining half-planes a*u + b*v <= 1
        rng = random.Random(77)
        for _ in range(25):
            dx0 = rand_fraction(rng) + F(1, 4)
            dy0 = rand_fraction(rng) + F(1, 4)
            lo, hi = abs(dx0 - dy0), dx0 + dy0
            dxy = lo + (hi - lo) * F(rng.randint(1, 4), 4)
            if dxy == 0:
                continue
            space = validate_metric([[0, dx0, dy0], [dx0, 0, dxy], [dy0, dxy, 0]])
            section = ball_section(space, 1, 2)
            for a in GRID:
                for b in GRID:
                    inside = all(a * u + b * v <= 1 for u, v in section.vertices)
                    assert inside == (two_point_norm(a, b, dx0, dy0, dxy) <= 1)

    def test_degenerate_pairs_rejected(self):
        space = truncate(make_family("uniform", 1), 3)
        with pytest.raises(DegeneratePair):
            ball_section(space, 1, 1)
        with pytest.raises(DegeneratePair):
            ball_section(space, 0, 1)


class TestNonrotundWitness:
    def test_three_point_ultrametric(self):
        space = truncate(make_family("uniform", 1), 3)
        u, v = nonrotund_witness(space)
        assert u.support == ((1, F(1)),)
        assert v.support == ((2, F(1)),)
        assert free_norm_lp(u.plus(v), space).value == 2

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            nonrotund_witness(truncate(make_family("uniform", 1), 2))

    def test_float_space_breaking_the_triangle_needs_exactness(self):
        # |rho(1, 0) - rho(2, 0)| > rho(1, 2) holds exactly on these floats
        space = load_space('{"dist": [[0, 0.1, 0.4], [0.1, 0, 0.3], [0.4, 0.3, 0]]}')
        assert space.approximate
        with pytest.raises(ExactnessRequired):
            nonrotund_witness(space)
        exact = validate_metric([[0, "1/10", "2/5"], ["1/10", 0, "3/10"], ["2/5", "3/10", 0]])
        u, v = nonrotund_witness(exact)
        assert free_norm_lp(u.plus(v), exact).value == 2

    @pytest.mark.parametrize(
        "label", ["uniform:1:5", "convline:6", "intline:4", "remark:3:5", "dendro:2:5:12:8"]
    )
    def test_catalog_truncations(self, label):
        from lipfree import parse_space

        space = parse_space(label)
        u, v = nonrotund_witness(space)
        assert u != v
        assert free_norm_lp(u, space).value == 1
        assert free_norm_lp(v, space).value == 1
        assert free_norm_lp(u.plus(v), space).value == 2

    def test_runs_no_norm(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the witness ran a norm")

        monkeypatch.setattr(norm_engine, "free_norm", refuse)
        space = parse_space("remark:3:5")
        u, v = nonrotund_witness(space)
        assert free_norm_lp(u.plus(v), space).value == 2


def _adversarial_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "adversarial.py"
    spec = importlib.util.spec_from_file_location("adversarial", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CATALOG_SPACES = [
    "uniform:1:12", "uniform:5/2:12", "convline:12", "intline:12", "geomline:12",
    *(f"remark:{k}:12" for k in range(1, 7)), "dendro:1:8:12", "dendro:2:6:12",
]


def _elements(rng, n):
    """Random elements of every support size, one with every point."""
    elements = [random_element(rng, n, size) for size in range(1, n)]
    full = FreeElement.from_pairs((p, rand_fraction(rng, signed=True)) for p in range(1, n))
    return [*elements, full]


def _transported(mu, space):
    """``free_norm`` on the space without its tree, as a space built by hand
    reaches it: on the transport route."""
    return free_norm(mu, dataclasses.replace(space, structure=None))


class TestCTransformOnIntegers:
    """The transport route returns what the Fraction c-transform of ``oracles`` returns."""

    def _agree(self, space, elements):
        for mu in elements:
            assert _transported(mu, space) == free_norm_reference(mu, space), mu

    @pytest.mark.parametrize("name", sorted(SUITE_PLANS))
    def test_suite_spaces(self, name):
        space = SUITE_PLANS[name]().space()
        self._agree(space, _elements(random.Random(name), space.n))

    @pytest.mark.parametrize("label", CATALOG_SPACES)
    def test_catalog_truncations(self, label):
        self._agree(parse_space(label), _elements(random.Random(label), 12))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_rational_spaces(self, seed):
        rng = random.Random(seed)
        for n in range(2, 10):
            self._agree(random_metric_space(rng, n), _elements(rng, n))

    def test_prime_denominators_past_the_scan_bits(self):
        mat = _adversarial_module().adversarial_matrix(24)
        assert lcm(*(v.denominator for row in mat for v in row)).bit_length() > _SCAN_BITS
        space = validate_metric(mat)
        self._agree(space, _elements(random.Random(24), 24)[::4])

    def test_edge_cases(self):
        space = truncate(make_family("remark", 3), 6)
        single_sink = FreeElement.from_pairs([(1, 1), (3, F(1, 2)), (2, F(-3, 2))])
        base_sink = FreeElement.from_pairs([(1, 1), (4, F(2, 3))])
        for mu in (single_sink, base_sink, FreeElement.from_pairs([])):
            self._agree(space, [mu])
        assert _transported(base_sink, space).plan == ((1, 0, 1), (4, 0, F(2, 3)))
        point = validate_metric([[0]])
        self._agree(point, [FreeElement.from_pairs([]), delta(0)])
        assert _transported(delta(0), point).function.values == (0,)


class TestFreeNormOnSpaceInts:
    """The transport route on a space's ints returns the value, function and
    plan that it returns on the same Fractions without them."""

    def _agree(self, space, elements):
        bare = FiniteMetricSpace(space.dist, space.approximate)
        assert bare.ints is None
        for mu in elements:
            assert _transported(mu, space) == free_norm(mu, bare), mu

    @pytest.mark.parametrize("label", [*CATALOG_SPACES, "dendro:3:9:128:40", "remark:3:40", "convline:40"])
    def test_catalog_truncations(self, label):
        space = parse_space(label)
        assert space.ints is not None
        self._agree(space, _elements(random.Random(label), space.n))

    @pytest.mark.parametrize("name", sorted(SUITE_PLANS))
    def test_suite_plan_spaces(self, name):
        space = SUITE_PLANS[name]().space()
        assert space.ints is not None
        self._agree(space, _elements(random.Random(name), space.n))

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_files(self, seed):
        rng = random.Random(seed)
        for n in (2, 5, 9, 16):
            d = [[str(v) for v in row] for row in random_metric_space(rng, n).dist]
            space = load_space(json.dumps({"dist": d}))
            assert space.ints is not None and not space.approximate
            self._agree(space, _elements(rng, n))

    @pytest.mark.parametrize("make", [_float_line, _float_weights, _float_l1_plane])
    def test_approximate_files(self, make):
        rng = random.Random(make.__name__)
        for n in (3, 6, 9, 14):
            space = load_space(json.dumps({"dist": make(rng, n)}))
            assert space.ints is not None and space.approximate
            self._agree(space, _elements(rng, n))

    def test_past_the_scan_bits(self):
        space = validate_metric(_adversarial_module().adversarial_matrix(24))
        assert space.ints is None
        self._agree(space, _elements(random.Random(24), 24)[::4])
        for plan in prime_pairs_plans(1):
            space = plan.space()
            assert space.ints is None
            self._agree(space, _elements(random.Random(plan.n_points), space.n)[::3])


TREE_FAMILIES = ("uniform:1", "convline", "intline", "geomline", "dendro:3:9:128")
TREE_SPACES = [
    *(f"{family}:{n}" for n in (12, 40, 128) for family in TREE_FAMILIES),
    "uniform:5/2:12", "dendro:1:8:12", "dendro:2:6:12",
]


def _tree_elements(rng, n):
    """Random elements of a few support sizes up to every point."""
    sizes = sorted({min(size, n - 1) for size in (1, 2, 3, 6, n // 2, n - 1)})
    elements = [random_element(rng, n, size) for size in sizes]
    return [*elements, FreeElement.from_pairs((p, rand_fraction(rng, signed=True)) for p in range(1, n))]


def _dyadic_float_line(rng, n):
    # multiples of 1/8: every float difference is exact, so the line certificate passes
    xs = rng.sample([k / 8 for k in range(-60, 60)], n)
    return [[abs(a - b) for b in xs] for a in xs]


class TestTreeRoute:
    """On a line or an ultrametric that keeps its certificate's structure,
    ``free_norm`` reads the tree, and agrees with the transport."""

    def _agree(self, space, elements):
        assert space.certificate in ("line", "ultrametric") and space.structure is not None
        bare = FiniteMetricSpace(space.dist, space.approximate)
        for mu in elements:
            result = free_norm(mu, space)
            assert result.value == free_norm(mu, bare).value, mu
            assert_certificate(result, mu, space)
            assert lip_norm(result.function, space) <= 1

    @pytest.mark.parametrize("label", TREE_SPACES)
    def test_catalog_truncations(self, label):
        space = parse_space(label)
        self._agree(space, _tree_elements(random.Random(label), space.n))

    def test_uniform_512(self):
        # every distance is 1: a function is 1-Lipschitz iff its values span at
        # most 1, and the norm is half the total mass, base balance included
        space = parse_space("uniform:1:512")
        bare = FiniteMetricSpace(space.dist)
        rng = random.Random(512)
        full = FreeElement.from_pairs((p, rand_fraction(rng, signed=True)) for p in range(1, 512))
        for mu in [*(random_element(rng, 512, size) for size in (1, 5, 24)), full]:
            result = free_norm(mu, space)
            masses = [c for _, c in mu.support]
            assert result.value == (sum(map(abs, masses)) + abs(sum(masses))) / 2
            if mu is not full:
                assert result.value == free_norm(mu, bare).value
            assert_certificate(result, mu, space)
            assert max(result.function.values) - min(result.function.values) <= 1

    @pytest.mark.parametrize("name", sorted(SUITE_PLANS))
    def test_suite_plan_spaces(self, name):
        space = SUITE_PLANS[name]().space()
        if space.certificate in ("line", "ultrametric"):
            self._agree(space, _tree_elements(random.Random(name), space.n))
        else:
            assert space.structure is None

    @pytest.mark.parametrize("make", [_dyadic_float_line, _float_line])
    def test_float_line_files(self, make):
        rng = random.Random(make.__name__)
        trees = 0
        for n in (2, 3, 5, 8, 13, 21) * 3:
            space = load_space(json.dumps({"dist": make(rng, n)}))
            assert space.approximate
            if space.structure is not None:
                trees += 1
                self._agree(space, _tree_elements(rng, n))
        assert trees == 18 if make is _dyadic_float_line else trees > 0

    def test_no_line_or_ultrametric_reaches_the_transport(self, run_cli, monkeypatch):
        def refuse(*args):
            raise RuntimeError("the transport was reached")

        monkeypatch.setattr(norm_engine, "min_cost_transport", refuse)
        element = '[{"point":1,"coef":"1"},{"point":2,"coef":"-1/2"},{"point":4,"coef":"2"},{"point":7,"coef":"-3"}]'
        for label in ("uniform:1:9", "convline:9", "dendro:3:9:128:9"):
            code, out, err = run_cli("norm", "--space", label, "--element", element, "--with-function")
            assert (code, err) == (0, "")
            space, mu = parse_space(label), free_element_from_json(element)
            values = json.loads(out)
            assert F(values["norm"]) == free_norm_lp(mu, space).value
            assert lip_norm(LipFunction.from_values(values["function"]), space) <= 1
        with pytest.raises(RuntimeError, match="transport was reached"):
            run_cli("norm", "--space", "remark:3:9", "--element", element)

    def test_equal_merge_heights_make_one_cluster(self):
        # every key of uniform:1 is 1: one cluster holds every point
        space = parse_space("uniform:1:12")
        parent, height, up = norm_engine._dendrogram(*space.structure)
        assert height[12:] == [space.scale] and up[-1] == 12
        assert parent[:12] == [12] * 12

    @pytest.mark.parametrize("label", ["dendro:3:9:128:40", "dendro:1:8:12", "convline:40", "intline:40"])
    def test_a_corrupted_structure_fails_a_check(self, label):
        # two keys, or two coordinates, swapped
        space = parse_space(label)
        rng = random.Random(label)
        for _ in range(20):
            if space.certificate == "ultrametric":
                order, keys = space.structure
                i, j = rng.sample(sorted(set(keys)), 2)
                i, j = keys.index(i), keys.index(j)
                swapped = list(keys)
                swapped[i], swapped[j] = keys[j], keys[i]
                structure = (order, tuple(swapped))
            else:
                swapped = list(space.structure)
                i, j = rng.sample(range(1, len(swapped)), 2)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                structure = tuple(swapped)
            corrupted = dataclasses.replace(space, structure=structure)
            mu = random_element(rng, space.n, rng.randint(1, space.n - 1))
            with pytest.raises(AssertionError):
                free_norm(mu, corrupted)


def _mass_off(value, plan, function):
    (x, y, m), *rest = plan
    return value, ((x, y, m + F(1, 7)), *rest), function


def _value_off(value, plan, function):
    return value + 1, plan, function


def _arc_off_support(value, plan, function):
    # the plan names every mass, so one past its largest point holds none
    (x, y, m), *rest = plan
    q = max(max(a, b) for a, b, _ in plan) + 1
    return value, ((x, q, m), *rest), function


def _function_off(value, plan, function):
    # the plan's largest point is in the support, and not the base
    p = max(max(x, y) for x, y, _ in plan)
    values = list(function.values)
    values[p] += 1
    return value, plan, LipFunction(tuple(values))


class TestCertificateChecks:
    """``free_norm`` checks what either kernel returns: each corruption
    fails its own check, on both routes."""

    @pytest.mark.parametrize("label", ["uniform:1:12", "convline:12", "remark:3:12"])
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_mass_off, "plan marginals differ from the element"),
            (_arc_off_support, "plan marginals differ from the element"),
            (_value_off, "plan cost differs from the norm"),
            (_function_off, "pairing of the attaining function differs from the norm"),
        ],
    )
    def test_each_check_fires(self, label, corrupt, message, monkeypatch):
        space = parse_space(label)
        kernel = "_tree_norm" if label != "remark:3:12" else "_transport_norm"
        assert (space.structure is not None) == (kernel == "_tree_norm")
        real, calls = getattr(norm_engine, kernel), []

        def corrupted(*args):
            calls.append(args)
            return corrupt(*real(*args))

        monkeypatch.setattr(norm_engine, kernel, corrupted)
        elements = _tree_elements(random.Random(label), space.n)
        for mu in elements:
            with pytest.raises(AssertionError, match=message):
                free_norm(mu, space)
        assert len(calls) == len(elements)


@pytest.fixture
def run_cli(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke
