import random
from fractions import Fraction as F

import pytest

from lipfree import FreeElement, free_norm_flow, free_norm_lp
from lipfree.flow import min_cost_transport
from oracles import random_element, random_metric_space


def test_single_edge():
    assert min_cost_transport([F(1)], [F(1)], lambda i, j: F(5)).cost == 5


def test_split_shipment():
    # two sources of mass 1 onto one sink of mass 2 at costs 1 and 3
    costs = {(0, 0): F(1), (1, 0): F(3)}
    assert min_cost_transport([F(1), F(1)], [F(2)], lambda i, j: costs[i, j]).cost == 4


def test_assignment_prefers_cheap_matching():
    # crossing costs force the identity matching
    cost = lambda i, j: F(1) if i == j else F(10)
    assert min_cost_transport([F(1), F(1)], [F(1), F(1)], cost).cost == 2


def test_rational_masses():
    value = min_cost_transport(
        [F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)], lambda i, j: F(abs(i - j) + 1)
    ).cost
    # source 1 covers sink 1 fully plus 1/6 of sink 0 at cost 2
    assert value == F(1, 3) + F(1, 2) + F(1, 6) * 2


HAND_BUILT = {
    "single-edge": ([F(1)], [F(1)], lambda i, j: F(5)),
    "split-shipment": ([F(1), F(1)], [F(2)], lambda i, j: (F(1), F(3))[i]),
    "assignment": ([F(1), F(1)], [F(1), F(1)], lambda i, j: F(1) if i == j else F(10)),
    "rational-masses": (
        [F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)], lambda i, j: F(abs(i - j) + 1)
    ),
    "degenerate-ties": ([F(1, 2)] * 3, [F(3, 4), F(3, 4)], lambda i, j: F(i + j, 7)),
}


@pytest.mark.parametrize("case", HAND_BUILT, ids=list(HAND_BUILT))
def test_potentials_are_optimal_duals(case):
    supplies, demands, cost = HAND_BUILT[case]
    result = min_cost_transport(supplies, demands, cost)
    k = len(supplies)
    u, v = result.potentials[:k], result.potentials[k:]
    flow = {(i, j): m for i, j, m in result.plan}
    for i in range(k):
        for j in range(len(demands)):
            reduced = cost(i, j) + u[i] - v[j]
            assert reduced >= 0  # i -> j always has residual capacity
            if (i, j) in flow:
                assert reduced == 0  # the reverse arc j -> i is residual too
    assert all(m > 0 for m in flow.values())
    assert [sum(m for (i, _), m in flow.items() if i == s) for s in range(k)] == supplies
    assert [
        sum(m for (_, j), m in flow.items() if j == d) for d in range(len(demands))
    ] == demands
    assert sum(m * cost(i, j) for (i, j), m in flow.items()) == result.cost
    dual = sum(d * p for d, p in zip(demands, v)) - sum(s * p for s, p in zip(supplies, u))
    assert dual == result.cost


def test_unbalanced_rejected():
    with pytest.raises(ValueError):
        min_cost_transport([F(1)], [F(2)], lambda i, j: F(1))


def test_matches_lp_norm_on_random_instances():
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randint(2, 6)
        space = random_metric_space(rng, n)
        mu = random_element(rng, n, rng.randint(1, n - 1))
        assert free_norm_flow(mu, space) == free_norm_lp(mu, space).value


def test_zero_element():
    rng = random.Random(1)
    space = random_metric_space(rng, 4)
    assert free_norm_flow(FreeElement.from_pairs([]), space) == 0
