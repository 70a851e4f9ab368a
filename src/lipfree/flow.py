"""Exact min-cost transportation via successive shortest paths.

This is the primary free-norm route: ``norm_engine.free_norm`` ships the
positive part of an element onto its negative part here and certifies the
answer with the returned duals.  The linear program of ``simplex`` stays the
independent oracle that the tests compare against.

Small complete bipartite instances with rational supplies, demands and
nonnegative rational costs, each an int or a ``Fraction``.  The masses are
scaled by the lcm of their denominators and the costs by the lcm of theirs,
so the search adds and compares plain integers; Dijkstra with node
potentials keeps reduced costs nonnegative.  Int costs (a space's ``ints``)
have denominator 1 and are searched as they are.  The final potentials are
optimal duals (Ahuja, Magnanti and Orlin, *Network Flows*, 1993, ch. 9),
returned as the search's ints with the costs' scale, beside the plan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

from .metric_core import integer_scale

MAX_AUGMENTATIONS = 100000


@dataclass(frozen=True)
class Transport:
    """An optimal plan and optimal duals of one transportation problem.

    ``plan`` holds (i, j, mass) for every supply i that ships mass > 0 to
    demand j.  ``potentials`` holds one price per supply (0..k-1), then one
    per demand (k..k+l-1), as ints in units of 1 / ``cost_scale``, the lcm
    of the costs' denominators: with u = potentials / cost_scale,
    ``cost(i, j) + u[i] - u[k + j]`` is >= 0 for every pair and 0 on every
    pair of the plan.
    """

    cost: Fraction
    plan: tuple[tuple[int, int, Fraction], ...]
    potentials: tuple[int, ...]
    cost_scale: int


def min_cost_transport(
    supplies: Sequence[Rational],
    demands: Sequence[Rational],
    cost: Callable[[int, int], Rational],
) -> Transport:
    """Cheapest way to move the supply masses onto the demand masses.

    ``cost(i, j)`` prices one unit from supply i to demand j.  Masses and
    costs are ints or Fractions.  Total supply must equal total demand; both
    must be positive entrywise.
    """
    k, l = len(supplies), len(demands)
    masses, mass_scale = integer_scale([*supplies, *demands])
    total = sum(masses[:k])
    if total != sum(masses[k:]):
        raise ValueError("supplies and demands must balance")
    if total == 0:
        return Transport(Fraction(0), (), (0,) * (k + l), 1)
    if any(m <= 0 for m in masses):
        raise ValueError("masses must be positive")
    costs = [cost(i, j) for i in range(k) for j in range(l)]
    if any(c < 0 for c in costs):
        raise ValueError("costs must be nonnegative")
    costs, cost_scale = integer_scale(costs)

    source = k + l
    sink = k + l + 1
    n_nodes = k + l + 2
    big = total + 1  # middle arcs never saturate

    # arcs as parallel lists; arc i^1 is the reverse of arc i
    to: list[int] = []
    cap: list[int] = []
    cst: list[int] = []
    graph: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_arc(u: int, v: int, capacity: int, c: int) -> None:
        graph[u].append(len(to))
        to.append(v)
        cap.append(capacity)
        cst.append(c)
        graph[v].append(len(to))
        to.append(u)
        cap.append(0)
        cst.append(-c)

    for i in range(k):
        add_arc(source, i, masses[i], 0)
    for j in range(l):
        add_arc(k + j, sink, masses[k + j], 0)
    middle = len(to)
    for i in range(k):
        for j in range(l):
            add_arc(i, k + j, big, costs[i * l + j])

    potential = [0] * n_nodes
    total_cost = 0
    shipped = 0
    rounds = 0
    while shipped < total:
        rounds += 1
        if rounds > MAX_AUGMENTATIONS:
            raise RuntimeError("augmentation limit exceeded")
        dist: list[int | None] = [None] * n_nodes
        parent_arc = [-1] * n_nodes
        dist[source] = 0
        heap = [(0, source)]
        done = [False] * n_nodes
        while heap:
            d_u, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == sink:
                break  # every node still open is at least as far as the sink
            d_u += potential[u]
            for arc in graph[u]:
                if cap[arc] <= 0:
                    continue
                v = to[arc]
                nd = d_u + cst[arc] - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent_arc[v] = arc
                    heapq.heappush(heap, (nd, v))
        d_sink = dist[sink]
        if d_sink is None:
            raise RuntimeError("transport network disconnected")
        for v in range(n_nodes):
            potential[v] += d_sink if dist[v] is None else min(dist[v], d_sink)

        bottleneck = total
        v = sink
        while v != source:
            arc = parent_arc[v]
            bottleneck = min(bottleneck, cap[arc])
            v = to[arc ^ 1]
        v = sink
        while v != source:
            arc = parent_arc[v]
            cap[arc] -= bottleneck
            cap[arc ^ 1] += bottleneck
            total_cost += bottleneck * cst[arc]
            v = to[arc ^ 1]
        shipped += bottleneck

    plan = []
    for i in range(k):
        for j in range(l):
            flow = cap[middle + 2 * (i * l + j) + 1]  # the reverse arc holds the flow
            if flow:
                plan.append((i, j, Fraction(flow, mass_scale)))
    return Transport(
        cost=Fraction(total_cost, mass_scale * cost_scale),
        plan=tuple(plan),
        potentials=tuple(potential[:k + l]),
        cost_scale=cost_scale,
    )
