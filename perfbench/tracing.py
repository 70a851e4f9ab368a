"""Spans around lipfree's public functions, installed from outside.

Each traced function is replaced at every module attribute that binds it,
so calls through ``from .x import f`` copies are seen as well.  Spans
(name, start, end, parent, operation id) stay in memory until the run
ends.  Calls to ``MetricFamily.distance`` are counted, not timed, because
they are too many and too short to span.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from time import perf_counter

import lipfree
from lipfree import metric_core

# module -> functions wrapped in spans
TRACED = {
    "cli": ("main",),
    "simplex": ("solve_lp_max",),
    "flow": ("min_cost_transport",),
    "geometry": ("intersect_halfplanes",),
    "metric_core": ("validate_metric", "truncate", "is_ultrametric", "load_space"),
    "space_catalog": ("parse_space", "parse_family"),
    "norm_engine": ("free_norm_lp", "free_norm_flow", "lip_norm", "ball_section"),
    "constructions": (
        "radii_accumulation",
        "radii_bounded_separated",
        "radii_unbounded",
        "radii_unbounded_delta",
        "radii_ultrametric",
        "check_plan",
        "verify_l1_isometry",
        "verify_projection",
        "verify_linfty_isometry",
        "admissibility_lp",
    ),
}

# span name -> (quantity, size of one call's input)
SIZES = {
    "simplex.solve_lp_max": ("cells", lambda c, rows, rhs: len(rows) * len(c)),
    "metric_core.validate_metric": (
        "triples",
        lambda dist, *_, **__: len(dist) * (len(dist) - 1) * (len(dist) - 2),
    ),
    "flow.min_cost_transport": (
        "arcs",
        lambda sup, dem, cost: len(sup) * len(dem) + len(sup) + len(dem),
    ),
}

# per-layer metric name -> unit, in report order; sized spans also report calls
LAYER_METRICS = {}
for _name, (_quantity, _) in SIZES.items():
    LAYER_METRICS[f"{_name}.calls"] = "calls/op"
    LAYER_METRICS[f"{_name}.{_quantity}"] = f"{_quantity}/op"
for _module, _functions in TRACED.items():
    for _function in _functions:
        LAYER_METRICS[f"{_module}.{_function}.self_s"] = "s/op"
LAYER_METRICS["space_catalog.oracle.calls"] = "calls/op"
LAYER_METRICS["constructions.plan_space_cache.hit_ratio"] = "ratio"
LAYER_METRICS["trace.traced_ops_per_s"] = "1/s"
LAYER_METRICS["trace.untraced_ops_per_s"] = "1/s"
LAYER_METRICS["trace.overhead_ratio"] = "ratio"


def lipfree_modules() -> list:
    """The package and every submodule, imported."""
    names = [f"lipfree.{info.name}" for info in pkgutil.iter_modules(lipfree.__path__)]
    return [lipfree] + [importlib.import_module(name) for name in sorted(names)]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.sizes: dict[str, int] = {}
        self.oracle_calls = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = lipfree_modules()
        for module_name, functions in TRACED.items():
            home = sys.modules[f"lipfree.{module_name}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{module_name}.{function}", original)
                for module in modules:
                    for attribute, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attribute, wrapper)
                            self._patches.append((module, attribute, original))
        distance = metric_core.MetricFamily.distance

        def counted_distance(family, i, j):
            self.oracle_calls += 1
            return distance(family, i, j)

        metric_core.MetricFamily.distance = counted_distance
        self._patches.append((metric_core.MetricFamily, "distance", distance))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _wrap(self, name: str, function):
        spans, stack = self.spans, self._stack
        quantity, size_of = SIZES.get(name, (None, None))

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
                if quantity:
                    key = f"{name}.{quantity}"
                    self.sizes[key] = self.sizes.get(key, 0) + size_of(*args, **kwargs)

        traced.perfbench_span = name
        return traced

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def op_self_sums(self) -> dict[int, float]:
        sums: dict[int, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            sums[span[4]] = sums.get(span[4], 0.0) + own
        return sums

    def layer_totals(self) -> dict[str, float]:
        """Summed self seconds, call counts and input sizes, by metric name."""
        totals: dict[str, float] = dict(self.sizes)
        for span, own in zip(self.spans, self.self_times()):
            name = span[0]
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + own
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        totals["space_catalog.oracle.calls"] = self.oracle_calls
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "op": o}
                    for n, s, e, p, o in self.spans
                ],
                handle,
            )
