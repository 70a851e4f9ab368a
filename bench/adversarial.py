"""Worst case for the common denominator of the metric scans.

    PYTHONPATH=src python3 bench/adversarial.py

Every entry above the diagonal of an n-point matrix is 1 + 1/p for its own
prime p, so the lcm of the denominators is the product of n(n-1)/2 primes.
All entries lie in (1, 2), so the matrix is a metric; it is not an
ultrametric.  Since every entry is below twice the least one, the
nearest-neighbour certificate accepts it without the triangle scan, so
``validate_metric`` is timed on ``scanned_matrix`` instead: the same entries
plus |x_i - x_j| for x_i = i mod 4, still a metric with the same
denominators, which no certificate accepts and the full scan runs on.
Prints one JSON object: per size, the median wall seconds over ``REPEATS``
runs of ``validate_metric`` on that matrix and of ``is_ultrametric`` on the
validated first one (a ``file:`` family runs both), and per size in
``NORM_SIZES`` of ``free_norm_flow`` on a seeded
element that supports every point (``free_norm(...).value`` where that
exists, the Fraction transport of earlier versions otherwise), with a hash
of the norm it returned.  The same matrices, read as a family, time the
admissibility probe: the minimum-ratio cycle ``admissibility`` at every size
in ``ADMISSIBILITY_SIZES`` and the exact LP ``admissibility_lp`` at
``ADMISSIBILITY_LP_SIZES``, each with a hash of the tau it returned.

The ``ultrametric`` entry times ``is_ultrametric`` on the 512-leaf truncation
of ``dendro:11:30:512`` and ``radii_ultrametric`` on the catalog families in
``ULTRA_FAMILIES`` and on two ``file:`` caterpillars of ``PRIME_LEVEL_POINTS``
points whose levels 1 + 1/p have distinct prime denominators p, so that the
rows of one point carry hundreds of primes: leaves shallow to deep (a
decreasing chain) and deep to shallow (an increasing one).  Each entry has a
hash of the verdict, or of the plan's (case, x_idx, r) or error.

The ``truncation`` entry times the label-to-space path on lines,
ultrametrics and bounded separated sequences: ``truncate`` on the
``TRUNCATIONS`` (``convline`` from 180 points on, and ``remark:3`` at 512,
have a common denominator past 256 bits; the 40-point ones are the sizes
of perfbench's norm-sparse workload), and ``validate_metric``
and ``is_ultrametric`` on the shallow-first prime-level caterpillar of
``PRIME_LEVEL_POINTS`` points.  Each entry has a hash of the space or verdict.

The ``load_space`` entry times ``load_space`` on the JSON text of a seeded
weights matrix at each size in ``LOAD_SIZES``: every entry above the
diagonal is 1 + a/d with 1 <= d <= 8 as a 'p/q' string, so a few dozen
distinct strings fill the matrix, and the nearest-neighbour certificate
accepts it without the triangle scan.  Each entry has a hash of the space.

The ``family_from_space`` entry times ``load_space`` and then
``family_from_space`` on the JSON texts of the shallow-first prime-level
caterpillar and of the weights matrix, both of ``PRIME_LEVEL_POINTS`` points:
the check that validated each space decides whether it is an ultrametric.
Each entry has a hash of the family's ultrametric flag and size.

The ``float_load`` entry does the same at each size in ``FLOAT_LOAD_SIZES``
on float entries 1 + k/8 + b/10 (k in 0..7, b in {0, 1}), which make the
space approximate.  Each entry has a hash of the space.

The ``float_norm`` entry times ``free_norm_flow`` on the same float weights
matrices at each size in ``FLOAT_NORM_SIZES``, for a seeded element on
5/8 of the points.  Each entry has a hash of the norm alone, which does not
depend on the route that computed it.

The ``projection`` entry times the two verifiers of the exact plans in
``PROJECTION_PLANS`` (``radii_ultrametric`` on ``uniform:1``,
``radii_unbounded_delta`` on ``geomline``) at each pair count in
``PROJECTION_PAIRS``: ``verify_projection`` and ``verify_linfty_isometry``
with the ``LINFTY_COEFFS`` on three round-robin blocks.  Each run gets a
fresh plan, built and its space validated outside the timing, so that
nothing a verifier keeps on the plan reads as free in a later run.  Each
entry has a hash of the report.

The ``plan_space`` entry times the first ``plan.space()`` on a fresh plan,
built outside the timing: on the same ``PROJECTION_PLANS`` at each pair count
in ``PROJECTION_PAIRS``, where a certificate accepts the plan's ints, and on a
plan with zero radii over the ``SCANNED_PLAN_POINTS`` points of a family on
``scanned_matrix``, which no certificate accepts and ``validate_metric``
scans.  Each entry has a hash of the space.

The ``verify_l1`` entry times ``verify_l1_isometry`` on the same
``PROJECTION_PLANS`` at each pair count in ``PROJECTION_PAIRS``, with the
``LINFTY_COEFFS`` repeated over every pair, on a fresh plan built and its
space validated outside the timing, as the ``projection`` entry does.  Each
entry has a hash of the norm.

The ``bounded`` entry times ``radii_bounded_separated`` on the
``BOUNDED_FAMILIES`` at each pair count in ``BOUNDED_PAIRS``, each run on a
family parsed afresh outside the timing, plan building included.  Each entry
has a hash of the plan's (case, x_idx, r).

The ``catalog_norm`` entry times ``free_norm``, with its function, on the
truncations of the ``CATALOG_NORMS`` at each size in ``CATALOG_NORM_SIZES``,
for the seeded element that supports every point (as in ``NORM_SIZES``).
These common denominators stay within 256 bits, so the space keeps its ints:
the line and ultrametric truncations take the tree route, and ``remark:3``
the transport and the c-transform on the ints.  Each entry has a hash of
the value and the function.

The ``tree_norm`` entry times ``free_norm`` on the ``TREE_NORM_POINTS``-point
truncations of the ``TREE_NORMS``, an ultrametric clique and a dendrogram,
for the seeded element that supports every point (as in ``NORM_SIZES``):
the envelope of the tree route, where transport takes seconds.  Each entry
has a hash of the norm alone, which does not depend on the route.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import tempfile
from fractions import Fraction
from time import perf_counter

from lipfree import (
    FreeElement,
    IndexPartition,
    LipfreeError,
    admissibility,
    admissibility_lp,
    free_norm,
    free_norm_flow,
    is_ultrametric,
    load_space,
    make_plan,
    parse_family,
    radii_bounded_separated,
    radii_ultrametric,
    radii_unbounded_delta,
    truncate,
    validate_metric,
    verify_l1_isometry,
    verify_linfty_isometry,
    verify_projection,
)
from lipfree.space_catalog import family_from_space

SIZES = (16, 24, 32, 40, 64, 96, 128, 192)
NORM_SIZES = (24, 40, 64)
ADMISSIBILITY_SIZES = (16, 32, 64, 128)
ADMISSIBILITY_LP_SIZES = (16, 32)
REPEATS = 3
# (family, pair count); dendro:11:30:512 runs out of every search at 8 pairs;
# dendro:625:7 is a 64-leaf tree shallower than its plan, which skips both
# chain searches; on uniform:1 at 255 pairs the clique's row fetches dominate
ULTRA_FAMILIES = (("uniform:1", 3), ("dendro:3:9:512", 4), ("dendro:11:30:512", 8),
                  ("dendro:625:7", 6), ("uniform:1", 255))
PRIME_LEVEL_POINTS = 256
PRIME_LEVEL_PAIRS = (4, 20)
TRUNCATIONS = (("convline", 180), ("convline", 256), ("dendro:11:30:512", 512),
               ("remark:3", 128), ("remark:3", 512),
               # norm-sparse's largest size, on a bounded sequence, a line, an ultrametric
               ("remark:3", 40), ("convline", 40), ("uniform:1", 40), ("dendro:5:5", 40))
LOAD_SIZES = (24, 256)
FLOAT_LOAD_SIZES = (64, 128, 256)
FLOAT_NORM_SIZES = (16, 24, 32)
PROJECTION_PLANS = (("uniform:1", radii_ultrametric), ("geomline", radii_unbounded_delta))
PROJECTION_PAIRS = (15, 63, 127, 255)
LINFTY_COEFFS = (Fraction(1), Fraction(-1, 2), Fraction(1, 3))
SCANNED_PLAN_POINTS = 64
BOUNDED_FAMILIES = ("uniform:1", "remark:3")
BOUNDED_PAIRS = (63, 255)
CATALOG_NORMS = ("uniform:1", "convline", "dendro:3:9:128", "remark:3")
CATALOG_NORM_SIZES = (40, 128)
TREE_NORMS = ("uniform:1", "dendro:3:9:512")
TREE_NORM_POINTS = 512


def primes(count: int, start: int = 1000) -> list[int]:
    found: list[int] = []
    candidate = start
    while len(found) < count:
        candidate += 1
        if all(candidate % d for d in range(2, int(candidate**0.5) + 1)):
            found.append(candidate)
    return found


def adversarial_matrix(n: int) -> list[list[Fraction]]:
    denominators = iter(primes(n * (n - 1) // 2))
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = 1 + Fraction(1, next(denominators))
    return mat


def scanned_matrix(n: int) -> list[list[Fraction]]:
    """``adversarial_matrix`` plus |x_i - x_j| for x_i = i mod 4.

    Each triangle keeps a margin of at least 1, so it is a metric; points
    with x 0 and 3 lie farther apart than their nearest neighbours' sum, and
    the point between them breaks the strong triangle inequality.
    """
    return [[v + abs(i % 4 - j % 4) for j, v in enumerate(row)] for i, row in enumerate(adversarial_matrix(n))]


def prime_level_caterpillar(n: int, reverse: bool) -> list[list[str]]:
    """rho(x_i, x_j) = 1 + 1/p_k with k = min(i, j), or n - 1 - max(i, j) when
    ``reverse``: one distinct prime p_k per level."""
    levels = [f"{p + 1}/{p}" for p in primes(n)]
    level = (lambda i, j: levels[n - 1 - max(i, j)]) if reverse else (lambda i, j: levels[min(i, j)])
    return [["0" if i == j else level(i, j) for j in range(n)] for i in range(n)]


def full_element(n: int) -> FreeElement:
    """A seeded element with a coefficient at every point but the base."""
    rng = random.Random(n)
    return FreeElement.from_pairs(
        (p, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))) for p in range(1, n)
    )


def plan_outcome(family, n_pairs) -> tuple:
    try:
        plan = radii_ultrametric(family, n_pairs)
    except LipfreeError as exc:
        return type(exc).__name__, str(exc)
    return plan.case, plan.x_idx, plan.r


def ultrametric_timings() -> dict:
    out = {}
    space = truncate(parse_family("dendro:11:30:512"), 512)
    seconds, verdict = timed(lambda: is_ultrametric(space))
    out["is_ultrametric dendro:11:30:512 n=512"] = {"s": seconds, "sha256": digest(verdict)}
    runs = [(label, parse_family(label), n_pairs) for label, n_pairs in ULTRA_FAMILIES]
    with tempfile.TemporaryDirectory() as workdir:
        for reverse in (False, True):
            path = os.path.join(workdir, f"prime-levels-{'reversed' if reverse else 'shallow-first'}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"dist": prime_level_caterpillar(PRIME_LEVEL_POINTS, reverse)}, handle)
            family = parse_family(f"file:{path}")
            label = f"file:{os.path.basename(path)}"
            runs += [(label, family, n_pairs) for n_pairs in PRIME_LEVEL_PAIRS]
        for label, family, n_pairs in runs:
            seconds, outcome = timed(lambda: plan_outcome(family, n_pairs))
            out[f"radii_ultrametric {label} pairs={n_pairs}"] = {"s": seconds, "sha256": digest(outcome)}
    return out


def truncation_timings() -> dict:
    out = {}
    for label, n in TRUNCATIONS:
        seconds, space = timed(lambda: truncate(parse_family(label), n))
        out[f"truncate {label} n={n}"] = {"s": seconds, "sha256": digest(space.dist)}
    mat = prime_level_caterpillar(PRIME_LEVEL_POINTS, False)
    seconds, space = timed(lambda: validate_metric(mat))
    out[f"validate_metric prime-level caterpillar n={PRIME_LEVEL_POINTS}"] = {"s": seconds, "sha256": digest(space.dist)}
    seconds, verdict = timed(lambda: is_ultrametric(space))
    out[f"is_ultrametric prime-level caterpillar n={PRIME_LEVEL_POINTS}"] = {"s": seconds, "sha256": digest(verdict)}
    return out


def weights_text(n: int) -> str:
    """JSON text of an n-point matrix with entries 1 + a/d in [1, 2], seeded by n."""
    rng = random.Random(n)
    dist = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = rng.randint(1, 8)
            dist[i][j] = dist[j][i] = str(1 + Fraction(rng.randint(0, d), d))
    return json.dumps({"n": n, "dist": dist})


def load_space_timings() -> dict:
    out = {}
    for n in LOAD_SIZES:
        text = weights_text(n)
        seconds, space = timed(lambda: load_space(text))
        out[f"load_space weights n={n}"] = {"s": seconds, "sha256": digest(space.dist)}
    return out


def family_from_space_timings() -> dict:
    out = {}
    n = PRIME_LEVEL_POINTS
    texts = (("prime-level caterpillar", json.dumps({"dist": prime_level_caterpillar(n, False)})),
             ("weights", weights_text(n)))
    for name, text in texts:
        seconds, family = timed(lambda: family_from_space(load_space(text), name))
        out[f"family_from_space {name} n={n}"] = {"s": seconds, "sha256": digest((family.ultrametric, family.size))}
    return out


def float_weights_text(n: int) -> str:
    """JSON text of an n-point matrix with float entries 1 + k/8 + b/10, seeded by n."""
    rng = random.Random(n)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = 1 + rng.randrange(8) / 8 + rng.randrange(2) / 10
    return json.dumps({"n": n, "dist": dist})


def float_load_timings() -> dict:
    out = {}
    for n in FLOAT_LOAD_SIZES:
        text = float_weights_text(n)
        seconds, space = timed(lambda: load_space(text))
        out[f"load_space float weights n={n}"] = {"s": seconds, "sha256": digest(space)}
    return out


def float_norm_timings() -> dict:
    out = {}
    for n in FLOAT_NORM_SIZES:
        space = load_space(float_weights_text(n))
        rng = random.Random(n)
        element = FreeElement.from_pairs(
            (p, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)))
            for p in rng.sample(range(1, n), 5 * n // 8)
        )
        seconds, value = timed(lambda: free_norm_flow(element, space))
        out[f"free_norm float weights n={n}"] = {"s": seconds, "sha256": digest(value)}
    return out


def projection_timings() -> dict:
    out = {}
    for label, build in PROJECTION_PLANS:
        for n_pairs in PROJECTION_PAIRS:
            def fresh_plan():
                plan = build(parse_family(label), n_pairs)
                plan.space()  # both sides cache the validated space; time the checks alone
                return (plan,)

            partition = IndexPartition.round_robin(len(LINFTY_COEFFS), n_pairs)
            seconds, report = timed(verify_projection, fresh_plan)
            out[f"verify_projection {label} pairs={n_pairs}"] = {"s": seconds, "sha256": digest(report)}
            seconds, report = timed(lambda plan: verify_linfty_isometry(plan, partition, LINFTY_COEFFS),
                                    fresh_plan)
            out[f"verify_linfty_isometry {label} pairs={n_pairs}"] = {"s": seconds, "sha256": digest(report)}
    return out


def verify_l1_timings() -> dict:
    out = {}
    for label, build in PROJECTION_PLANS:
        for n_pairs in PROJECTION_PAIRS:
            def fresh_plan():
                plan = build(parse_family(label), n_pairs)
                plan.space()
                return (plan,)

            coeffs = [LINFTY_COEFFS[n % len(LINFTY_COEFFS)] for n in range(n_pairs)]
            seconds, value = timed(lambda plan: verify_l1_isometry(plan, coeffs), fresh_plan)
            out[f"verify_l1_isometry {label} pairs={n_pairs}"] = {"s": seconds, "sha256": digest(value)}
    return out


def plan_space_timings() -> dict:
    out = {}
    for label, build in PROJECTION_PLANS:
        for n_pairs in PROJECTION_PAIRS:
            seconds, space = timed(lambda plan: plan.space(), lambda: (build(parse_family(label), n_pairs),))
            out[f"plan.space {label} pairs={n_pairs}"] = {"s": seconds, "sha256": digest(space)}
    n = SCANNED_PLAN_POINTS
    scanned = validate_metric(scanned_matrix(n))

    def fresh_plan():  # a new family each time, so no plan equals a cached one
        return (make_plan(family_from_space(scanned, f"scanned:{n}"), range(1, n + 1), [0] * n),)

    seconds, space = timed(lambda plan: plan.space(), fresh_plan)
    out[f"plan.space scanned_matrix n={n}"] = {"s": seconds, "sha256": digest(space)}
    return out


def bounded_timings() -> dict:
    out = {}
    for label in BOUNDED_FAMILIES:
        for n_pairs in BOUNDED_PAIRS:
            seconds, plan = timed(lambda family: radii_bounded_separated(family, n_pairs),
                                  lambda: (parse_family(label),))
            out[f"radii_bounded_separated {label} pairs={n_pairs}"] = {
                "s": seconds, "sha256": digest((plan.case, plan.x_idx, plan.r))}
    return out


def catalog_norm_timings() -> dict:
    out = {}
    for label in CATALOG_NORMS:
        for n in CATALOG_NORM_SIZES:
            space, element = truncate(parse_family(label), n), full_element(n)
            seconds, result = timed(lambda: free_norm(element, space))
            out[f"free_norm {label} n={n}"] = {"s": seconds, "sha256": digest((result.value, result.function))}
    return out


def tree_norm_timings() -> dict:
    out = {}
    n = TREE_NORM_POINTS
    for label in TREE_NORMS:
        space, element = truncate(parse_family(label), n), full_element(n)
        seconds, result = timed(lambda: free_norm(element, space))
        out[f"free_norm {label} n={n}"] = {"s": seconds, "sha256": digest(result.value)}
    return out


def timed(call, setup=tuple) -> tuple[float, object]:
    """Median wall seconds of ``REPEATS`` calls ``call(*setup())``, each on
    arguments that an untimed ``setup()`` makes afresh, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        args = setup()
        start = perf_counter()
        result = call(*args)
        times.append(perf_counter() - start)
    return statistics.median(times), result


def digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def main() -> None:
    out = {}
    for n in SIZES:
        mat, scanned = adversarial_matrix(n), scanned_matrix(n)
        space = validate_metric(mat)
        out[f"n={n}"] = {
            "validate_metric_s": timed(lambda: validate_metric(scanned))[0],
            "is_ultrametric_s": timed(lambda: is_ultrametric(space))[0],
        }
        if n in NORM_SIZES:
            element = full_element(n)
            seconds, value = timed(lambda: free_norm_flow(element, space))
            out[f"n={n}"]["free_norm_s"] = seconds
            out[f"n={n}"]["free_norm_sha256"] = digest(value)
        if n not in ADMISSIBILITY_SIZES:
            continue
        family = family_from_space(space, f"adversarial:{n}")
        for name, probe, sizes in (
            ("admissibility", admissibility, ADMISSIBILITY_SIZES),
            ("admissibility_lp", admissibility_lp, ADMISSIBILITY_LP_SIZES),
        ):
            if n in sizes:
                seconds, result = timed(lambda: probe(family, n))
                out[f"n={n}"][f"{name}_s"] = seconds
                out[f"n={n}"][f"{name}_tau_sha256"] = digest(result.tau)
    print(json.dumps({"repeats": REPEATS, "sizes": out, "ultrametric": ultrametric_timings(),
                      "truncation": truncation_timings(), "load_space": load_space_timings(),
                      "family_from_space": family_from_space_timings(),
                      "float_load": float_load_timings(), "float_norm": float_norm_timings(),
                      "projection": projection_timings(), "plan_space": plan_space_timings(),
                      "verify_l1": verify_l1_timings(), "bounded": bounded_timings(),
                      "catalog_norm": catalog_norm_timings(), "tree_norm": tree_norm_timings()}))


if __name__ == "__main__":
    main()
