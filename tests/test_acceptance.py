"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with its runtime.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from lipfree import (
    FreeElement,
    IndexPartition,
    admissibility_lp,
    ball_section,
    check_plan,
    free_norm,
    free_norm_flow,
    free_norm_lp,
    lin_comb_function,
    lip_norm,
    load_space,
    make_family,
    nonrotund_witness,
    radii_bounded_separated,
    radii_ultrametric,
    radii_unbounded,
    radii_unbounded_delta,
    truncate,
    two_point_norm,
    validate_metric,
    verify_l1_isometry,
    verify_linfty_isometry,
    verify_projection,
)
from oracles import (
    assert_certificate,
    l1_combination,
    one_point_extension,
    prefix,
    rand_fraction,
    random_element,
    random_metric_space,
)

GRID_9 = [F(v, 2) for v in range(-4, 5)]

CATALOG_LABELS = [
    "uniform:1",
    "uniform:5/2",
    "convline",
    "intline",
    "geomline",
    "remark:1",
    "remark:2",
    "remark:3",
    "remark:4",
    "remark:5",
    "remark:6",
    "dendro:1:8",
    "dendro:2:6",
]

# golden exact LP values for the admissibility probe, N = 10, identity ordering
REMARK_TAU_GOLDEN = {
    1: F(508, 513),
    2: F(76, 81),
    3: F(49, 55),
    4: F(439, 454),
    5: F(161, 176),
    6: F(382, 397),
}


@contextmanager
def criterion(num: int, name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num:2d}] PASS {name} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds the {budget}s budget"


def _random_triple(rng):
    dx0 = rand_fraction(rng) + F(1, 4)
    dy0 = rand_fraction(rng) + F(1, 4)
    lo, hi = abs(dx0 - dy0), dx0 + dy0
    dxy = lo + (hi - lo) * F(rng.randint(1, 4), 4)
    if dxy == 0:
        dxy = hi
    return dx0, dy0, dxy


def _triple_space(dx0, dy0, dxy):
    return validate_metric([[0, dx0, dy0], [dx0, 0, dxy], [dy0, dxy, 0]])


@pytest.fixture(scope="module")
def exact_plans():
    """The exact-plan set shared by criteria 5, 6 and 11."""
    plans = [("uniform:1 ultra", radii_ultrametric(make_family("uniform", 1), 10))]
    for seed in range(101, 106):
        plans.append(
            (f"dendro:{seed} ultra", radii_ultrametric(make_family("dendro", seed, 10), 4))
        )
    plans.append(("intline udelta", radii_unbounded_delta(make_family("intline"), 5)))
    plans.append(("geomline udelta", radii_unbounded_delta(make_family("geomline"), 5)))
    return plans


def test_criterion_01_oracle_equivalence():
    with criterion(1, "oracle equivalence lp = certified flow, 1000 instances", budget=10.0):
        rng = random.Random(20260809)
        for i in range(1000):
            n = rng.randint(2, 8)
            space = random_metric_space(rng, n)
            smax = n - 1 if i % 10 == 0 else min(n - 1, 4)
            mu = random_element(rng, n, rng.randint(1, smax))
            result = free_norm(mu, space)
            assert result.value == free_norm_lp(mu, space).value
            assert lip_norm(result.function, space) <= 1
            assert_certificate(result, mu, space)
            assert free_norm_flow(mu, space) == result.value


# dyadic floats, so the tolerant path runs on a space whose triangles hold exactly
FLOAT_SPACE = (
    '{"dist": [[0, 0.5, 1.25, 2.0], [0.5, 0, 0.75, 1.5],'
    ' [1.25, 0.75, 0, 0.875], [2.0, 1.5, 0.875, 0]]}'
)


@pytest.mark.parametrize(
    "space_label, pairs",
    [
        ("uniform:1:4", []),
        ("remark:3:7", [(2, "-1/2"), (4, "-3"), (6, "-2/7")]),
        ("convline:6", [(3, "5/4")]),
        ("file", [(1, "1"), (2, "-1/3"), (3, "-1")]),
    ],
    ids=["zero-element", "all-negative", "one-point-support", "float-file-space"],
)
def test_criterion_01_certificate_edge_cases(space_label, pairs):
    if space_label == "file":
        space = load_space(FLOAT_SPACE)
        assert space.approximate
    else:
        family, *params, n = space_label.split(":")
        space = truncate(make_family(family, *params), int(n))
    mu = FreeElement.from_pairs(pairs)
    result = free_norm(mu, space)
    assert result.value == free_norm_lp(mu, space).value
    assert lip_norm(result.function, space) <= 1
    assert_certificate(result, mu, space)
    if not pairs:
        assert result.value == 0 and result.plan == ()
    elif all(F(c) < 0 for _, c in pairs):
        assert {x for x, _, _ in result.plan} == {0}  # the base point is the only source


def test_criterion_02_two_point_closed_form():
    with criterion(2, "two-point closed form = LP, 500 triples x 9x9 grid", budget=10.0):
        rng = random.Random(517)
        for _ in range(500):
            dx0, dy0, dxy = _random_triple(rng)
            space = _triple_space(dx0, dy0, dxy)
            for a in GRID_9:
                for b in GRID_9:
                    mu = FreeElement.from_pairs([(1, a), (2, b)])
                    assert free_norm_lp(mu, space).value == two_point_norm(
                        a, b, dx0, dy0, dxy
                    )


def test_criterion_03_hexagon_bauer_reduction():
    with criterion(3, "vertex maximum over A = two-point norm, same instance set"):
        rng = random.Random(517)  # the criterion-2 instance set
        for _ in range(500):
            dx0, dy0, dxy = _random_triple(rng)
            section = ball_section(_triple_space(dx0, dy0, dxy), 1, 2)
            assert len(section.vertices) in (4, 5, 6)
            for a in GRID_9:
                for b in GRID_9:
                    assert section.support_norm(a, b) == two_point_norm(
                        a, b, dx0, dy0, dxy
                    )


def test_criterion_04_non_rotundity():
    with criterion(4, "nonrotund witness exact on all catalog truncations", budget=5.0):
        for label in CATALOG_LABELS:
            family = make_family(*label.split(":"))
            for n in (3, 5, 9):
                space = truncate(family, n)
                u, v = nonrotund_witness(space)
                assert u != v
                assert free_norm_lp(u, space).value == 1
                assert free_norm_lp(v, space).value == 1
                assert free_norm_lp(u.plus(v), space).value == 2


def test_criterion_05_exact_l1_isometry(exact_plans):
    with criterion(5, "exact l1 isometry, 200 random vectors over 8 plans", budget=30.0):
        rng = random.Random(9000)
        total = 0
        for name, plan in exact_plans:
            assert plan.exact, name
            for _ in range(25):
                length = rng.randint(1, plan.pair_count)
                coeffs = [rand_fraction(rng, signed=True) for _ in range(length)]
                expected = sum(abs(c) for c in coeffs)
                assert verify_l1_isometry(plan, coeffs) == expected, name
                assert free_norm(l1_combination(plan, coeffs), plan.space()).value == expected, name
                total += 1
            # the defining-LP route agrees on small supports
            for _ in range(3):
                coeffs = [rand_fraction(rng, signed=True) for _ in range(2)]
                expected = sum(abs(c) for c in coeffs)
                element = l1_combination(plan, coeffs)
                assert free_norm_lp(element, plan.space()).value == expected, name
        assert total >= 200


def test_criterion_06_projection_norm(exact_plans):
    with criterion(6, "projection reproduces the basis with constant 1"):
        for name, plan in exact_plans:
            report = verify_projection(plan)
            assert report.basis_reproduced, name
            assert report.lipschitz_ok, name


def test_criterion_07_linfty_isometry_defect():
    with criterion(7, "unbounded-case ratio bounds and Lipschitz window at 20 pairs"):
        for label in ("intline", "geomline"):
            plan = radii_unbounded(make_family(label), 20)
            report = check_plan(plan)
            assert len(report.ratios) == 20
            for n, q in report.ratios:
                assert q > 1 - F(1, 2 * n), (label, n)
            partition = IndexPartition.round_robin(1, 20)
            for n_pairs in (5, 10, 20):
                window = verify_linfty_isometry(prefix(plan, n_pairs), partition, [1])
                assert 1 - F(1, 2 * n_pairs) <= window.lip <= 1, (label, n_pairs)


def test_criterion_08_ultrametric_machinery():
    with criterion(8, "ultrametric trichotomy: uniform constant case + 10 dendrograms"):
        uniform_plan = radii_ultrametric(make_family("uniform", 1), 5)
        assert uniform_plan.case == "ultra-constant"
        assert uniform_plan.r == (F(1, 2),) * 11
        assert uniform_plan.exact

        rng = random.Random(888)
        for seed in range(1, 11):
            plan = radii_ultrametric(make_family("dendro", seed, 10), 4)
            assert plan.exact, seed
            report = check_plan(plan)
            assert report.exact
            for _ in range(5):
                coeffs = [rand_fraction(rng, signed=True) for _ in range(plan.pair_count)]
                expected = sum(abs(c) for c in coeffs)
                assert verify_l1_isometry(plan, coeffs) == expected, seed
                assert free_norm(l1_combination(plan, coeffs), plan.space()).value == expected, seed


def test_criterion_09_remark_admissibility_probe():
    with criterion(9, "admissibility LP: remark families strictly below 1, uniform at 1"):
        for which, golden in REMARK_TAU_GOLDEN.items():
            result = admissibility_lp(make_family("remark", which), 10)
            assert result.tau == golden, which
            assert result.tau < 1
        control = admissibility_lp(make_family("uniform", 1), 10)
        assert control.tau == 1


def test_criterion_10_subspace_extension_invariance():
    with criterion(10, "free norm invariant under 100 random point additions"):
        rng = random.Random(424242)
        for _ in range(100):
            space = random_metric_space(rng, rng.randint(3, 6))
            mu = random_element(rng, space.n, rng.randint(1, min(3, space.n - 1)))
            base_value = free_norm_lp(mu, space).value
            bigger = space
            for _ in range(rng.randint(1, 2)):
                bigger = one_point_extension(rng, bigger)
            assert free_norm_lp(mu, bigger).value == base_value
            assert free_norm_flow(mu, bigger) == base_value


def test_criterion_11_disjoint_support_lipschitz_bound(exact_plans):
    with criterion(11, "block sums with max|a| <= 1 stay 1-Lipschitz, all plans"):
        extra = [
            ("intline unbounded", radii_unbounded(make_family("intline"), 4)),
            ("remark5 bounded", radii_bounded_separated(make_family("remark", 5), 3)),
        ]
        for name, plan in list(exact_plans) + extra:
            k_blocks = min(3, plan.pair_count)
            partition = IndexPartition.round_robin(k_blocks, plan.pair_count)
            space = plan.space()
            choices = [F(1), F(-1), F(3, 7)]
            for c0 in choices:
                for c1 in choices:
                    coeffs = [c0, c1, F(-3, 7)][:k_blocks]
                    h = lin_comb_function(plan, partition, coeffs)
                    assert lip_norm(h, space) <= 1, name
