import contextlib
import dataclasses
import gc
import importlib.util
import itertools
import pathlib
import json
import random
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest

from lipfree import (
    EmbeddingPlan,
    ExactnessRequired,
    FiniteMetricSpace,
    HorizonExhausted,
    IndexPartition,
    InvalidFamilyParameters,
    LipfreeError,
    MetadataRequired,
    MetricFamily,
    NegativeOrZeroOffDiagonal,
    NotConvergent,
    NotUltrametric,
    SeparationViolation,
    TriangleViolation,
    admissibility,
    admissibility_lp,
    check_plan,
    free_norm,
    free_norm_flow,
    free_norm_lp,
    lin_comb_function,
    lip_norm,
    make_family,
    make_plan,
    pairing,
    parse_family,
    plan_from_json,
    plan_to_json,
    radii_accumulation,
    radii_bounded_separated,
    radii_ultrametric,
    radii_unbounded,
    radii_unbounded_delta,
    verify_l1_isometry,
    verify_linfty_isometry,
    verify_projection,
    validate_metric,
)
import oracles
from lipfree import cli, constructions, flow, metric_core, norm_engine
from lipfree.constructions import _DistanceTable, _monotone_chain, _thinning
from lipfree.space_catalog import family_from_space, ultrametric_from_codes
from lipfree.metric_core import _SCAN_BITS, truncate
from oracles import (
    assert_scaled_ints,
    bump_eval,
    l1_basis,
    l1_combination,
    lin_comb_eval_reference,
    monotone_chain_reference,
    prefix,
    radii_ultrametric_reference,
    rand_fraction,
    random_metric_space,
    separation_reference,
    thinning_reference,
    verify_linfty_reference,
    verify_projection_reference,
)


def star_family(count=None) -> MetricFamily:
    """Arms of length 1/2^(n-1) glued at the base: rho(m, n) = s_m + s_n."""
    arm = lambda n: F(0) if n == 1 else F(1, 2 ** (n - 1))
    return MetricFamily(
        label="star",
        oracle=lambda i, j: arm(i) + arm(j) if i > 1 else arm(j),
        size=count,
        bounded=True,
        converges_to_base=True,
    )


def unbounded_ultrametric_family() -> MetricFamily:
    """rho(i, j) = 2^max(i, j): an unbounded ultrametric with increasing base distances."""
    return MetricFamily(
        label="geo-ultra",
        oracle=lambda i, j: F(2 ** max(i, j)),
        bounded=False,
        ultrametric=True,
        delta_unbounded=True,
    )


def increasing_ultrametric_family() -> MetricFamily:
    """rho(i, j) = 2 - 1/2^(max(i, j) - 1): distances to later points grow toward 2."""
    return MetricFamily(
        label="inc-ultra",
        oracle=lambda i, j: F(2) - F(1, 2 ** (j - 1)),
        bounded=True,
        ultrametric=True,
        d_limit=F(2),
    )


def late_cluster_family() -> MetricFamily:
    """40 points at distance 2, except distance 1 among the indices from 5 on."""
    return MetricFamily(
        label="late-cluster",
        oracle=lambda i, j: F(1) if i >= 5 and j >= 5 else F(2),
        bounded=True,
        ultrametric=True,
        size=40,
    )


def late_chain_family(m: int) -> MetricFamily:
    """Indices 1..m at distance 2 from every point; from m + 1 on, the
    caterpillar rho(i, j) = 1 + 1/4^(min(i, j) - m).  A decreasing chain
    starts at x_1, x_{m+1}, x_{m+2}, ..., and the search reaches it only
    after trying x_2..x_m as its second point."""
    levels = [F(2)] * (m + 1) + [1 + F(1, 4**t) for t in range(1, 512 - m)]
    return MetricFamily(
        label=f"late-chain:{m}",
        oracle=lambda i, j: levels[i],
        bounded=True,
        ultrametric=True,
    )


def harmonic_caterpillar_family() -> MetricFamily:
    """rho(i, j) = 1 + 1/min(i, j): row values whose denominators do not
    divide one another, so a row's scale rarely holds the previous value."""
    return MetricFamily(
        label="harmonic-caterpillar",
        oracle=lambda i, j: 1 + F(1, i),
        bounded=True,
        ultrametric=True,
    )


def raised_beyond_the_probe(family: MetricFamily, row: int) -> MetricFamily:
    """``family`` with rho(x_row, x_j) raised by 10^-6 for j > 45: still an
    ultrametric on the 40 probed points, but no chain holds x_row and a
    later index."""
    def oracle(i, j):
        return family.oracle(i, j) + (F(1, 10**6) if i == row and j > 45 else 0)

    return dataclasses.replace(family, label=f"{family.label}/raised:{row}", oracle=oracle)


def primes_above(start: int, count: int) -> list[int]:
    found: list[int] = []
    while len(found) < count:
        start += 1
        if all(start % d for d in range(2, int(start**0.5) + 1)):
            found.append(start)
    return found


def prime_pairs_family(size: int) -> MetricFamily:
    """rho(x_2t, x_2t+1) = 1 + 1/p and every other distance 2 + 1/p, with one
    prime p > 10^4 per pair of indices.  No two short pairs share a point, so
    a triangle has at most one side below 2 and every side below 3: a metric
    whose common denominator is the product of all its primes."""
    primes = iter(primes_above(10**4, size * (size - 1) // 2))
    inverse = {pair: F(1, next(primes)) for pair in itertools.combinations(range(1, size + 1), 2)}
    return MetricFamily(
        label=f"prime-pairs:{size}",
        oracle=lambda i, j: (1 if i % 2 == 0 and j == i + 1 else 2) + inverse[i, j],
        size=size,
    )


def prime_pairs_plans(seed: int) -> list[EmbeddingPlan]:
    """An exact and an inexact plan on all of a seeded prime-pairs family: the
    base and an unpaired last point get radii up to 9/20, and pair n splits
    rho(x_2n, x_2n+1), or a seeded share of it, at a seeded point of
    [1/4, 3/4], so every radius stays below 4/5."""
    rng = random.Random(seed)
    family = prime_pairs_family(rng.randint(10, 21))
    plans = []
    for share in (lambda: 1, lambda: F(rng.randint(50, 99), rng.choice((101, 103, 107)))):
        r = [F(rng.randint(0, 9), 20) for _ in range(family.size)]
        for n in range(1, (family.size - 1) // 2 + 1):
            rho = family.distance(2 * n, 2 * n + 1) * share()
            t = F(rng.randint(13, 39), 52)
            r[2 * n - 1], r[2 * n] = t * rho, (1 - t) * rho
        plans.append(make_plan(family, range(1, family.size + 1), r))
    return plans


def uniform_exact_plan(n_pairs=3) -> EmbeddingPlan:
    return radii_ultrametric(make_family("uniform", 1), n_pairs)


class TestCheckPlan:
    def test_uniform_half_radii_all_tight(self):
        family = make_family("uniform", 1)
        plan = make_plan(family, range(1, 8), [F(1, 2)] * 7)
        report = check_plan(plan)
        assert report.exact
        assert all(q == 1 for _, q in report.ratios)
        assert len(report.ratios) == 3

    def test_star_radii_from_base_distance(self):
        family = star_family()
        x_idx = list(range(1, 8))
        radii = [family.distance(1, i) for i in x_idx]
        plan = make_plan(family, x_idx, radii)
        report = check_plan(plan)
        assert report.exact and all(q == 1 for _, q in report.ratios)

    def test_separation_violation_witness(self):
        with pytest.raises(SeparationViolation) as info:
            EmbeddingPlan(family=make_family("uniform", 1), x_idx=(1, 2), r=(F(1), F(1)))
        assert (info.value.m, info.value.n) == (1, 2)
        assert info.value.r_sum == 2 and info.value.rho == 1

    def test_more_than_max_points_is_refused_before_any_fetch(self):
        asked = []
        family = dataclasses.replace(
            make_family("uniform", 1), oracle=lambda i, j: asked.append((i, j)) or F(1)
        )
        with pytest.raises(ValueError, match="at most 512 points"):
            make_plan(family, range(1, 514), [F(1, 2)] * 513)
        assert asked == []

    @pytest.mark.parametrize("size, x_idx", [(0, [1]), (0, [1, 2]), (5, [9]), (5, [1, 6])])
    def test_an_index_past_the_family_is_refused_before_any_fetch(self, size, x_idx):
        asked = []
        family = MetricFamily(label="sized", oracle=lambda i, j: asked.append((i, j)) or F(1), size=size)
        with pytest.raises(InvalidFamilyParameters, match=f"^family sized has only {size} points$"):
            make_plan(family, x_idx, [0] * len(x_idx))
        assert asked == []

    @pytest.mark.parametrize("case", [["x"], {"a": 1}, 1])
    def test_case_is_a_string_or_none(self, case):
        with pytest.raises(ValueError, match="case must be"):
            make_plan(make_family("uniform", 1), [1, 2, 3], [0, 0, 0], case)


class TestBumpAndBlocks:
    def setup_method(self):
        self.plan = uniform_exact_plan(3)  # r_n = 1/2 everywhere
        self.partition = IndexPartition.round_robin(1, 3)

    def test_bump_at_own_center(self):
        # point label 2n-1 is position 2n
        assert bump_eval(self.plan, 2, 1) == F(1, 2)

    def test_bump_clamps_far_points(self):
        assert bump_eval(self.plan, 2, 4) == 0

    def test_bump_at_other_center_uniform(self):
        assert bump_eval(self.plan, 2, 2) == 0

    def pair_function(self, n):
        return lin_comb_function(self.plan, IndexPartition(((n,),)), [1])

    def test_f_k_at_pair_centers(self):
        # f_1 hits +r at x_2, -r at x_3
        assert self.pair_function(1)(1) == F(1, 2)
        assert self.pair_function(1)(2) == -F(1, 2)

    def test_value_at_base_is_zero(self):
        assert self.pair_function(1)(0) == 0
        assert lin_comb_function(self.plan, self.partition, [F(5)])(0) == 0

    def test_at_most_one_summand_nonzero(self):
        for p in range(self.plan.n_points):
            nonzero = [
                n
                for n in range(1, self.plan.pair_count + 1)
                if bump_eval(self.plan, 2 * n, p) - bump_eval(self.plan, 2 * n + 1, p) != 0
            ]
            assert len(nonzero) <= 1

    def test_scaled_combination(self):
        part = IndexPartition.round_robin(3, 3)
        coeffs = [F(1), F(-2), F(1, 3)]
        h = lin_comb_function(self.plan, part, coeffs)
        for p in range(self.plan.n_points):
            expected = sum(a * self.pair_function(k)(p) for k, a in enumerate(coeffs, 1))
            assert h(p) == expected == lin_comb_eval_reference(self.plan, part, coeffs, p)

    def test_single_block_unit_coefficient_reduces_to_f_k(self):
        part = IndexPartition.round_robin(1, 3)
        h = lin_comb_function(self.plan, part, [1])
        for p in range(self.plan.n_points):
            assert h(p) == sum(self.pair_function(n)(p) for n in range(1, 4))

    def test_one_coefficient_per_block(self):
        with pytest.raises(ValueError):
            lin_comb_function(self.plan, IndexPartition.round_robin(2, 3), [1])

    def test_pairs_outside_the_plan_add_nothing(self):
        part = IndexPartition(((1, 7), (2,)))
        assert lin_comb_function(self.plan, part, [1, 0]) == self.pair_function(1)

    def test_partition_must_be_disjoint(self):
        with pytest.raises(ValueError):
            IndexPartition(blocks=((1, 2), (2, 3)))

    def test_partition_blocks_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            IndexPartition(blocks=((2, 1),))

    def test_round_robin_covers_all_pairs(self):
        part = IndexPartition.round_robin(3, 10)
        seen = sorted(m for block in part.blocks for m in block)
        assert seen == list(range(1, 11))


class TestLinftyIsometry:
    def test_zero_coefficients(self):
        plan = uniform_exact_plan(3)
        report = verify_linfty_isometry(plan, IndexPartition.round_robin(2, 3), [0, 0])
        assert report.lip == 0

    def test_uniform_exact_plan_attains_max(self):
        plan = uniform_exact_plan(3)
        part = IndexPartition.round_robin(2, 3)
        for coeffs in ([1, -2], [F(1, 3), F(1, 7)], [-1, -1]):
            report = verify_linfty_isometry(plan, part, coeffs)
            assert report.lip == max(abs(F(a)) for a in coeffs)
            assert report.lower <= report.lip <= report.upper

    def test_exact_plan_attains_max_at_every_covering_truncation(self):
        plan = uniform_exact_plan(3)
        part = IndexPartition.round_robin(2, 3)  # blocks {1, 3} and {2}
        for n_pairs in (2, 3):  # both truncations cover each block
            report = verify_linfty_isometry(prefix(plan, n_pairs), part, [F(1, 2), -1])
            assert report.lip == 1

    def test_intline_window(self):
        plan = radii_unbounded(make_family("intline"), 4)
        part = IndexPartition.round_robin(1, 4)
        previous = F(0)
        for n_pairs in (1, 2, 3, 4):
            report = verify_linfty_isometry(prefix(plan, n_pairs), part, [1])
            assert 1 - F(1, 2 * n_pairs) <= report.lip <= 1
            assert report.lip >= previous  # non-decreasing in the truncation
            previous = report.lip

    def test_disjoint_support_bound(self):
        # every coefficient choice bounded by 1 keeps the sum 1-Lipschitz
        plans = [
            uniform_exact_plan(3),
            radii_unbounded(make_family("intline"), 3),
            radii_accumulation(make_family("convline"), 3),
        ]
        for plan in plans:
            part = IndexPartition.round_robin(2, plan.pair_count)
            for s1 in (-1, 1):
                for s2 in (-1, 1):
                    for mag in (F(1), F(3, 7)):
                        coeffs = [s1 * mag, s2 * mag]
                        report = verify_linfty_isometry(plan, part, coeffs)
                        assert report.lip <= max(abs(c) for c in coeffs) <= 1


class TestL1Isometry:
    def test_basis_past_the_plan_is_refused(self):
        plan = uniform_exact_plan(3)
        with pytest.raises(ValueError, match="exceeds the plan"):
            l1_basis(plan, plan.pair_count + 1)

    def test_basis_vectors_have_norm_one(self):
        for plan in (uniform_exact_plan(3), radii_accumulation(make_family("convline"), 3)):
            for n in range(1, plan.pair_count + 1):
                e_n = l1_basis(plan, n)
                space = plan.space()
                assert free_norm_lp(e_n, space).value == 1
                assert free_norm_flow(e_n, space) == 1

    def test_uniform_basis_is_plain_difference(self):
        plan = uniform_exact_plan(2)
        assert l1_basis(plan, 1).support == ((1, F(1)), (2, F(-1)))

    def test_biorthogonal_system(self):
        plan = uniform_exact_plan(3)
        for n in range(1, 4):
            f_n = lin_comb_function(plan, IndexPartition(((n,),)), [1])
            for m in range(1, 4):
                assert pairing(f_n, l1_basis(plan, m)) == (1 if m == n else 0)

    def test_single_vector(self):
        plan = uniform_exact_plan(2)
        assert verify_l1_isometry(plan, [1]) == 1
        assert free_norm(l1_combination(plan, [1]), plan.space()).value == 1

    def test_uniform_mixed_signs(self):
        plan = uniform_exact_plan(3)
        assert verify_l1_isometry(plan, [1, -2, 3]) == 6
        assert free_norm(l1_combination(plan, [1, -2, 3]), plan.space()).value == 6

    def test_exactness_guard(self):
        inexact = radii_bounded_separated(make_family("remark", 5), 3)
        assert not inexact.exact
        with pytest.raises(ExactnessRequired):
            verify_l1_isometry(inexact, [1, 1])

    def test_inexact_plans_only_satisfy_upper_bound(self):
        plan = radii_bounded_separated(make_family("remark", 5), 3)
        element = l1_combination(plan, [1, -1, 1])
        value = free_norm_flow(element, plan.space())
        assert value <= 3

    def test_float_uniform_file(self, tmp_path):
        # 0.3 everywhere: an approximate space, so the norm takes the closed route
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps({"dist": [[0 if i == j else 0.3 for j in range(9)] for i in range(9)]}))
        plan = radii_ultrametric(parse_family(f"file:{path}"), 4)
        assert plan.case == "ultra-constant" and plan.space().approximate
        rng = random.Random(16)
        for _ in range(20):
            coeffs = [rand_fraction(rng, signed=True) for _ in range(rng.randint(1, 4))]
            value = verify_l1_isometry(plan, coeffs)
            assert value == sum(abs(a) for a in coeffs)
            assert value == free_norm(l1_combination(plan, coeffs), plan.space()).value
            assert value == free_norm_lp(l1_combination(plan, coeffs), plan.space()).value

    def test_random_rational_coefficients(self):
        rng = random.Random(31)
        plan = uniform_exact_plan(4)
        for _ in range(20):
            coeffs = [rand_fraction(rng, signed=True) for _ in range(4)]
            expected = sum(abs(c) for c in coeffs)
            assert verify_l1_isometry(plan, coeffs) == expected
            assert free_norm(l1_combination(plan, coeffs), plan.space()).value == expected


class TestProjection:
    def test_base_point_gets_zero_vector(self):
        plan = uniform_exact_plan(3)
        for n in range(1, 4):
            assert lin_comb_function(plan, IndexPartition(((n,),)), [1])(0) == 0

    def test_pair_center_gets_its_radius(self):
        plan = uniform_exact_plan(3)
        for n in range(1, 4):
            for m in range(1, 4):
                f_m = lin_comb_function(plan, IndexPartition(((m,),)), [1])
                # label 2n - 1 is position 2n
                assert f_m(2 * n - 1) == (plan.r[2 * n - 1] if m == n else 0)

    def test_verify_projection_on_exact_plans(self):
        plans = [
            uniform_exact_plan(3),
            radii_accumulation(make_family("convline"), 3),
            radii_unbounded_delta(make_family("intline"), 3),
            radii_ultrametric(make_family("dendro", 7, 10), 4),
        ]
        for plan in plans:
            report = verify_projection(plan)
            assert report.ok, plan.case


# the ultrametric families of SUITE_PLANS, by name: (family builder, pair count)
ULTRA_SUITE = {
    "dendro:7:10": (lambda: make_family("dendro", 7, 10), 4),
    "inc-ultra": (increasing_ultrametric_family, 2),
    "late-cluster": (late_cluster_family, 3),
    "late-chain:6": (lambda: late_chain_family(6), 3),
    "harmonic-caterpillar": (harmonic_caterpillar_family, 3),
    **{
        f"dendro:{seed}:10": (lambda seed=seed: make_family("dendro", seed, 10), 4)
        for seed in (*range(1, 11), *range(101, 106))
    },
}

# the exact plans that the tests here and in test_acceptance build, by name
SUITE_PLANS = {
    "uniform:1 x2": lambda: uniform_exact_plan(2),
    "uniform:1 x3": lambda: uniform_exact_plan(3),
    "uniform:1 x4": lambda: uniform_exact_plan(4),
    "uniform:1 x10": lambda: uniform_exact_plan(10),
    "convline accum": lambda: radii_accumulation(make_family("convline"), 3),
    "star accum": lambda: radii_accumulation(star_family(), 3),
    "intline udelta": lambda: radii_unbounded_delta(make_family("intline"), 3),
    "intline udelta x5": lambda: radii_unbounded_delta(make_family("intline"), 5),
    "geomline udelta": lambda: radii_unbounded_delta(make_family("geomline"), 5),
    "geo-ultra udelta": lambda: radii_unbounded_delta(unbounded_ultrametric_family(), 3),
    "uniform halves": lambda: make_plan(make_family("uniform", 1), range(1, 8), [F(1, 2)] * 7),
    **{
        name: lambda make=make, n_pairs=n_pairs: radii_ultrametric(make(), n_pairs)
        for name, (make, n_pairs) in ULTRA_SUITE.items()
    },
}


def random_exact_plans(seed: int) -> list[EmbeddingPlan]:
    """Seeded uniform, convline, udelta and dendro plans."""
    rng = random.Random(seed)
    plans = [
        radii_ultrametric(make_family("uniform", rand_fraction(rng)), rng.randint(1, 8)),
        radii_accumulation(make_family("convline"), rng.randint(1, 5)),
        radii_unbounded_delta(make_family(rng.choice(("intline", "geomline"))), rng.randint(1, 8)),
    ]
    with contextlib.suppress(HorizonExhausted):
        family = make_family("dendro", rng.randrange(100), rng.randint(4, 12))
        plans.append(radii_ultrametric(family, rng.randint(1, 6)))
    return plans


# inexact plans of the bounded and unbounded builders
INEXACT_PLANS = [
    lambda: radii_bounded_separated(make_family("remark", 5), 3),
    lambda: radii_unbounded(make_family("intline"), 4),
    lambda: radii_bounded_separated(make_family("uniform", F(2, 3)), 3),
    lambda: radii_bounded_separated(make_family("remark", 3), 4),
    lambda: radii_bounded_separated(parse_family("dendro:1:4"), 4),
    lambda: radii_bounded_separated(make_family("uniform", 1), 2),
]


def random_inexact_plans(seed: int) -> list[EmbeddingPlan]:
    """Seeded bounded plans on remark and uniform families and unbounded
    plans on lines and remark:1, each with at least one pair."""
    rng = random.Random(seed)
    return [
        radii_bounded_separated(make_family("remark", rng.randint(2, 6)), rng.randint(1, 8)),
        radii_bounded_separated(make_family("uniform", rand_fraction(rng)), rng.randint(1, 8)),
        radii_unbounded(make_family(rng.choice(("intline", "geomline"))), rng.randint(1, 6)),
        radii_unbounded(make_family("remark", 1), rng.randint(1, 3)),
    ]


def random_linfty_inputs(rng: random.Random, plan: EmbeddingPlan):
    """A partition of the plan's pairs, one coefficient per block, and a
    prefix of the plan, which the partition may overrun."""
    k_blocks = rng.randint(1, 3)
    coeffs = [rand_fraction(rng, signed=True) if rng.random() < 0.8 else F(0) for _ in range(k_blocks)]
    window = prefix(plan, rng.randint(1, plan.pair_count) if plan.pair_count else 0)
    return IndexPartition.round_robin(k_blocks, plan.pair_count), coeffs, window


class TestSparseRowsAgainstDenseRows:
    """The verifiers against the point-by-point references in ``oracles``."""

    @pytest.mark.parametrize("name", sorted(SUITE_PLANS))
    def test_suite_plans(self, name):
        plan = SUITE_PLANS[name]()
        assert plan.exact
        assert verify_projection(plan) == verify_projection_reference(plan)
        assert verify_projection(plan).ok
        rng = random.Random(name)
        for _ in range(4):
            part, coeffs, window = random_linfty_inputs(rng, plan)
            assert verify_linfty_isometry(window, part, coeffs) == verify_linfty_reference(
                window, part, coeffs
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_plans(self, seed):
        rng = random.Random(seed)
        for plan in random_exact_plans(seed):
            assert verify_projection(plan) == verify_projection_reference(plan), plan.case
            part, coeffs, window = random_linfty_inputs(rng, plan)
            assert verify_linfty_isometry(window, part, coeffs) == verify_linfty_reference(
                window, part, coeffs
            ), plan.case

    @staticmethod
    def _basis_fails_rows_hold(plan):
        assert not plan.exact
        report = verify_projection(plan)
        assert report == verify_projection_reference(plan)
        assert (report.basis_reproduced, report.lipschitz_ok) == (False, True)

    @pytest.mark.parametrize("plan", INEXACT_PLANS)
    def test_inexact_suite_plans_fail_the_basis_alone(self, plan):
        self._basis_fails_rows_hold(plan())

    @pytest.mark.parametrize("seed", range(6))
    def test_inexact_seeded_and_prime_plans_fail_the_basis_alone(self, seed):
        for plan in random_inexact_plans(seed) + [p for p in prime_pairs_plans(seed) if not p.exact]:
            self._basis_fails_rows_hold(plan)

    @pytest.mark.parametrize("plan", INEXACT_PLANS)
    def test_inexact_plans_in_the_dual(self, plan):
        plan = plan()
        rng = random.Random(plan.family.label)
        for _ in range(6):
            part, coeffs, window = random_linfty_inputs(rng, plan)
            assert verify_linfty_isometry(window, part, coeffs) == verify_linfty_reference(
                window, part, coeffs
            )

    @pytest.mark.parametrize("name", ["uniform:1 x3", "dendro:7:10", "convline accum"])
    @pytest.mark.parametrize("where", ["centre", "other centre", "base"])
    def test_a_corrupted_bump_fails_on_both_routes(self, name, where, monkeypatch):
        # the library reads the plan's integer pair rows (times plan.scale),
        # the references read the oracles' bump_eval: both move by the same shift
        plan = SUITE_PLANS[name]()
        n = 2
        bump = oracles.bump_eval
        seventh = -(-plan.int_dist[2 * n - 1][2 * n] // 7)  # about rho(x_2n, x_2n+1) / 7
        if where == "centre":  # g_2n at x_2n moves, so r(e_n) is no longer e_n
            target, shift = (2 * n, 2 * n - 1), seventh
        elif where == "other centre":  # g_2n turns on at x_2, so r(e_1) gains an e_n term
            target, shift = (2 * n, 1), seventh
        else:  # f_n(base) moves farther from f_n(x_2n) than rho(x_1, x_2n)
            r_scaled = int(plan.r[2 * n - 1] * plan.scale)  # exact: scale clears r's denominators
            target, shift = (2 * n, 0), r_scaled + plan.int_dist[0][2 * n - 1] + plan.scale
        rows = list(plan.pair_rows)
        row = rows[target[1]] = dict(rows[target[1]])
        row[n] = row.get(n, 0) + shift  # f_n = g_2n - g_2n+1 moves with g_2n
        object.__setattr__(plan, "pair_rows", tuple(rows))

        def corrupted(plan_, position, p):
            value = bump(plan_, position, p)
            return value + F(shift, plan.scale) if plan_ is plan and (position, p) == target else value

        monkeypatch.setattr(oracles, "bump_eval", corrupted)
        report = verify_projection(plan)
        assert report == verify_projection_reference(plan)
        with pytest.raises(AssertionError, match="pair rows"):  # never a value from rows that fail
            verify_l1_isometry(plan, [1] * plan.pair_count)
        if where != "base":
            assert not report.basis_reproduced
            part = IndexPartition.round_robin(2, plan.pair_count)
            assert verify_linfty_isometry(plan, part, [1, -1]) == verify_linfty_reference(
                plan, part, [1, -1]
            )
        else:
            assert report.basis_reproduced and not report.lipschitz_ok

    @pytest.mark.parametrize("name", ["uniform:1 x3", "dendro:7:10", "geomline udelta"])
    def test_plan_pairs_are_fetched_once(self, name):
        source = SUITE_PLANS[name]()
        asked: Counter = Counter()

        def counting(i, j):
            asked[i, j] += 1
            return source.family.oracle(i, j)

        family = dataclasses.replace(source.family, oracle=counting)
        plan = make_plan(family, source.x_idx, source.r)
        part = IndexPartition.round_robin(2, plan.pair_count)
        verify_linfty_isometry(plan, part, [1, F(-1, 2)])
        verify_projection(plan)
        verify_l1_isometry(plan, [1] * plan.pair_count)
        assert asked == Counter(itertools.combinations(plan.x_idx, 2))


class _Reached(Exception):
    pass


class TestL1ByRows:
    """``verify_l1_isometry`` reads the plan's pair rows; transport and the LP
    are the independent routes it is held to."""

    def _agrees(self, plan, rng):
        for length in (1, plan.pair_count):
            coeffs = [rand_fraction(rng, signed=True) for _ in range(length)]
            expected = sum(abs(c) for c in coeffs)
            assert verify_l1_isometry(plan, coeffs) == expected
            assert free_norm(l1_combination(plan, coeffs), plan.space()).value == expected
        coeffs = [rand_fraction(rng, signed=True) for _ in range(min(2, plan.pair_count))]
        expected = sum(abs(c) for c in coeffs)
        assert free_norm_lp(l1_combination(plan, coeffs), plan.space()).value == expected
        assert verify_l1_isometry(plan, coeffs) == expected

    @pytest.mark.parametrize("name", sorted(SUITE_PLANS))
    def test_suite_plans(self, name):
        self._agrees(SUITE_PLANS[name](), random.Random(name))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_and_prime_plans(self, seed):
        rng = random.Random(seed)
        for plan in random_exact_plans(seed) + [p for p in prime_pairs_plans(seed) if p.exact]:
            if plan.pair_count:
                self._agrees(plan, rng)

    def test_transport_is_never_reached(self, monkeypatch, capsys):
        plans = {name: build() for name, build in SUITE_PLANS.items()}

        def refuse(*args, **kwargs):
            raise _Reached

        assert not hasattr(constructions, "free_norm")
        for module, name in ((flow, "min_cost_transport"), (norm_engine, "min_cost_transport"),
                             (norm_engine, "free_norm"), (cli, "free_norm")):
            monkeypatch.setattr(module, name, refuse)
        for name, plan in plans.items():
            assert verify_l1_isometry(plan, [F(-1, 3)] * plan.pair_count) == F(plan.pair_count, 3), name
        argv = ["verify", "--family", "uniform:1", "--case", "ultra", "--N", "12", "--coeffs", "[1,-2,3]"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == '{"l1_norm": "6", "exact": true}\n'

    def test_errors_keep_their_order(self):
        inexact = radii_bounded_separated(make_family("remark", 5), 3)
        with pytest.raises(ExactnessRequired, match=r"^the tight pair condition r_2n \+ r_2n\+1 = rho is needed$"):
            verify_l1_isometry(inexact, [1] * (inexact.pair_count + 1))
        plan = uniform_exact_plan(3)
        object.__setattr__(plan, "pair_rows", tuple({} for _ in plan.pair_rows))
        with pytest.raises(InvalidFamilyParameters, match="^4 coefficients for a plan of 3 pairs$"):
            verify_l1_isometry(plan, [1] * 4)  # the count is checked before any row
        with pytest.raises(AssertionError):
            verify_l1_isometry(plan, [1] * 3)
        # exact pairs (2, 3) and (4, 5) on a family whose rho(1, 3) breaks the triangle
        family = _custom_family("broken", lambda i, j: F(3) if (i, j) == (1, 3) else F(1))
        broken = make_plan(family, range(1, 6), [0] + [F(1, 2)] * 4)
        assert broken.exact
        expected = _space_or_error(lambda: validate_metric(broken.dist))
        assert expected[0] is TriangleViolation
        assert _space_or_error(lambda: verify_l1_isometry(broken, [1, -1])) == expected


class TestIntegerPlanKernel:
    """The plan's one exact integer scaling against the Fraction references."""

    @pytest.mark.parametrize("seed", range(4))
    def test_prime_denominators_are_not_rounded(self, seed):
        rng = random.Random(seed)
        for plan in prime_pairs_plans(seed):
            assert plan.scale.bit_length() > _SCAN_BITS
            report = verify_projection(plan)
            assert report == verify_projection_reference(plan)
            assert (report.basis_reproduced, report.lipschitz_ok) == (plan.exact, True)
            k_blocks = rng.randint(1, 3)
            coeffs = [F(rng.randint(-9, 9), p) for p in primes_above(rng.randint(20, 90), k_blocks)]
            part = IndexPartition.round_robin(k_blocks, plan.pair_count)
            assert verify_linfty_isometry(plan, part, coeffs) == verify_linfty_reference(plan, part, coeffs)
            for _ in range(3):
                part, coeffs, window = random_linfty_inputs(rng, plan)
                assert verify_linfty_isometry(window, part, coeffs) == verify_linfty_reference(
                    window, part, coeffs
                )

    @pytest.mark.parametrize("seed", range(6))
    def test_nudged_radii_fail_at_the_reference_pair(self, seed):
        rng = random.Random(seed)
        for plan in random_exact_plans(seed) + prime_pairs_plans(seed):
            for _ in range(4):
                r = list(plan.r)
                for k in rng.sample(range(plan.n_points), min(plan.n_points, rng.randint(1, 3))):
                    r[k] += F(1, rng.choice((3, 10**6 + 3, 2**70)))
                expected = separation_reference(plan.family, plan.x_idx, r)
                if expected is None:
                    make_plan(plan.family, plan.x_idx, r)
                    continue
                with pytest.raises(SeparationViolation) as info:
                    make_plan(plan.family, plan.x_idx, r)
                found = info.value
                assert (found.m, found.n, found.r_sum, found.rho) == expected
                assert type(found.r_sum) is type(found.rho) is F

    def test_pair_rows_are_read_only(self):
        plan = uniform_exact_plan()
        with pytest.raises(TypeError):
            plan.pair_rows[1][1] = 0

    @pytest.mark.parametrize("seed", range(2))
    def test_the_common_denominator_is_capped_before_scaling(self, seed, monkeypatch):
        exact = prime_pairs_plans(seed)[0]
        bits = exact.scale.bit_length()
        monkeypatch.setattr(constructions, "MAX_SCALED_BITS", bits * exact.n_points**2)
        assert make_plan(exact.family, exact.x_idx, exact.r).int_dist == exact.int_dist
        monkeypatch.setattr(constructions, "MAX_SCALED_BITS", bits * exact.n_points**2 - 1)
        with pytest.raises(InvalidFamilyParameters, match=f"more than {bits - 1} bits"):
            make_plan(exact.family, exact.x_idx, exact.r)

    @pytest.mark.parametrize("seed", range(6))
    def test_lin_comb_function_follows_the_bump_definition(self, seed):
        rng = random.Random(seed)
        inexact = [radii_bounded_separated(make_family("remark", 5), 3),
                   radii_unbounded(make_family("intline"), 4)]
        for plan in random_exact_plans(seed) + prime_pairs_plans(seed) + inexact:
            part, coeffs, _ = random_linfty_inputs(rng, plan)
            h = lin_comb_function(plan, part, coeffs)
            assert all(type(v) is F for v in h.values)
            assert h.values == tuple(
                lin_comb_eval_reference(plan, part, coeffs, p) for p in range(plan.n_points)
            )


def _space_or_error(call):
    """The space ``call()`` returns, or the class and witness of its error."""
    try:
        return call()
    except LipfreeError as exc:
        return type(exc), vars(exc)


def _adversarial_module():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "adversarial.py"
    spec = importlib.util.spec_from_file_location("adversarial", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _file_family(tmp_path, dist) -> MetricFamily:
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"dist": dist}))
    return parse_family(f"file:{path}")


def _custom_family(label, oracle, approximate=False) -> MetricFamily:
    return MetricFamily(label=label, oracle=oracle, size=5, approximate=approximate)


class TestPlanSpace:
    """``plan.space()`` is the space, or the error, of the old route
    (``validate_metric_reference``) on the plan's Fractions, checked once."""

    def _agrees(self, plan, monkeypatch) -> bool:
        """Compare the two routes and return whether a certificate accepted the plan.

        The plan's own ints are checked when their scale has at most
        ``_SCAN_BITS`` bits, with no scaling; past that its distances are
        scaled once.  Either way the certificates run at most once."""
        expected = _space_or_error(lambda: oracles.validate_metric_reference(plan.dist, plan.family.approximate))
        calls = {"_scan_ints": [], "_certified": []}
        with monkeypatch.context() as patch:
            for name, seen in calls.items():
                original = getattr(metric_core, name)
                patch.setattr(metric_core, name, lambda *args, seen=seen, f=original: seen.append(args) or f(*args))
            constructions._plan_space.cache_clear()
            found = _space_or_error(plan.space)
        assert found == expected
        on_ints = plan.scale.bit_length() <= _SCAN_BITS
        assert len(calls["_scan_ints"]) == (not on_ints)
        assert len(calls["_certified"]) <= 1
        if not isinstance(found, FiniteMetricSpace):
            return False
        if on_ints:
            assert found.dist is plan.dist and found.ints is plan.int_dist
        return found.certificate in ("line", "ultrametric", "neighbour")

    @pytest.mark.parametrize("name", sorted(SUITE_PLANS))
    def test_suite_plans_are_certified(self, name, monkeypatch):
        assert self._agrees(SUITE_PLANS[name](), monkeypatch)

    @pytest.mark.parametrize("name", sorted(SUITE_PLANS))
    def test_suite_plan_spaces_keep_the_plan_ints(self, name):
        plan = SUITE_PLANS[name]()
        space = plan.space()
        assert_scaled_ints(space, plan.scale)
        assert space.ints is plan.int_dist  # shared, not copied

    @pytest.mark.parametrize("seed", range(3))
    def test_prime_plan_spaces_keep_no_ints(self, seed):
        for plan in prime_pairs_plans(seed):
            assert plan.space().ints is None
            assert_scaled_ints(plan.space(), plan.scale)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_and_prime_plans(self, seed, monkeypatch):
        for plan in random_exact_plans(seed):
            assert self._agrees(plan, monkeypatch)
        for plan in prime_pairs_plans(seed):
            assert plan.scale.bit_length() > _SCAN_BITS  # validate_metric rounds these
            assert self._agrees(plan, monkeypatch)

    def test_float_file_plan_stays_approximate(self, tmp_path, monkeypatch):
        rng = random.Random(15)
        dist = [[0.0] * 12 for _ in range(12)]
        for i, j in itertools.combinations(range(12), 2):
            dist[i][j] = dist[j][i] = 1 + rng.randrange(8) / 8 + rng.randrange(2) / 10
        plan = make_plan(_file_family(tmp_path, dist), range(1, 13), [0] * 12)
        assert self._agrees(plan, monkeypatch)
        assert plan.space().approximate

    def test_even_length_plan_file(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"family": "convline", "x_idx": [1, 2, 3, 5], "r": ["0", "1/2", "0", "0"]}))
        plan = plan_from_json(path.read_text())
        assert plan.n_points == 4 and plan.pair_count == 1
        assert self._agrees(plan, monkeypatch)

    @pytest.mark.parametrize("oracle, approximate, error", [
        (lambda i, j: F(0) if (i, j) == (2, 4) else F(1), False, NegativeOrZeroOffDiagonal),
        (lambda i, j: F(1, 10**10) if (i, j) == (2, 4) else F(1), True, NegativeOrZeroOffDiagonal),
        (lambda i, j: F(3) if (i, j) == (1, 3) else F(1), False, TriangleViolation),
        (lambda i, j: F(2) + F(1, 10**10) if (i, j) == (1, 3) else F(1), True, None),
    ], ids=["zero", "within-tolerance", "broken-triangle", "triangle-within-tolerance"])
    def test_custom_families(self, oracle, approximate, error, monkeypatch):
        plan = make_plan(_custom_family("custom", oracle, approximate), range(1, 6), [0] * 5)
        assert not self._agrees(plan, monkeypatch)
        if error is None:
            assert plan.space().approximate
        else:
            with pytest.raises(error):
                plan.space()

    @pytest.mark.parametrize("convert", [int, float, str], ids=["int", "float", "str"])
    def test_oracle_values_are_read_as_truncate_reads_them(self, convert, monkeypatch):
        # an int, float or string oracle gives the plan, and its space, the
        # Fractions that truncate gives the same family
        family = _custom_family("converted", lambda i, j: convert(2 * (j - i)))
        plan = make_plan(family, range(1, 6), [0] * 5)
        assert self._agrees(plan, monkeypatch)
        assert plan.dist == plan.space().dist == truncate(family, 5).dist
        assert all(type(v) is F for row in plan.space().dist for v in row)

    def test_a_non_rational_oracle_value_is_refused(self):
        family = _custom_family("bad", lambda i, j: "x" if (i, j) == (2, 4) else F(1))
        with pytest.raises(InvalidFamilyParameters, match="distance entries"):
            make_plan(family, range(1, 6), [0] * 5)

    def test_a_metric_no_certificate_accepts_is_scanned(self, tmp_path, monkeypatch):
        mat = _adversarial_module().scanned_matrix(32)
        family = _file_family(tmp_path, [[str(v) for v in row] for row in mat])
        plan = make_plan(family, range(1, 33), [0] * 32)
        assert not self._agrees(plan, monkeypatch)

    def test_the_scanned_plan_is_scaled_once(self, monkeypatch):
        # bench/adversarial.py's plan.space entry: no certificate accepts it
        n = 64
        scanned = validate_metric(_adversarial_module().scanned_matrix(n))
        plan = make_plan(family_from_space(scanned, f"scanned:{n}"), range(1, n + 1), [0] * n)
        assert plan.scale.bit_length() == 26082
        assert not self._agrees(plan, monkeypatch)
        assert plan.space().certificate == "scan"

    @pytest.mark.parametrize("broken, error", [
        (lambda d: {(7, 19): F(0)}, NegativeOrZeroOffDiagonal),
        (lambda d: {(7, 19): F(0), (3, 30): F(0)}, NegativeOrZeroOffDiagonal),
        (lambda d: {(7, 19): d(7, 8) + d(8, 19) + F(1, 2**61 - 1)}, TriangleViolation),
        (lambda d: {(7, 19): F(5), (2, 5): F(9, 2)}, TriangleViolation),
    ], ids=["zero", "two-zeros", "just-broken-triangle", "two-broken-triangles"])
    def test_past_the_scan_bits_the_witness_is_the_reference_one(self, broken, error, monkeypatch):
        base = prime_pairs_family(40)
        defects = broken(base.oracle)
        family = dataclasses.replace(base, oracle=lambda i, j: defects[i, j] if (i, j) in defects else base.oracle(i, j))
        plan = make_plan(family, range(1, 41), [0] * 40)
        assert plan.scale.bit_length() > _SCAN_BITS
        assert not self._agrees(plan, monkeypatch)
        with pytest.raises(error):
            plan.space()

    @pytest.mark.parametrize("x_idx, r", [((1, 2, 3, 5, 6), (0, F(1, 2), 0, 0, 0)),
                                          ((1, 2, 3, 5), (0, F(1, 2), 0, 0))], ids=["odd", "even"])
    def test_lin_comb_function_covers_the_plan(self, x_idx, r):
        plan = make_plan(make_family("convline"), x_idx, r)
        part, coeffs = IndexPartition.round_robin(2, plan.pair_count), [1, F(-1, 2)]
        h = lin_comb_function(plan, part, coeffs)
        assert len(h.values) == plan.n_points
        assert h.values == tuple(lin_comb_eval_reference(plan, part, coeffs, p) for p in range(plan.n_points))


class TestRadiiAccumulation:
    def test_convergent_line_trace(self):
        plan = radii_accumulation(make_family("convline"), 3)
        assert plan.x_idx == (1, 2, 3, 5, 6, 11, 12)
        assert plan.r == (0, F(1, 2), 0, F(1, 20), 0, F(1, 110), 0)
        assert plan.case == "accum-strict"
        assert plan.exact
        assert all(q == 1 for _, q in check_plan(plan).ratios)

    def test_star_equality_case(self):
        plan = radii_accumulation(star_family(), 3)
        assert plan.case == "accum-equality"
        assert plan.x_idx == (1, 2, 3, 4, 5, 6, 7)
        assert plan.r[0] == 0
        assert all(plan.r[i] == star_family().distance(1, i + 1) for i in range(7))
        assert plan.exact

    def test_integer_line_not_convergent(self):
        with pytest.raises(NotConvergent):
            radii_accumulation(make_family("intline"), 2)

    def test_mixed_prefix_takes_strict_subsequence(self):
        # two rays into the limit: cross-ray pairs are additive (equality),
        # same-ray pairs are strict; the greedy must skip the equality pairs
        def oracle(i, j):
            s = lambda n: F(1, 2**n)
            if i == 1:
                return s(j)
            return abs(s(i) - s(j)) if (i % 2) == (j % 2) else s(i) + s(j)

        family = MetricFamily(
            label="mixedline", oracle=oracle,
            bounded=True, converges_to_base=True,
        )
        plan = radii_accumulation(family, 3)
        assert plan.case == "accum-strict"
        assert plan.x_idx == (1, 2, 4, 5, 7, 8, 10)
        assert plan.exact
        assert check_plan(plan).exact


class TestRadiiBoundedSeparated:
    def test_uniform_identity_extraction(self):
        plan = radii_bounded_separated(make_family("uniform", 1), 3)
        assert plan.x_idx == (1, 2, 3, 4, 5, 6, 7)
        assert plan.r == tuple(F(1, 2) * (1 - F(1, n)) for n in range(1, 8))
        assert not plan.exact
        for n, q in check_plan(plan).ratios:
            assert q == 1 - F(1, 4 * n) - F(1, 2 * (2 * n + 1))

    def test_remark5_subsequence(self):
        plan = radii_bounded_separated(make_family("remark", 5), 3)
        assert plan.x_idx == (1, 3, 5, 7, 9, 11, 13)
        report = check_plan(plan)
        for n, q in report.ratios:
            assert q < 1
            assert q > (1 - F(1, 4 * n) - F(1, 2 * (2 * n + 1))) / (1 + F(1, 4 * n))

    def test_lower_bound_chain_on_uniform(self):
        plan = radii_bounded_separated(make_family("uniform", 1), 4)
        for n, q in check_plan(plan).ratios:
            assert q > (1 - F(1, 4 * n) - F(1, 2 * (2 * n + 1))) / (1 + F(1, 4 * n))

    def test_metadata_required_for_small_custom_family(self):
        family = MetricFamily(label="tiny", oracle=lambda i, j: F(1), size=10)
        with pytest.raises(MetadataRequired):
            radii_bounded_separated(family, 2)

    def test_metadata_required_for_oscillating_family(self):
        # distances hop between 7/4 and 9/4: rows never stabilise
        family = MetricFamily(
            label="osc",
            oracle=lambda i, j: F(2) + F((-1) ** j, 4),
            size=200,
            bounded=True,
        )
        with pytest.raises(MetadataRequired):
            radii_bounded_separated(family, 2)

    def test_metadata_required_for_convergent_line(self):
        # convline declares no limit d and its rows 1/(k-1) - 1/(n-1) never stabilise
        with pytest.raises(MetadataRequired):
            radii_bounded_separated(make_family("convline"), 2)


class TestRadiiUnbounded:
    def test_integer_line_greedy_trace(self):
        plan = radii_unbounded(make_family("intline"), 1)
        assert plan.x_idx == (1, 3, 10)
        assert plan.r == (1, 1, 4)

    def test_integer_line_deeper(self):
        plan = radii_unbounded(make_family("intline"), 3)
        assert plan.x_idx == (1, 3, 10, 41, 206, 1237, 8660)
        assert plan.r == (1, 1, 4, 21, 124, 825, 6186)

    def test_geometric_line_trace(self):
        plan = radii_unbounded(make_family("geomline"), 2)
        assert plan.x_idx == (1, 2, 4, 6, 9)
        assert plan.r == (1, 1, 9, 33, 385)

    def test_ratio_bound(self):
        for label in ("intline", "geomline"):
            plan = radii_unbounded(make_family(label), 6)
            for n, q in check_plan(plan).ratios:
                assert q > 1 - F(1, 2 * n)

    def test_uniform_exhausts_horizon(self):
        with pytest.raises(HorizonExhausted):
            radii_unbounded(dataclasses.replace(make_family("uniform", 1), size=300), 1)


class TestRadiiUnboundedDelta:
    def test_integer_line_pairs(self):
        plan = radii_unbounded_delta(make_family("intline"), 3)
        assert plan.x_idx == (1, 2, 3, 6, 7, 14, 15)
        assert plan.r == (0, 0, 1, 0, 1, 0, 1)
        assert plan.exact

    def test_unbounded_ultrametric(self):
        family = unbounded_ultrametric_family()
        # the ultrametric identity pins each pair distance to the larger arm
        for n in range(1, 5):
            assert family.distance(2 * n, 2 * n + 1) == family.distance(1, 2 * n + 1)
        plan = radii_unbounded_delta(family, 4)
        assert plan.exact
        check_plan(plan)

    def test_geomline(self):
        plan = radii_unbounded_delta(make_family("geomline"), 4)
        assert plan.exact
        check_plan(plan)

    def test_bounded_family_rejected(self):
        with pytest.raises(MetadataRequired):
            radii_unbounded_delta(make_family("uniform", 1), 2)


class TestRadiiUltrametric:
    def test_uniform_constant_case(self):
        plan = radii_ultrametric(make_family("uniform", 1), 3)
        assert plan.case == "ultra-constant"
        assert plan.r == (F(1, 2),) * 7
        assert plan.exact
        report = check_plan(plan)
        assert all(q == 1 for _, q in report.ratios)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_random_dendrograms_give_exact_plans(self, seed):
        plan = radii_ultrametric(make_family("dendro", seed, 10), 4)
        assert plan.exact
        assert plan.case == "ultra-decreasing"
        check_plan(plan)
        rng = random.Random(seed)
        coeffs = [rand_fraction(rng, signed=True) for _ in range(plan.pair_count)]
        expected = sum(abs(c) for c in coeffs)
        assert verify_l1_isometry(plan, coeffs) == expected
        assert free_norm(l1_combination(plan, coeffs), plan.space()).value == expected

    def test_caterpillar_classification_deterministic(self):
        a = radii_ultrametric(make_family("dendro", 3, 6, 7), 2)
        b = radii_ultrametric(make_family("dendro", 3, 6, 7), 2)
        assert (a.x_idx, a.r, a.case, a.exact) == (b.x_idx, b.r, b.case, b.exact)
        assert a.case == "ultra-decreasing"

    def test_slow_level_decay_forces_thinning_skips(self):
        # 2-fold decay toward the limit is too slow for consecutive chain
        # elements; the thinning must drop roughly every other one
        from lipfree import DendrogramSpec, dendrogram_ultrametric

        levels = tuple(F(4) + F(4, 2**t) for t in range(14))
        spec = DendrogramSpec(seed=0, leaf_count=15, levels=levels)
        plan = radii_ultrametric(dendrogram_ultrametric(spec), 2)
        assert plan.exact
        check_plan(plan)
        gaps = [b - a for a, b in zip(plan.x_idx, plan.x_idx[1:])]
        assert max(gaps) > 1  # some chain elements were skipped

    def test_increasing_chain_case(self):
        plan = radii_ultrametric(increasing_ultrametric_family(), 2)
        assert plan.case == "ultra-increasing"
        assert plan.exact
        check_plan(plan)

    def test_uniform_cluster_away_from_first_index(self):
        # the only large uniform structure starts at index 5; the constant
        # case must still find it (seeding cliques from realising pairs)
        plan = radii_ultrametric(late_cluster_family(), 3)
        assert plan.case == "ultra-constant"
        assert plan.x_idx == tuple(range(5, 12))
        assert plan.r == (F(1, 2),) * 7
        assert plan.exact

    def test_convline_not_ultrametric(self):
        with pytest.raises(NotUltrametric):
            radii_ultrametric(make_family("convline"), 2)


def random_codes_family(seed: int) -> MetricFamily:
    """Up to 30 leaves at random depth-3..4 paths of a ternary tree, in random order."""
    rng = random.Random(seed)
    depth = rng.randint(3, 4)
    codes = sorted({tuple(rng.randrange(3) for _ in range(depth)) for _ in range(30)})
    rng.shuffle(codes)
    levels = [F(v, 3) for v in sorted(rng.sample(range(2, 60), depth + 1), reverse=True)]
    return ultrametric_from_codes(codes, levels, f"codes:{seed}")


def _outcome(build, family, n_pairs):
    """(case, x_idx, r) of the plan, or the error's class and message."""
    try:
        plan = build(family, n_pairs)
    except LipfreeError as exc:
        return type(exc), str(exc)
    return plan.case, plan.x_idx, plan.r


# (family, scan cut, pair counts): every search stage, every case, budget
# cuts at scans of 20, 24, 64 and 512, and the greedy extension across 512
# leaves.  A cut gives the family that many points; None keeps its own size.
_SWEEP = [
    *((lambda d=d: make_family("uniform", d), 20, range(1, 9)) for d in ("1", "3/2", "2/3", "5/2", "7/3")),
    (lambda: make_family("uniform", 1), None, (3,)),
    (lambda: make_family("dendro", 1, 3), None, (1, 2, 5)),
    (lambda: make_family("dendro", 2, 5), None, (2, 3, 7)),
    (lambda: make_family("dendro", 7, 10), None, (3, 4, 8)),
    (lambda: make_family("dendro", 3, 9, 512), None, (1, 4)),
    *((lambda seed=seed: random_codes_family(seed), None, range(1, 9)) for seed in range(3)),
    (unbounded_ultrametric_family, 24, range(1, 9)),
    (increasing_ultrametric_family, 24, range(1, 9)),
    (late_cluster_family, None, (1, 4, 6)),
    (harmonic_caterpillar_family, 48, range(1, 9)),
]


@pytest.mark.parametrize(
    "build, error",
    [
        # no 65 leaves of a 64-leaf tree fit the shrinking windows
        (lambda: radii_bounded_separated(parse_family("dendro:1:4"), 32), HorizonExhausted),
        (lambda: radii_unbounded_delta(dataclasses.replace(parse_family("intline"), size=5), 3),
         HorizonExhausted),
        (lambda: radii_accumulation(star_family(4), 3), HorizonExhausted),
        # the rows of 1 + 1/min(i, j) stabilise, but each at its own value
        (lambda: radii_bounded_separated(harmonic_caterpillar_family(), 1), MetadataRequired),
    ],
    ids=["bounded-windows", "udelta-size", "accum-size", "bounded-no-limit"],
)
def test_builder_errors(build, error):
    with pytest.raises(error):
        build()


def _outcome_and_fetches(build, family, n_pairs, monkeypatch):
    """``_outcome`` of the build and every ``family.distance`` call it made, in order."""
    calls = []
    distance = MetricFamily.distance
    with monkeypatch.context() as patch:
        patch.setattr(MetricFamily, "distance", lambda self, i, j: calls.append((i, j)) or distance(self, i, j))
        outcome = _outcome(build, family, n_pairs)
    return outcome, calls


class TestBoundedWindows:
    """``radii_bounded_separated`` against the window-by-window loop of
    ``oracles.radii_bounded_separated_reference``: the same plans or errors
    from the same sequence of distance fetches."""

    @pytest.mark.parametrize("label, pair_counts", [
        *((label, range(14)) for label in (
            "remark:2", "remark:3", "remark:4", "remark:5", "remark:6", "uniform:1", "uniform:3/2",
            "uniform:7/3", "dendro:1:4", "dendro:5:3", "convline", "intline")),
        ("uniform:1", (63,)),
    ], ids=lambda value: value if isinstance(value, str) else f"pairs-{value[0]}-{value[-1]}")
    def test_same_plans_errors_and_fetches_as_the_reference(self, label, pair_counts, monkeypatch):
        for n_pairs in pair_counts:
            family = parse_family(label)
            found = _outcome_and_fetches(radii_bounded_separated, family, n_pairs, monkeypatch)
            expected = _outcome_and_fetches(oracles.radii_bounded_separated_reference, family, n_pairs,
                                            monkeypatch)
            assert found == expected, (label, n_pairs)


class TestUltrametricTable:
    """The searches on the fetch-once table against the same searches on
    direct oracle calls (``oracles.radii_ultrametric_reference``)."""

    @pytest.mark.parametrize("make, cut, pair_counts", _SWEEP)
    def test_same_plans_and_errors_as_the_reference(self, make, cut, pair_counts):
        family = make() if cut is None else dataclasses.replace(make(), size=cut)
        for n_pairs in pair_counts:
            assert _outcome(radii_ultrametric, family, n_pairs) == _outcome(
                radii_ultrametric_reference, family, n_pairs
            ), (family.label, n_pairs)

    @pytest.mark.parametrize(
        "family, decreasing",
        [
            (raised_beyond_the_probe(harmonic_caterpillar_family(), 1), True),
            (raised_beyond_the_probe(harmonic_caterpillar_family(), 3), True),
            (raised_beyond_the_probe(increasing_ultrametric_family(), 2), False),
            (raised_beyond_the_probe(increasing_ultrametric_family(), 5), False),
        ],
        ids=lambda value: getattr(value, "label", value),
    )
    def test_same_chains_where_the_rows_disagree(self, family, decreasing):
        # past the probe the rows stop agreeing, so the chains end at x_45
        for length in (3, 9):
            table = _DistanceTable(family, 64)
            chain = _monotone_chain(table, length, decreasing)
            assert chain == monotone_chain_reference(family, 64, length, decreasing)
            assert chain[-1] == 45

    @pytest.mark.parametrize("n_pairs", [1, 3])
    def test_budget_cut_falls_on_the_same_step(self, n_pairs):
        # at scan 208 - 2 * n_pairs the decreasing chain is found on the last
        # of the 20 * scan steps; one more index costs 21 steps more
        family = late_chain_family(22)
        length = 2 * n_pairs + 2
        found = 208 - 2 * n_pairs
        for scan, ends_on_budget in ((found, False), (found + 1, True)):
            table = _DistanceTable(family, scan)
            chain = _monotone_chain(table, length, decreasing=True)
            assert chain == monotone_chain_reference(family, scan, length, decreasing=True)
            assert (chain is None) == ends_on_budget
            cut = dataclasses.replace(family, size=scan)
            assert _outcome(radii_ultrametric, cut, n_pairs) == _outcome(
                radii_ultrametric_reference, cut, n_pairs
            )

    @pytest.mark.parametrize(
        "make, n_pairs",
        [
            (lambda: make_family("uniform", 1), 3),
            (lambda: make_family("dendro", 3, 9, 512), 2),
            (lambda: make_family("dendro", 7, 10), 8),
            (lambda: random_codes_family(0), 5),
            # the decreasing search ends on its step budget, one index short
            # of the chain (as in test_budget_cut_falls_on_the_same_step)
            (lambda: dataclasses.replace(late_chain_family(22), size=207), 1),
        ],
    )
    def test_each_pair_is_fetched_once(self, make, n_pairs, monkeypatch):
        # the probe and the searches ask for each pair at most once; the
        # plan's own separation check, which follows them, is not counted
        family = make()
        asked: Counter = Counter()
        searched: Counter = Counter()

        def counting(i, j):
            asked[min(i, j), max(i, j)] += 1
            return family.oracle(i, j)

        def make_plan_after_the_searches(*args, **kwargs):
            searched.update(asked)
            return make_plan(*args, **kwargs)

        monkeypatch.setattr(constructions, "make_plan", make_plan_after_the_searches)
        counted = dataclasses.replace(family, oracle=counting)
        with contextlib.suppress(HorizonExhausted):
            radii_ultrametric(counted, n_pairs)
        searched = searched or asked.copy()  # no plan: every call was the searches'
        assert max(searched.values()) == 1
        probe = min(40, family.size or 40)
        assert all((i, j) in searched for i in range(1, probe + 1) for j in range(i + 1, probe + 1))
        table_calls = sum(asked.values())
        asked.clear()
        with contextlib.suppress(HorizonExhausted):
            radii_ultrametric_reference(counted, n_pairs)
        assert table_calls < sum(asked.values())


class TestUltrametricProbe:
    """The 40-point probe scales its distances once, runs the certificates and
    Prim's certificate at most once each, and ends as the old pair of calls,
    ``is_ultrametric(validate_metric(probe))``, on the old route."""

    def _outcome(self, family, n_pairs, monkeypatch, old: bool):
        """``_outcome`` of ``radii_ultrametric``, with the probe's space built by
        ``validate_metric_reference`` if ``old``, and how often it scaled, ran
        the certificates and ran Prim's certificate."""
        names = ("_scan_ints", "_certified", "_ultrametric_certificate")
        calls = {name: [] for name in names}
        with monkeypatch.context() as patch:
            if old:
                patch.setattr(constructions, "scaled_space", lambda upper, n, approximate:
                              oracles.validate_metric_reference(metric_core.distance_matrix(upper, n), approximate))
            for name, seen in calls.items():
                original = getattr(metric_core, name)
                patch.setattr(metric_core, name, lambda *args, seen=seen, f=original: seen.append(args) or f(*args))
            found = _outcome(radii_ultrametric, family, n_pairs)
        return found, tuple(len(calls[name]) for name in names)

    @pytest.mark.parametrize("name", sorted(ULTRA_SUITE))
    def test_suite_families_are_accepted_by_prim_once(self, name, monkeypatch):
        make, n_pairs = ULTRA_SUITE[name]
        found, counts = self._outcome(make(), n_pairs, monkeypatch, old=False)
        assert (found, counts) == (self._outcome(make(), n_pairs, monkeypatch, old=True)[0], (1, 1, 1))

    @pytest.mark.parametrize("make, error", [
        (lambda: make_family("convline"), NotUltrametric),
        (lambda: make_family("remark", 3), NotUltrametric),
        # rho(x_1, x_40) raised above the 2 that every other x_j keeps from x_1
        (lambda: dataclasses.replace(harmonic_caterpillar_family(), label="broken-at-40",
                                     oracle=lambda i, j: 1 + F(1, i) + F(int((i, j) == (1, 40)), 10**6)),
         NotUltrametric),
        (lambda: MetricFamily(label="zero", oracle=lambda i, j: F(0) if (i, j) == (3, 7) else F(1), size=50),
         NegativeOrZeroOffDiagonal),
        (lambda: MetricFamily(label="tiny", oracle=lambda i, j: F(1, 10**10) if (i, j) == (3, 7) else F(1),
                              size=50, approximate=True), NegativeOrZeroOffDiagonal),
    ], ids=["convline", "remark:3", "broken-at-40", "zero", "within-tolerance"])
    def test_failing_probes_keep_the_old_witness(self, make, error, monkeypatch):
        found, (scales, certified, prim) = self._outcome(make(), 3, monkeypatch, old=False)
        assert found == self._outcome(make(), 3, monkeypatch, old=True)[0]
        assert found[0] is error
        assert scales == 1 and certified <= 1 and prim <= 1
        if error is NotUltrametric:
            family = make()
            witness = metric_core.is_ultrametric(oracles.truncate_reference(family, min(family.size or 40, 40)))[1]
            assert found[1] == str(NotUltrametric(witness))


class TestTableValues:
    """The table reads a custom oracle's values as ``truncate`` reads them: an
    int, float or string oracle builds the plan of its ``Fraction`` twin."""

    ORACLES = {
        "constant": lambda i, j: 1.0,
        "decreasing": lambda i, j: 1 + 0.5 ** min(i, j),  # a caterpillar
        "increasing": lambda i, j: 2 - 0.5 ** max(i, j),
    }

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("convert", [float, str, F], ids=["float", "str", "fraction"])
    def test_same_plan_as_the_fraction_twin(self, name, convert):
        oracle = self.ORACLES[name]
        plans = [
            radii_ultrametric(MetricFamily(label=name, oracle=values, size=30, ultrametric=True), 2)
            for values in (lambda i, j: convert(oracle(i, j)), lambda i, j: F(oracle(i, j)))
        ]
        assert [(p.case, p.x_idx, p.r, p.dist) for p in plans[:1]] == [(p.case, p.x_idx, p.r, p.dist) for p in plans[1:]]
        assert plans[0].space() == plans[1].space()
        table = _DistanceTable(plans[0].family, 30)
        assert all(type(v) is F for v in table.values(1)[2:])

    def test_int_oracle(self):
        family = MetricFamily(label="ints", oracle=lambda i, j: 2, size=12, ultrametric=True)
        assert radii_ultrametric(family, 2).case == "ultra-constant"
        assert type(_DistanceTable(family, 12).distance(1, 2)) is F

    @pytest.mark.parametrize("value", ["x", None, True], ids=["string", "none", "boolean"])
    def test_a_non_rational_value_is_refused(self, value):
        family = MetricFamily(label="bad", oracle=lambda i, j: value, size=12, ultrametric=True)
        with pytest.raises(InvalidFamilyParameters, match="distance entries"):
            radii_ultrametric(family, 2)


class TestDistinctDistances:
    """``distinct_distances`` lets ``radii_ultrametric`` skip the chain
    searches that too few distinct values cannot fill."""

    @pytest.mark.parametrize(
        "make, pair_counts",
        [
            *((lambda d=d: make_family("uniform", d), range(9)) for d in ("1", "3/2", "7/3")),
            # depth 6 skips only the decreasing search at 3 pairs; depth 7
            # skips none up to 3 pairs and both from 4 on
            (lambda: make_family("dendro", 5, 6), range(9)),
            (lambda: make_family("dendro", 625, 7), range(9)),
            (lambda: make_family("dendro", 3, 9, 512), (1, 4, 5)),
            (lambda: random_codes_family(1), range(1, 6)),
        ],
    )
    def test_same_plans_and_errors_as_without_the_bound(self, make, pair_counts):
        family = make()
        assert family.distinct_distances is not None
        unbounded = dataclasses.replace(family, distinct_distances=None)
        for n_pairs in pair_counts:
            assert _outcome(radii_ultrametric, family, n_pairs) == _outcome(
                radii_ultrametric, unbounded, n_pairs
            ), (family.label, n_pairs)

    def test_no_chain_search_where_the_values_run_short(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("chain search not skipped")

        monkeypatch.setattr(constructions, "_monotone_chain", unreachable)
        for n_pairs in range(1, 9):
            assert radii_ultrametric(make_family("uniform", 1), n_pairs).case == "ultra-constant"
        plan = radii_ultrametric(parse_family("dendro:625:7"), 6)
        assert plan.exact
        check_plan(plan)

    @pytest.mark.parametrize(
        "family",
        [
            *(make_family("dendro", seed, depth) for seed, depth in ((1, 3), (5, 6), (625, 7), (7, 10))),
            make_family("dendro", 3, 9, 512),
            *(random_codes_family(seed) for seed in range(4)),
        ],
        ids=lambda family: family.label,
    )
    def test_the_bound_holds_on_every_pair(self, family):
        leaves = family.size
        values = {family.distance(i, j) for i in range(1, leaves + 1) for j in range(i + 1, leaves + 1)}
        assert len(values) <= family.distinct_distances

    def test_a_known_limit_stops_the_chain_extension(self):
        # with d_limit set the thinning's picks depend only on the chain's
        # prefix; extending the chain to the end of the scan fetched all
        # 130,826 pairs of inc-ultra's 512 points
        family = increasing_ultrametric_family()
        calls = Counter()

        def counting(i, j):
            calls[i, j] += 1
            return family.oracle(i, j)

        plan = radii_ultrametric(dataclasses.replace(family, oracle=counting), 2)
        assert plan.case == "ultra-increasing"
        assert sum(calls.values()) < 20000

    def test_the_stop_hook_reads_each_value_once(self, monkeypatch):
        # with d_limit = 1 the picks are the points 1, 4, 16, 64, 256, so the
        # extension grows the chain to 257 points; rerunning the pass from
        # position 0 before each extension read about 33,000 values
        reads = Counter()
        real = _DistanceTable.distance

        def counting(table, i, j):
            reads[i, j] += 1
            return real(table, i, j)

        monkeypatch.setattr(_DistanceTable, "distance", counting)
        plan = radii_ultrametric(dataclasses.replace(harmonic_caterpillar_family(), d_limit=F(1)), 2)
        assert plan.x_idx == (1, 4, 16, 64, 256)
        assert sum(reads.values()) < 2000

    @pytest.mark.parametrize("decreasing", [True, False])
    def test_the_thinning_follows_the_rule_and_its_prefixes(self, decreasing):
        # values approach the limit slowly, so the windows skip some of them;
        # the extension's stop hook relies on the picks of a prefix being a
        # prefix of the picks
        rng = random.Random(int(decreasing))
        skipped = 0
        for _ in range(300):
            limit = F(rng.randint(1, 8), rng.randint(1, 3))
            gaps, k = [], 1
            for _ in range(rng.randint(1, 30)):
                k += rng.randint(1, 3)
                gaps.append(limit / k)
            values = [limit + g for g in gaps] if decreasing else [None] + [limit - g for g in gaps]
            needed = rng.randint(1, len(values))
            picked = _picks(values, limit, needed, decreasing)
            assert (picked if len(picked) == needed else None) == thinning_reference(values, limit, needed, decreasing)
            skipped += picked != list(range(len(picked)))
            for end in range(len(values) + 1):
                head = _picks(values[:end], limit, needed, decreasing)
                assert head == picked[: len(head)]
        assert skipped > 100


def _picks(values, limit, needed, decreasing):
    return list(itertools.compress(itertools.count(), _thinning(values, limit, needed, decreasing)))


class TestAdmissibility:
    def test_uniform_control(self):
        result = admissibility_lp(make_family("uniform", 1), 6)
        assert result.tau == 1
        assert result.radii[1] + result.radii[2] == 1

    def test_remark2_strictly_below_one(self):
        result = admissibility_lp(make_family("remark", 2), 6)
        assert result.tau == F(38, 39)

    def test_certificate_is_feasible_and_attains_tau(self):
        family = make_family("remark", 3)
        N = 8
        result = admissibility_lp(family, N)
        r = result.radii
        for m in range(1, N + 1):
            for n in range(m + 1, N + 1):
                assert r[m - 1] + r[n - 1] <= family.distance(m, n)
        worst = min(
            (r[2 * n - 1] + r[2 * n]) / family.distance(2 * n, 2 * n + 1)
            for n in range(1, (N - 1) // 2 + 1)
        )
        assert worst == result.tau

    def test_no_pair_slots_marker(self):
        result = admissibility_lp(make_family("uniform", 1), 2)
        assert result.no_pair_slots
        assert result.tau is None

    def test_custom_ordering(self):
        result = admissibility_lp(make_family("uniform", 1), 5, ordering=[5, 4, 3, 2, 1])
        assert result.tau == 1

    @pytest.mark.parametrize("convert", [int, float], ids=["int", "float"])
    def test_oracle_values_are_read_as_fractions(self, convert):
        def family(value):
            return MetricFamily(label="steps", size=9, oracle=lambda i, j: value((i * j) % 3 + 2))

        result = admissibility(family(convert), 9)
        assert result == admissibility(family(F), 9)
        assert all(type(r) is F for r in result.radii)

    def test_bad_ordering(self):
        from lipfree import InvalidFamilyParameters

        with pytest.raises(InvalidFamilyParameters):
            admissibility_lp(make_family("uniform", 1), 3, ordering=[1, 1, 2])

    def test_size_guard(self):
        from lipfree import InvalidFamilyParameters
        from lipfree.constructions import MAX_ADMISSIBILITY_LP_POINTS, MAX_ADMISSIBILITY_POINTS

        with pytest.raises(InvalidFamilyParameters):
            admissibility_lp(make_family("uniform", 1), MAX_ADMISSIBILITY_POINTS + 1)
        with pytest.raises(InvalidFamilyParameters):
            admissibility_lp(make_family("uniform", 1), MAX_ADMISSIBILITY_LP_POINTS + 1)
        with pytest.raises(InvalidFamilyParameters, match=str(MAX_ADMISSIBILITY_POINTS)):
            admissibility(make_family("uniform", 1), MAX_ADMISSIBILITY_POINTS + 1)

    @pytest.mark.parametrize("probe, cap", [(admissibility, constructions.MAX_ADMISSIBILITY_POINTS),
                                            (admissibility_lp, constructions.MAX_ADMISSIBILITY_LP_POINTS)])
    @pytest.mark.parametrize("N", [-1, -3, "cap + 1"])
    def test_N_outside_the_range_is_named(self, probe, cap, N):
        N = cap + 1 if N == "cap + 1" else N
        with pytest.raises(InvalidFamilyParameters, match=rf"^admissibility N must be in 0\.\.{cap}, not {N}$"):
            probe(make_family("uniform", 1), N)
        assert probe(make_family("uniform", 1), 0).no_pair_slots


def _assert_feasible(family, result, order):
    r, N = result.radii, len(order)
    assert min(r) >= 0
    for m in range(N):
        for n in range(m + 1, N):
            assert r[m] + r[n] <= family.distance(order[m], order[n])
    for n in range(1, (N - 1) // 2 + 1):
        i, j = order[2 * n - 1], order[2 * n]
        assert r[2 * n - 1] + r[2 * n] >= result.tau * family.distance(i, j)


class TestCycleAdmissibility:
    """``admissibility`` against the exact LP oracle ``admissibility_lp``."""

    @pytest.mark.parametrize(
        "label",
        [f"remark:{k}" for k in range(1, 7)]
        + ["uniform:1", "convline", "intline", "geomline", "dendro:3:5"],
    )
    def test_tau_equals_the_lp(self, label):
        family = parse_family(label)
        # the LP takes 0.3 s at 22 points
        for N in (3, 6, 11, 22) if label.startswith("remark") else (4, 9, 16):
            result = admissibility(family, N)
            assert result.tau == admissibility_lp(family, N).tau, N
            _assert_feasible(family, result, tuple(range(1, N + 1)))
            assert (result.obstruction is None) == (result.tau == 1)

    def test_tau_equals_the_lp_on_random_orderings(self):
        rng = random.Random(6)
        labels = [f"remark:{k}" for k in range(1, 7)] + ["convline", "intline", "dendro:2:6"]
        for _ in range(40):
            family = parse_family(rng.choice(labels))
            N = rng.randint(3, 12)
            order = rng.sample(range(1, 40), N)
            result = admissibility(family, N, order)
            assert result.tau == admissibility_lp(family, N, order).tau, (family.label, order)
            _assert_feasible(family, result, order)

    def test_tau_equals_the_lp_on_random_metrics(self, tmp_path):
        rng = random.Random(7)
        below_one = 0
        for trial in range(30):
            space = random_metric_space(rng, rng.randint(3, 10))
            path = tmp_path / f"space{trial}.json"
            path.write_text(json.dumps({"dist": [[str(v) for v in row] for row in space.dist]}))
            family = parse_family(f"file:{path}")
            result = admissibility(family, space.n)
            assert result.tau == admissibility_lp(family, space.n).tau, trial
            _assert_feasible(family, result, tuple(range(1, space.n + 1)))
            below_one += result.tau < 1
        assert below_one > 0

    def test_obstruction_on_remark_prefixes_only(self):
        for k in range(1, 7):
            family = make_family("remark", k)
            result = admissibility(family, 10)
            ob = result.obstruction
            assert result.tau < 1 and ob is not None
            upper = sum(family.distance(m, n) for m, n in ob.upper)
            slots = sum(family.distance(2 * n, 2 * n + 1) for n in ob.slots)
            assert upper == result.tau * slots
        assert admissibility(make_family("uniform", 1), 10).obstruction is None

    def test_largest_prefix_runs(self):
        from lipfree.constructions import MAX_ADMISSIBILITY_POINTS

        family = make_family("remark", 2)
        result = admissibility(family, MAX_ADMISSIBILITY_POINTS)
        assert result.tau == F(399, 440)
        assert len(result.radii) == MAX_ADMISSIBILITY_POINTS
        _assert_feasible(family, result, tuple(range(1, MAX_ADMISSIBILITY_POINTS + 1)))

    @pytest.mark.parametrize(
        "corrupt, message",
        [("radius", "separation"), ("upper-edge", "uncovered"), ("slot-edge", "ratio")],
    )
    def test_checks_catch_a_corrupted_certificate(self, monkeypatch, corrupt, message):
        from lipfree import constructions

        solve = constructions._min_ratio_cycle

        def corrupted(w, partner):
            tau, (P, M), (pairs, slots) = solve(w, partner)
            if corrupt == "radius":
                P = list(P)
                P[2] += 2 * tau.denominator * (max(map(max, w)) + 1)  # r_3 > every rho
            elif corrupt == "upper-edge":
                m, n = pairs[0]
                pairs = [(m, n + 1 if n + 1 < len(w) else n - 1)] + pairs[1:]
            else:
                slots = slots[1:]
            return tau, (P, M), (pairs, slots)

        monkeypatch.setattr(constructions, "_min_ratio_cycle", corrupted)
        with pytest.raises(AssertionError, match=message):
            admissibility(make_family("remark", 2), 10)


@pytest.mark.parametrize(
    "builder, label",
    [
        (radii_accumulation, "convline"),
        (radii_bounded_separated, "uniform:1"),
        (radii_unbounded, "intline"),
        (radii_unbounded_delta, "intline"),
        (radii_ultrametric, "uniform:1"),
    ],
)
@pytest.mark.parametrize("n_pairs", [-1, 256])
def test_builders_refuse_pair_counts_outside_the_cap(builder, label, n_pairs):
    # 2 * 256 + 1 points pass MAX_POINTS = 512
    from lipfree import InvalidFamilyParameters

    with pytest.raises(InvalidFamilyParameters):
        builder(make_family(*label.split(":")), n_pairs)


class TestPlanSerialization:
    @pytest.mark.parametrize(
        "label,builder,pairs",
        [
            ("uniform:1", radii_ultrametric, 3),
            ("convline", radii_accumulation, 3),
            ("intline", radii_unbounded_delta, 3),
        ],
    )
    def test_round_trip(self, label, builder, pairs):
        plan = builder(make_family(*label.split(":")), pairs)
        blob = json.dumps(plan_to_json(plan))
        restored = plan_from_json(json.loads(blob))
        assert restored.x_idx == plan.x_idx
        assert restored.r == plan.r
        assert restored.exact == plan.exact
        assert restored.family.label == plan.family.label

    def test_exactness_recomputed_on_load(self):
        plan = uniform_exact_plan(2)
        obj = plan_to_json(plan)
        obj["exact"] = False  # stored flag is not trusted
        assert plan_from_json(obj).exact

    def test_space_family_reads_back_under_a_catalog_label(self):
        space = truncate(make_family("uniform", 1), 5)
        with pytest.raises(TypeError):
            family_from_space(space)  # no default label, which would be no catalog id
        plan = radii_ultrametric(family_from_space(space, "uniform:1"), 2)
        restored = plan_from_json(json.dumps(plan_to_json(plan)))
        assert (restored.x_idx, restored.r) == (plan.x_idx, plan.r)


def test_plan_space_cache_lets_dropped_plans_go():
    family = make_family("uniform", 1)
    refs = []
    for n in range(3, 11):
        plan = make_plan(family, range(1, n + 1), [0] * n)
        plan.space()
        refs.append(weakref.ref(plan))
    del plan
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= 2


class TestLipFunctionsFromPlans:
    def test_lin_comb_function_is_lipschitz_function(self):
        plan = radii_accumulation(make_family("convline"), 3)
        part = IndexPartition.round_robin(2, plan.pair_count)
        h = lin_comb_function(plan, part, [F(1), F(-1, 2)])
        assert h.values[0] == 0
        assert lip_norm(h, plan.space()) <= 1
