import json
import random
from fractions import Fraction as F

import pytest

from lipfree import (
    EmbeddingPlan,
    ExactnessRequired,
    HorizonExhausted,
    IndexPartition,
    MetadataRequired,
    MetricFamily,
    NotConvergent,
    NotUltrametric,
    SeparationViolation,
    admissibility,
    admissibility_lp,
    bump_eval,
    check_plan,
    f_k_eval,
    free_norm_flow,
    free_norm_lp,
    l1_basis,
    l1_combination,
    lin_comb_eval,
    lin_comb_function,
    lip_norm,
    make_family,
    make_plan,
    pair_function,
    pairing,
    parse_family,
    plan_from_json,
    plan_to_json,
    projection_coeffs,
    radii_accumulation,
    radii_bounded_separated,
    radii_ultrametric,
    radii_unbounded,
    radii_unbounded_delta,
    verify_l1_isometry,
    verify_linfty_isometry,
    verify_projection,
)
from oracles import rand_fraction, random_metric_space


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

    def test_prefix_argument(self):
        family = make_family("uniform", 1)
        plan = make_plan(family, range(1, 8), [F(1, 2)] * 7)
        assert len(check_plan(plan, 5).ratios) == 2


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

    def test_f_k_at_pair_centers(self):
        # f_1 hits +r at x_2, -r at x_3
        assert f_k_eval(self.plan, self.partition, 1, 1) == F(1, 2)
        assert f_k_eval(self.plan, self.partition, 1, 2) == -F(1, 2)

    def test_value_at_base_is_zero(self):
        assert f_k_eval(self.plan, self.partition, 1, 0) == 0
        assert lin_comb_eval(self.plan, self.partition, [F(5)], 0) == 0

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
        for p in range(self.plan.n_points):
            expected = sum(
                a * f_k_eval(self.plan, part, k, p) for k, a in enumerate(coeffs, 1)
            )
            assert lin_comb_eval(self.plan, part, coeffs, p) == expected

    def test_single_block_unit_coefficient_reduces_to_f_k(self):
        part = IndexPartition.round_robin(1, 3)
        for p in range(self.plan.n_points):
            assert lin_comb_eval(self.plan, part, [1], p) == f_k_eval(
                self.plan, part, 1, p
            )

    def test_partition_must_be_disjoint(self):
        with pytest.raises(ValueError):
            IndexPartition(blocks=((1, 2), (2, 3)))

    def test_round_robin_covers_all_pairs(self):
        part = IndexPartition.round_robin(3, 10)
        seen = sorted(m for block in part.blocks for m in block)
        assert seen == list(range(1, 11))


class TestLinftyIsometry:
    def test_zero_coefficients(self):
        plan = uniform_exact_plan(3)
        report = verify_linfty_isometry(plan, IndexPartition.round_robin(2, 3), [0, 0], 3)
        assert report.lip == 0

    def test_uniform_exact_plan_attains_max(self):
        plan = uniform_exact_plan(3)
        part = IndexPartition.round_robin(2, 3)
        for coeffs in ([1, -2], [F(1, 3), F(1, 7)], [-1, -1]):
            report = verify_linfty_isometry(plan, part, coeffs, 3)
            assert report.lip == max(abs(F(a)) for a in coeffs)
            assert report.lower <= report.lip <= report.upper

    def test_exact_plan_attains_max_at_every_covering_truncation(self):
        plan = uniform_exact_plan(3)
        part = IndexPartition.round_robin(2, 3)  # blocks {1, 3} and {2}
        for n_pairs in (2, 3):  # both truncations cover each block
            report = verify_linfty_isometry(plan, part, [F(1, 2), -1], n_pairs)
            assert report.lip == 1

    def test_intline_window(self):
        plan = radii_unbounded(make_family("intline"), 4)
        part = IndexPartition.round_robin(1, 4)
        previous = F(0)
        for n_pairs in (1, 2, 3, 4):
            report = verify_linfty_isometry(plan, part, [1], n_pairs)
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
                        report = verify_linfty_isometry(plan, part, coeffs, plan.pair_count)
                        assert report.lip <= max(abs(c) for c in coeffs) <= 1


class TestL1Isometry:
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
            f_n = pair_function(plan, n)
            for m in range(1, 4):
                assert pairing(f_n, l1_basis(plan, m)) == (1 if m == n else 0)

    def test_single_vector(self):
        assert verify_l1_isometry(uniform_exact_plan(2), [1]) == 1

    def test_uniform_mixed_signs(self):
        plan = uniform_exact_plan(3)
        assert verify_l1_isometry(plan, [1, -2, 3]) == 6

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

    def test_random_rational_coefficients(self):
        rng = random.Random(31)
        plan = uniform_exact_plan(4)
        for _ in range(20):
            coeffs = [rand_fraction(rng, signed=True) for _ in range(4)]
            expected = sum(abs(c) for c in coeffs)
            assert verify_l1_isometry(plan, coeffs) == expected


class TestProjection:
    def test_base_point_gets_zero_vector(self):
        plan = uniform_exact_plan(3)
        assert projection_coeffs(plan, 0) == (0, 0, 0)

    def test_pair_center_gets_its_radius(self):
        plan = uniform_exact_plan(3)
        for n in range(1, 4):
            coeffs = projection_coeffs(plan, 2 * n - 1)  # label of position 2n
            expected = tuple(
                plan.r[2 * n - 1] if m == n else F(0) for m in range(1, 4)
            )
            assert coeffs == expected

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

    def test_requires_exactness(self):
        with pytest.raises(ExactnessRequired):
            verify_projection(radii_bounded_separated(make_family("uniform", 1), 2))


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
        plan = radii_bounded_separated(make_family("remark", 5), 3, horizon=3000)
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
            radii_bounded_separated(family, 2, horizon=50)

    def test_metadata_required_for_oscillating_family(self):
        # distances hop between 7/4 and 9/4: rows never stabilise
        family = MetricFamily(
            label="osc",
            oracle=lambda i, j: F(2) + F((-1) ** j, 4),
            bounded=True,
        )
        with pytest.raises(MetadataRequired):
            radii_bounded_separated(family, 2, horizon=200)

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
            radii_unbounded(make_family("uniform", 1), 1, horizon=300)


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
        assert verify_l1_isometry(plan, coeffs) == sum(
            abs(c) for c in coeffs
        )

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
        # distances to later points grow toward 2: rows are increasing
        family = MetricFamily(
            label="inc-ultra",
            oracle=lambda i, j: F(2) - F(1, 2 ** (j - 1)),
            bounded=True,
            ultrametric=True,
            d_limit=F(2),
        )
        plan = radii_ultrametric(family, 2)
        assert plan.case == "ultra-increasing"
        assert plan.exact
        check_plan(plan)

    def test_uniform_cluster_away_from_first_index(self):
        # the only large uniform structure starts at index 5; the constant
        # case must still find it (seeding cliques from realising pairs)
        def oracle(i, j):
            return F(1) if i >= 5 and j >= 5 else F(2)

        family = MetricFamily(
            label="late-cluster", oracle=oracle,
            bounded=True, ultrametric=True, size=40,
        )
        plan = radii_ultrametric(family, 3)
        assert plan.case == "ultra-constant"
        assert plan.x_idx == tuple(range(5, 12))
        assert plan.r == (F(1, 2),) * 7
        assert plan.exact

    def test_convline_not_ultrametric(self):
        with pytest.raises(NotUltrametric):
            radii_ultrametric(make_family("convline"), 2)


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


class TestLipFunctionsFromPlans:
    def test_lin_comb_function_is_lipschitz_function(self):
        plan = radii_accumulation(make_family("convline"), 3)
        part = IndexPartition.round_robin(2, plan.pair_count)
        h = lin_comb_function(plan, part, [F(1), F(-1, 2)])
        assert h.values[0] == 0
        assert lip_norm(h, plan.space()) <= 1
