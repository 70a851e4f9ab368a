import random
from fractions import Fraction as F

import pytest

from lipfree import (
    DendrogramSpec,
    EmptyLevels,
    InvalidFamilyParameters,
    dendrogram_ultrametric,
    is_ultrametric,
    make_family,
    parse_family,
    parse_space,
    truncate,
    ultrametric_from_codes,
)
from lipfree.metric_core import MAX_POINTS
from lipfree.space_catalog import MAX_GEOMLINE_INDEX
from oracles import dendrogram_lca_bruteforce, ultrametric_scan

REMARK_FORMULAS = {
    1: lambda k, n: k + n - F(1, k),
    2: lambda k, n: 2 - F(1, k),
    3: lambda k, n: 2 - F(1, k) + F(1, n),
    4: lambda k, n: 2 - F(1, k) - F(1, 2 * n),
    5: lambda k, n: 1 + F(1, n),
    6: lambda k, n: 1 + F(1, 2 * k) + F(1, n),
}

ALL_FAMILY_LABELS = [
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
    "dendro:9:10",
]


class TestMakeFamily:
    def test_remark5_example(self):
        assert make_family("remark", 5).distance(2, 7) == F(8, 7)

    def test_intline_example(self):
        assert make_family("intline").distance(3, 10) == 7

    def test_remark1_example(self):
        assert make_family("remark", 1).distance(2, 3) == F(9, 2)

    @pytest.mark.parametrize("which", range(1, 7))
    def test_remark_closed_forms_random_pairs(self, which):
        family = make_family("remark", which)
        formula = REMARK_FORMULAS[which]
        rng = random.Random(100 + which)
        for _ in range(100):
            k = rng.randint(1, 400)
            n = rng.randint(k + 1, 500)
            assert family.distance(k, n) == formula(k, n)
            assert family.distance(n, k) == formula(k, n)

    def test_unknown_family(self):
        with pytest.raises(InvalidFamilyParameters):
            make_family("nope")

    def test_bad_uniform(self):
        with pytest.raises(InvalidFamilyParameters):
            make_family("uniform", 0)

    def test_bad_remark(self):
        with pytest.raises(InvalidFamilyParameters):
            make_family("remark", 7)

    @pytest.mark.parametrize("label", ALL_FAMILY_LABELS)
    def test_catalog_truncations_validate_to_64(self, label):
        family = parse_family(label)
        space = truncate(family, 64)  # truncate runs the validator
        assert space.n == 64

    def test_uniform_dk_is_constant(self):
        family = make_family("uniform", F(5, 2))
        assert family.d_limit == F(5, 2)


class TestDendrogram:
    def test_two_leaves_single_merge(self):
        fam = ultrametric_from_codes([(0,), (1,)], [1], "pair")
        assert fam.distance(1, 2) == 1

    def test_balanced_binary_tree(self):
        codes = [(0, 0), (0, 1), (1, 0), (1, 1)]
        levels = [F(1), F(1, 2)]
        fam = ultrametric_from_codes(codes, levels, "balanced")
        expected = dendrogram_lca_bruteforce(codes, levels)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert fam.distance(i + 1, j + 1) == expected[i][j]
        # siblings at 1/2, cross pairs at 1
        assert fam.distance(1, 2) == F(1, 2)
        assert fam.distance(1, 3) == 1
        assert fam.distance(2, 4) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_sixteen_leaves_always_ultrametric(self, seed):
        space = truncate(make_family("dendro", seed, 7, 16), 16)
        assert ultrametric_scan(space.dist) is None
        ok, _ = is_ultrametric(space)
        assert ok

    def test_deterministic_in_seed(self):
        a = truncate(make_family("dendro", 42, 8), 24)
        b = truncate(make_family("dendro", 42, 8), 24)
        assert a.dist == b.dist

    def test_generator_matches_lca_bruteforce(self):
        spec = DendrogramSpec(seed=3, leaf_count=20, levels=(F(2), F(1), F(1, 2)))
        fam = dendrogram_ultrametric(spec)
        # rebuild codes deterministically and compare against the brute force
        space = truncate(fam, 20)
        assert ultrametric_scan(space.dist) is None

    def test_empty_levels(self):
        with pytest.raises(EmptyLevels):
            DendrogramSpec(seed=1, leaf_count=4, levels=())

    def test_levels_must_decrease(self):
        with pytest.raises(InvalidFamilyParameters):
            DendrogramSpec(seed=1, leaf_count=4, levels=(F(1), F(1)))

    def test_leaf_budget(self):
        with pytest.raises(InvalidFamilyParameters):
            DendrogramSpec(seed=1, leaf_count=2, levels=(F(1), F(1, 2)))

    def test_size_caps(self):
        # the largest accepted specs; the default leaf count stops at the cap
        assert parse_family(f"dendro:1:{MAX_POINTS - 1}").size == MAX_POINTS
        assert parse_family(f"dendro:1:2:{MAX_POINTS}").size == MAX_POINTS
        for label in (
            f"dendro:1:{MAX_POINTS}",
            f"dendro:1:2:{MAX_POINTS + 1}",
            "dendro:1:1000000:3",
            "dendro:1:2:1000000",
        ):
            with pytest.raises(InvalidFamilyParameters):
                parse_family(label)


def test_geomline_refuses_indices_past_the_cap():
    family = make_family("geomline")
    assert family.distance(1, MAX_GEOMLINE_INDEX) == 2**MAX_GEOMLINE_INDEX - 2
    with pytest.raises(InvalidFamilyParameters):
        family.distance(1, 10**400)


class TestParsing:
    def test_parse_space_shorthand(self):
        space = parse_space("uniform:1:5")
        assert space.n == 5 and space.dist[1][2] == 1

    def test_parse_space_needs_size(self):
        with pytest.raises(InvalidFamilyParameters):
            parse_space("convline")

    def test_parse_file(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text('{"n": 2, "dist": [[0, "1/2"], ["1/2", 0]]}')
        space = parse_space(f"file:{path}")
        assert space.dist[0][1] == F(1, 2)
        family = parse_family(f"file:{path}")
        assert family.size == 2 and family.distance(1, 2) == F(1, 2)
