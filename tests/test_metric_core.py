import dataclasses
import json
import random
import sys
from collections import Counter
from itertools import combinations
from math import lcm
from fractions import Fraction as F

import pytest

from lipfree import (
    Asymmetric,
    FiniteMetricSpace,
    FreeElement,
    InvalidFamilyParameters,
    LipFunction,
    LipfreeError,
    MetricFamily,
    NegativeOrZeroOffDiagonal,
    TriangleViolation,
    free_element_from_json,
    free_element_to_json,
    is_ultrametric,
    load_space,
    make_family,
    parse_family,
    truncate,
    validate_metric,
)
from lipfree import metric_core
from lipfree.space_catalog import family_from_space
from lipfree.metric_core import (
    _SCAN_BITS,
    FLOAT_TOLERANCE,
    _line_certificate,
    _neighbour_certificate,
    _prim_certificate,
    _scan_ints,
    as_fraction,
    integer_scale,
)
from oracles import (
    assert_scaled_ints,
    dendrogram_lca_bruteforce,
    random_metric_space,
    triangle_scan,
    truncate_reference,
    ultrametric_scan,
    validate_metric_reference,
)


def _scan_matrix(d):
    """The rows of ``d`` scaled together by the one scaler, and their slack."""
    n = len(d)
    flat, _, slack = _scan_ints([v for row in d for v in row])
    return [flat[i * n : (i + 1) * n] for i in range(n)], slack


class TestValidateMetric:
    def test_smallest_nontrivial_metric(self):
        space = validate_metric([[0, 1], [1, 0]])
        assert space.n == 2
        assert space.dist[0][1] == 1

    def test_triangle_violation_with_witness(self):
        with pytest.raises(TriangleViolation) as info:
            validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert (info.value.i, info.value.j, info.value.k) == (0, 1, 2)

    def test_asymmetric(self):
        with pytest.raises(Asymmetric) as info:
            validate_metric([[0, 1], [2, 0]])
        assert (info.value.i, info.value.j) == (0, 1)

    def test_zero_off_diagonal(self):
        with pytest.raises(NegativeOrZeroOffDiagonal):
            validate_metric([[0, 0], [0, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NegativeOrZeroOffDiagonal) as info:
            validate_metric([[1, 1], [1, 0]])
        assert info.value.i == info.value.j == 0

    def test_remark1_truncation_passes_oracle(self):
        space = truncate(make_family("remark", 1), 5)
        # rho(x_k, x_n) = k + n - 1/k on 1-based indices
        for i in range(5):
            for j in range(i + 1, 5):
                assert space.dist[i][j] == (i + 1) + (j + 1) - F(1, i + 1)
        assert triangle_scan(space.dist) is None

    def test_rationals_survive_exactly(self):
        space = validate_metric([["0", "1/3"], ["1/3", 0]])
        assert space.dist[0][1] == F(1, 3)
        assert not space.approximate


BIG_PRIME = 2**61 - 1


def _distinct_primes(count, start):
    found, p = [], start
    while len(found) < count:
        p += 1
        if all(p % d for d in range(2, int(p**0.5) + 1)):
            found.append(p)
    return found


def _big_denominator_matrix(rng, n, kind):
    """Entries in (1, 2] above the diagonal, mirrored, so always a metric.

    ``convline`` entries are 1 + 1/(ab) as in the convergent line;
    ``primes`` gives every pair its own prime denominator; ``mixed`` draws
    from both and from the integers 1 and 2.
    """
    primes = iter(_distinct_primes(n * n, rng.randrange(10**4, 10**5)))
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pick = kind if kind != "mixed" else rng.choice(["convline", "primes", "int"])
            if pick == "convline":
                v = 1 + F(1, rng.randint(1, n) * rng.randint(1, n))
            elif pick == "primes":
                p = next(primes)
                v = 1 + F(rng.randrange(1, p), p)
            else:
                v = F(rng.randint(1, 2))
            d[i][j] = d[j][i] = v
    return d


def _set(d, i, j, value):
    d[i][j] = d[j][i] = value


class TestIntegerKernelParity:
    """The integer scans name the same witness as the reference scans."""

    @pytest.mark.parametrize("kind", ["convline", "primes", "mixed"])
    @pytest.mark.parametrize("seed", range(8))
    def test_triangle_witness_matches_oracle(self, kind, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        d = _big_denominator_matrix(rng, n, kind)
        assert validate_metric(d).dist == tuple(map(tuple, d))
        p, k, q = rng.sample(range(n), 3)
        # tight (accepted at this triple) or over by 1/BIG_PRIME (rejected)
        slack = rng.choice([F(0), F(1, BIG_PRIME)])
        _set(d, p, q, d[p][k] + d[k][q] + slack)
        expected = triangle_scan(d)
        if slack:
            assert expected is not None
        if expected is None:
            validate_metric(d)
        else:
            with pytest.raises(TriangleViolation) as info:
                validate_metric(d)
            assert (info.value.i, info.value.j, info.value.k) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_asymmetry_and_positivity_witnesses(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        d = _big_denominator_matrix(rng, n, "mixed")
        i, j = sorted(rng.sample(range(n), 2))
        d[j][i] += F(1, BIG_PRIME)
        with pytest.raises(Asymmetric) as info:
            validate_metric(d)
        assert (info.value.i, info.value.j) == (i, j)
        _set(d, i, j, F(0))
        with pytest.raises(NegativeOrZeroOffDiagonal) as info:
            validate_metric(d)
        assert (info.value.i, info.value.j) == (i, j)

    @pytest.mark.parametrize("seed", range(12))
    def test_ultrametric_witness_matches_oracle(self, seed):
        rng = random.Random(seed)
        n, depth = rng.randint(4, 14), rng.randint(1, 4)
        primes = _distinct_primes(depth + 1, rng.randrange(10**4, 10**5))
        levels = sorted((1 + F(rng.randrange(1, p), p) for p in primes), reverse=True)
        codes = [tuple(rng.randrange(2) for _ in range(depth)) for _ in range(n)]
        d = dendrogram_lca_bruteforce(codes, levels)
        for _ in range(rng.randint(0, 2)):
            i, j = rng.sample(range(n), 2)
            _set(d, i, j, d[i][j] + rng.choice([1, -1]) * F(1, BIG_PRIME))
        ok, witness = is_ultrametric(FiniteMetricSpace(dist=tuple(map(tuple, d))))
        assert witness == ultrametric_scan(d)
        assert ok == (witness is None)


class TestIntegerScale:
    @pytest.mark.parametrize("seed", range(6))
    def test_values_times_the_lcm(self, seed):
        rng = random.Random(seed)
        values = [
            rng.choice([rng.randint(-50, 50), F(rng.randint(-50, 50), rng.randint(1, 40))])
            for _ in range(rng.randint(1, 30))
        ]
        ints, scale = integer_scale(values)
        assert scale == lcm(*(F(v).denominator for v in values))
        assert all(type(i) is int for i in ints)
        assert ints == [v * scale for v in values]

    @pytest.mark.parametrize("seed", range(6))
    def test_a_bit_cap_refuses_only_past_it(self, seed):
        rng = random.Random(seed)
        values = [F(rng.randint(-50, 50), rng.choice((1, rng.randint(1, 10**6))))
                  for _ in range(rng.randint(1, 30))]
        scale = lcm(*(v.denominator for v in values))
        bits = scale.bit_length()
        assert integer_scale(values, bits) == integer_scale(values) == ([v * scale for v in values], scale)
        with pytest.raises(InvalidFamilyParameters, match=f"^a common denominator of more than {bits - 1} bits$"):
            integer_scale(values, bits - 1)

    def test_ints_and_empty_input(self):
        assert integer_scale([3, -4, 0]) == ([3, -4, 0], 1)
        assert integer_scale([]) == ([], 1)


class TestExponentLimit:
    """An exponent above the integer-string digit limit is refused before
    Fraction builds an integer of that many digits."""

    @pytest.mark.parametrize("text", ["1e{}", "2.5E-{}", " -1e+{} ", "1e{}0000", "1e{}_0"])
    def test_refused_above_the_limit(self, text):
        with pytest.raises(ValueError, match="exponent"):
            as_fraction(text.format(sys.get_int_max_str_digits() + 1))

    def test_accepted_at_the_limit(self):
        limit = sys.get_int_max_str_digits()
        assert as_fraction(f"1e-{limit}") == F(1, 10**limit)
        assert as_fraction("15e-1") == F(3, 2)


def _count_parses(monkeypatch) -> Counter:
    parses: Counter = Counter()

    def counting(value):
        parses[value] += 1
        return as_fraction(value)

    monkeypatch.setattr(metric_core, "as_fraction", counting)
    return parses


class TestParseCache:
    """``validate_metric`` parses each distinct string entry once and takes
    Fraction entries as they are."""

    def test_a_repeated_string_is_parsed_once(self, monkeypatch):
        parses = _count_parses(monkeypatch)
        n = 7
        space = validate_metric([["0" if i == j else "3/2" for j in range(n)] for i in range(n)])
        assert parses == {"0": 1, "3/2": 1}
        assert space == truncate(make_family("uniform", F(3, 2)), n)

    def test_two_spellings_of_one_value_are_symmetric(self):
        space = validate_metric([["0", "1/2"], ["2/4", "0"]])
        assert space.dist == ((0, F(1, 2)), (F(1, 2), 0))

    @pytest.mark.parametrize(
        "rows, named",
        [
            ([["0", "1", "x"], ["y", "0", "1"], ["x", "1", "0"]], "'x'"),
            ([["0", "1", "1"], ["1", "0", None], ["y", "y", "0"]], "None"),
            ([["0", "1/0", "1"], ["1/0", "0", "x"], ["1", "x", "0"]], "ZeroDivisionError"),
        ],
        ids=["string-before-string", "other-type-before-string", "zero-denominator"],
    )
    def test_the_first_bad_entry_in_row_major_order_is_named(self, rows, named):
        with pytest.raises(InvalidFamilyParameters, match=named):
            validate_metric(rows)

    def test_a_repeated_string_over_the_exponent_limit_is_refused(self, monkeypatch):
        parses = _count_parses(monkeypatch)
        big = f"1e{sys.get_int_max_str_digits() + 1}"
        with pytest.raises(InvalidFamilyParameters, match="exponent"):
            validate_metric([["0", big, big], [big, "0", big], [big, big, "0"]])
        assert parses == {"0": 1, big: 1}

    def test_mixed_entries_give_the_space_of_as_fraction(self, monkeypatch):
        rows = [
            [0, "3/2", 1.5, F(3, 2)],
            ["3/2", F(0), "1.5", 2],
            [1.5, "1.5", "0", F(1)],
            [F(3, 2), 2, 1, "0"],
        ]
        expected = FiniteMetricSpace(dist=tuple(tuple(as_fraction(v) for v in row) for row in rows))
        parses = _count_parses(monkeypatch)
        space = validate_metric(rows)
        assert space == expected
        assert all(type(v) is F for row in space.dist for v in row)
        # strings once each, ints and floats at every entry, Fractions never
        assert parses == {"3/2": 1, "1.5": 1, "0": 1, 0: 1, 1.5: 2, 2: 2, 1: 1}


class TestRoundedScans:
    """Common denominators of more than _SCAN_BITS bits: the scans run on
    rounded ints and settle every flagged triple on the Fractions."""

    @staticmethod
    def _prime_line(rng, n, tiny_gap=False):
        # point k sits in (k, k + 1) at a fraction with its own prime denominator,
        # so every triple along the line is tight and every pair's denominator differs
        primes = _distinct_primes(n, rng.randrange(10**4, 10**5))
        pos = [k + F(rng.randrange(1, p), p) for k, p in enumerate(primes)]
        if tiny_gap:
            pos.insert(1, pos[0] + F(1, 2 ** (2 * _SCAN_BITS)))
        d = [[abs(a - b) for b in pos] for a in pos]
        assert _scan_matrix(d)[1] == 1
        return d

    @pytest.mark.parametrize("seed", range(6))
    def test_tight_line_accepted_and_violation_found(self, seed, monkeypatch):
        rng = random.Random(seed)
        d = self._prime_line(rng, 24, tiny_gap=seed % 2 == 1)
        calls = _scan_calls(monkeypatch)
        assert validate_metric(d).dist == tuple(map(tuple, d)) and not calls
        i, j = sorted(rng.sample(range(len(d)), 2))
        if j - i < 2:
            j = i + 2
        _set(d, i, j, d[i][j] + F(1, BIG_PRIME))
        expected = triangle_scan(d)
        assert expected is not None
        with pytest.raises(TriangleViolation) as info:
            validate_metric(d)
        assert (info.value.i, info.value.j, info.value.k) == expected

    def test_rounded_convline_is_certified_without_the_scan(self, monkeypatch):
        calls = _scan_calls(monkeypatch)
        space = truncate(make_family("convline"), 200)
        assert _scan_matrix(space.dist)[1] == 1 and _line_certificate(space.dist)
        assert not calls

    def test_asymmetry_and_positivity_witnesses(self):
        d = self._prime_line(random.Random(1), 24)
        d[7][3] += F(1, BIG_PRIME)
        with pytest.raises(Asymmetric) as info:
            validate_metric(d)
        assert (info.value.i, info.value.j) == (3, 7)
        _set(d, 3, 7, F(0))
        with pytest.raises(NegativeOrZeroOffDiagonal) as info:
            validate_metric(d)
        assert (info.value.i, info.value.j) == (3, 7)

    @pytest.mark.parametrize("seed", range(6))
    def test_ultrametric_witness_matches_oracle(self, seed):
        rng = random.Random(seed)
        # a caterpillar: points a < b branch at depth a, so n - 1 levels occur
        n = 24
        primes = _distinct_primes(n, rng.randrange(10**4, 10**5))
        levels = sorted((1 + F(rng.randrange(1, p), p) for p in primes), reverse=True)
        codes = [(1,) * m + (0,) * (n - m) for m in range(n)]
        d = dendrogram_lca_bruteforce(codes, levels)
        space = FiniteMetricSpace(dist=tuple(map(tuple, d)))
        assert _scan_matrix(space.dist)[1] == 1
        assert is_ultrametric(space) == (True, None)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            _set(d, i, j, d[i][j] + rng.choice([1, -1]) * F(1, BIG_PRIME))
        ok, witness = is_ultrametric(FiniteMetricSpace(dist=tuple(map(tuple, d))))
        assert witness == ultrametric_scan(d)
        assert ok == (witness is None)


    @pytest.mark.parametrize("seed", range(4))
    def test_tight_plane_metric_takes_the_scan(self, seed, monkeypatch):
        rng = random.Random(seed)
        n = 20
        d = _plane_matrix(rng, n)
        rows, slack = _scan_matrix(d)
        assert slack == 1 and not _line_certificate(d) and not _prim_certificate(d)
        assert not _neighbour_certificate(rows, slack)
        tight = [
            (i, j, k)
            for i, j, k in combinations(range(n), 3)
            if d[i][k] == d[i][j] + d[j][k]
        ]
        assert tight
        calls = _scan_calls(monkeypatch)
        assert validate_metric(d).dist == tuple(map(tuple, d)) and len(calls) == 1
        i, j, k = rng.choice(tight)
        _set(d, i, k, d[i][k] + F(1, BIG_PRIME))
        expected = triangle_scan(d)
        assert expected is not None
        with pytest.raises(TriangleViolation) as info:
            validate_metric(d)
        assert (info.value.i, info.value.j, info.value.k) == expected


def _plane_matrix(rng, n):
    """l1 distances of n points in the plane whose coordinates have their own
    prime denominators: many tight triples, and neither a line, an
    ultrametric nor within its ends' nearest-neighbour bound."""
    primes = iter(_distinct_primes(2 * n, rng.randrange(10**4, 10**5)))
    points = [(rng.randrange(8) + F(1, next(primes)), rng.randrange(8) + F(1, next(primes))) for _ in range(n)]
    return [[abs(a - c) + abs(b - e) for c, e in points] for a, b in points]


class TestToleranceScaling:
    """Float input: defects below FLOAT_TOLERANCE pass, defects above fail."""

    @staticmethod
    def _tight_triangle(excess):
        # dist[0][1] = dist[0][2] + dist[2][1] + excess
        return json.dumps({"dist": [[0, 1.5 + excess, 0.75], [1.5 + excess, 0, 0.75], [0.75, 0.75, 0]]})

    def test_triangle_defect_below_tolerance_accepted(self):
        assert float(FLOAT_TOLERANCE) == 1e-9
        space = load_space(self._tight_triangle(1e-10))
        assert space.approximate
        assert space.dist[0][1] > space.dist[0][2] + space.dist[2][1]

    def test_triangle_defect_above_tolerance_rejected(self):
        with pytest.raises(TriangleViolation) as info:
            load_space(self._tight_triangle(1e-8))
        assert (info.value.i, info.value.j, info.value.k) == (0, 2, 1)

    def test_asymmetry_and_positivity_against_tolerance(self):
        with pytest.raises(Asymmetric):
            load_space('{"dist": [[0, 0.50000001], [0.5, 0]]}')
        with pytest.raises(NegativeOrZeroOffDiagonal):
            load_space('{"dist": [[0, 1e-10], [1e-10, 0]]}')
        space = load_space('{"dist": [[1e-10, 0.5], [0.5, 0]]}')
        assert space.dist[0][0] == 0

    def test_asymmetry_within_tolerance_stores_the_upper_triangle(self):
        space = load_space('{"dist": [[0, 0.5, 0.75], [0.5000000001, 0, 0.5], [0.75, 0.4999999999, 0]]}')
        assert space.dist[1][0] == space.dist[0][1] == F(0.5)
        assert space.dist[2][1] == space.dist[1][2] == F(0.5)


def _float_line(rng):
    # tenths break some triangles by ~1e-17 and take the scan; quarters are exact lines
    q = rng.choice((10, 4))
    xs = rng.sample([k / q for k in range(-60, 60)], rng.randint(3, 20))
    return [[abs(a - b) for b in xs] for a in xs]


def _float_ultrametric(rng):
    codes = sorted({tuple(rng.randrange(3) for _ in range(3)) for _ in range(rng.randint(3, 20))})
    rng.shuffle(codes)
    levels = sorted(rng.sample([k / 100 for k in range(1, 900)], 4), reverse=True)
    return [list(map(float, row)) for row in dendrogram_lca_bruteforce(codes, levels)]


def _float_weights(rng):
    n = rng.randint(3, 20)
    d = [[0.0] * n for _ in range(n)]
    for i, k in combinations(range(n), 2):
        _set(d, i, k, 1 + rng.randrange(1000) / 1000)
    return d


class TestFloatCertificates:
    """Float matrices take the certificates too; ``load_space`` returns the
    space the tolerant scan accepts, or raises at its first witness."""

    @pytest.mark.parametrize("make", [_float_line, _float_ultrametric, _float_weights])
    @pytest.mark.parametrize("seed", range(6))
    def test_float_matrices_and_nudged_copies_agree_with_the_scan(self, make, seed):
        rng = random.Random(seed)
        d = make(rng)
        copies = [d]
        for nudge in (FLOAT_TOLERANCE / 2, -FLOAT_TOLERANCE / 2, 2 * FLOAT_TOLERANCE, -2 * FLOAT_TOLERANCE):
            i, k = rng.sample(range(len(d)), 2)
            nudged = [list(row) for row in d]
            _set(nudged, i, k, d[i][k] + float(nudge))
            copies.append(nudged)
        for copy in copies:
            exact = [list(map(F, row)) for row in copy]
            expected = triangle_scan(exact, FLOAT_TOLERANCE)
            if expected is None:
                space = load_space(json.dumps({"dist": copy}))
                assert space.approximate and space.dist == tuple(map(tuple, exact))
            else:
                with pytest.raises(TriangleViolation) as info:
                    load_space(json.dumps({"dist": copy}))
                assert (info.value.i, info.value.j, info.value.k) == expected


class TestMetricFamily:
    def test_indices_are_one_based(self):
        with pytest.raises(InvalidFamilyParameters, match="1-based"):
            make_family("uniform", 1).distance(0, 1)

    def test_indices_past_the_size_are_refused(self):
        family = dataclasses.replace(make_family("uniform", 1), size=5)
        assert family.distance(1, 5) == 1
        with pytest.raises(InvalidFamilyParameters, match="only 5 points"):
            family.distance(1, 6)


def test_lip_function_needs_the_base_point():
    with pytest.raises(ValueError, match="base point"):
        LipFunction(())


class TestTruncate:
    def test_uniform(self):
        space = truncate(make_family("uniform", 1), 3)
        assert all(
            space.dist[i][j] == 1 for i in range(3) for j in range(3) if i != j
        )

    def test_convergent_line(self):
        space = truncate(make_family("convline", ), 4)
        # points 0, 1, 1/2, 1/3 with the absolute difference metric
        values = [F(0), F(1), F(1, 2), F(1, 3)]
        for i in range(4):
            for j in range(4):
                assert space.dist[i][j] == abs(values[i] - values[j])

    def test_remark2_rows(self):
        space = truncate(make_family("remark", 2), 4)
        assert [space.dist[0][j] for j in range(1, 4)] == [1, 1, 1]
        assert [space.dist[1][j] for j in range(2, 4)] == [F(3, 2), F(3, 2)]
        assert space.dist[2][3] == F(5, 3)

    def test_size_guards(self):
        from lipfree import InvalidFamilyParameters
        from lipfree.metric_core import MAX_POINTS

        with pytest.raises(InvalidFamilyParameters):
            truncate(make_family("uniform", 1), 0)
        with pytest.raises(InvalidFamilyParameters):
            truncate(make_family("uniform", 1), MAX_POINTS + 1)
        with pytest.raises(InvalidFamilyParameters):
            truncate(make_family("dendro", 1, 5, 12), 13)

    def test_prefix_consistency(self):
        for label in ["uniform:2", "convline", "intline", "geomline", "remark:3", "dendro:5:6:20"]:
            family = make_family(*label.split(":"))
            small = truncate(family, 6)
            big = truncate(family, 7)
            for i in range(6):
                for j in range(6):
                    assert small.dist[i][j] == big.dist[i][j]


CATALOG_LABELS = (
    "uniform:1", "uniform:3/2", "uniform:7/3", "convline", "intline", "geomline",
    *(f"remark:{k}" for k in range(1, 7)), "dendro:5:5", "dendro:7:7", "dendro:3:9:128",
)


def _outcome(call):
    """The space ``call()`` returns, with its ``approximate`` flag, or its
    error's class, witness and message."""
    try:
        space = call()
    except LipfreeError as exc:
        return type(exc), vars(exc), str(exc)
    return space.dist, space.approximate


def _fetches_and_outcome(route, family, n, monkeypatch):
    """The ``MetricFamily.distance`` calls of ``route(family, n)``, and its ``_outcome``."""
    fetched = []
    distance = metric_core.MetricFamily.distance
    with monkeypatch.context() as patch:
        patch.setattr(metric_core.MetricFamily, "distance",
                      lambda self, i, j: fetched.append((i, j)) or distance(self, i, j))
        return fetched, _outcome(lambda: route(family, n))


def _counted(call, monkeypatch, names=("_scan_ints", "_certified", "_triangle_scan")):
    """``call()`` with the calls of each ``metric_core`` function in ``names``
    counted: its result, and the counts in that order."""
    calls = {name: [] for name in names}
    with monkeypatch.context() as patch:
        for name, seen in calls.items():
            f = getattr(metric_core, name)
            patch.setattr(metric_core, name, lambda *args, seen=seen, f=f: seen.append(args) or f(*args))
        result = call()
    return result, tuple(len(seen) for seen in calls.values())


class TestTruncateRoute:
    """``truncate`` scales the distances it fetches once and certifies or scans
    them once on those ints; it returns the space, or raises the error, that
    the full matrix through the old route gives (``truncate_reference``),
    after the same fetches."""

    def _route(self, family, n, monkeypatch) -> tuple[int, int, int]:
        """Compare the two routes; return how often ``truncate`` scaled its
        distances, ran the certificates and ran the triangle scan."""
        expected = _fetches_and_outcome(truncate_reference, family, n, monkeypatch)
        found, counts = _counted(lambda: _fetches_and_outcome(truncate, family, n, monkeypatch), monkeypatch)
        assert found == expected
        return counts

    @pytest.mark.parametrize("label", CATALOG_LABELS)
    def test_catalog_truncations_are_certified_on_their_ints(self, label):
        family = parse_family(label)
        with pytest.MonkeyPatch.context() as monkeypatch:
            for n in (1, 2, 3, 24, 40, 128):
                if family.size is None or n <= family.size:
                    assert self._route(family, n, monkeypatch) == (1, 1, 0), (label, n)

    @pytest.mark.parametrize("n", [180, 200])
    def test_convline_past_the_scan_bits_is_scaled_once(self, n, monkeypatch):
        family = make_family("convline")
        upper = [family.distance(i + 1, j + 1) for i, j in combinations(range(n), 2)]
        assert integer_scale(upper)[1].bit_length() > _SCAN_BITS
        assert self._route(family, n, monkeypatch) == (1, 1, 0)

    def test_float_file_family_stays_approximate(self, tmp_path, monkeypatch):
        rng = random.Random(15)
        dist = [[0.0] * 12 for _ in range(12)]
        for i, j in combinations(range(12), 2):
            dist[i][j] = dist[j][i] = 1 + rng.randrange(8) / 8 + rng.randrange(2) / 10
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"dist": dist}))
        family = parse_family(f"file:{path}")
        assert self._route(family, 12, monkeypatch) == (1, 1, 0)
        assert truncate(family, 12).approximate

    @pytest.mark.parametrize("oracle, approximate, error, counts", [
        (lambda i, j: F(0) if (i, j) == (2, 4) else F(1), False, NegativeOrZeroOffDiagonal, (1, 0, 0)),
        (lambda i, j: F(-1) if (i, j) == (3, 5) else F(1), False, NegativeOrZeroOffDiagonal, (1, 0, 0)),
        (lambda i, j: F(1, 10**10) if (i, j) == (2, 4) else F(1), True, NegativeOrZeroOffDiagonal, (1, 0, 0)),
        (lambda i, j: F(3) if (i, j) == (1, 3) else F(1), False, TriangleViolation, (1, 1, 1)),
        (lambda i, j: F(2) + F(2, 10**9) if (i, j) == (2, 5) else F(1), True, TriangleViolation, (1, 1, 1)),
        (lambda i, j: F(2) + F(1, 10**10) if (i, j) == (1, 3) else F(1), True, None, (1, 1, 1)),
        (lambda i, j: "x" if (i, j) == (2, 3) else F(1), False, InvalidFamilyParameters, (0, 0, 0)),
        (lambda i, j: True if (i, j) == (2, 3) else F(1), False, InvalidFamilyParameters, (0, 0, 0)),
    ], ids=["zero", "negative", "within-tolerance", "broken-triangle", "broken-beyond-tolerance",
            "triangle-within-tolerance", "not-a-number", "boolean"])
    def test_custom_families(self, oracle, approximate, error, counts, monkeypatch):
        # an uncertified positive matrix is scanned on the ints the certificates saw
        family = MetricFamily(label="custom", oracle=oracle, size=5, approximate=approximate)
        assert self._route(family, 5, monkeypatch) == counts
        if error is None:
            assert truncate(family, 5).approximate
        else:
            with pytest.raises(error):
                truncate(family, 5)

    def test_int_oracle_values_become_fractions(self, monkeypatch):
        family = MetricFamily(label="ints", oracle=lambda i, j: j - i, size=6)
        assert self._route(family, 6, monkeypatch) == (1, 1, 0)
        assert all(type(v) is F for row in truncate(family, 6).dist for v in row)

    def test_a_metric_no_certificate_accepts_is_scanned_on_its_ints(self, monkeypatch):
        # (i mod 4) on a line, plus 1 off the diagonal: no line, no ultrametric,
        # and points 0 and 3 lie farther apart than twice the least distance
        family = MetricFamily(label="mod4", oracle=lambda i, j: F(abs(i % 4 - j % 4) + 1, 3), size=12)
        assert self._route(family, 12, monkeypatch) == (1, 1, 1)

    @staticmethod
    def _prime_family(broken=None):
        """40 points at distances 1 + 1/p, a distinct prime p per pair, whose lcm
        passes the cap within the first pairs; ``broken`` maps pairs to other values."""
        primes = _distinct_primes(40 * 39 // 2, 10**4)
        pairs = dict(zip(combinations(range(1, 41), 2), primes))
        broken = broken or {}
        return MetricFamily(label="primes", size=40,
                            oracle=lambda i, j: broken.get((i, j), 1 + F(1, pairs[i, j])))

    def test_prime_denominators_are_scaled_once(self, monkeypatch):
        # the lcm of the first pairs' primes passes the cap, so the values are floored
        scaled = []
        scale = metric_core.integer_scale
        monkeypatch.setattr(metric_core, "integer_scale",
                            lambda values, bits=None: scaled.append(bits) or scale(values, bits))
        assert self._route(self._prime_family(), 40, monkeypatch) == (1, 1, 0)
        assert scaled == [_SCAN_BITS]

    @pytest.mark.parametrize("broken, error, counts", [
        ({(7, 19): F(0)}, NegativeOrZeroOffDiagonal, (1, 0, 0)),
        ({(7, 19): F(-1, 10007), (3, 30): F(0)}, NegativeOrZeroOffDiagonal, (1, 0, 0)),
        ({(7, 19): 2 + F(1, 10007) + F(1, 10009)}, TriangleViolation, (1, 1, 1)),
        ({(7, 19): F(3), (2, 5): F(5, 2)}, TriangleViolation, (1, 1, 1)),
    ], ids=["zero", "negative-then-zero", "just-broken-triangle", "two-broken-triangles"])
    def test_past_the_scan_bits_the_witness_is_the_reference_one(self, broken, error, counts, monkeypatch):
        family = self._prime_family(broken)
        assert self._route(family, 40, monkeypatch) == counts
        with pytest.raises(error):
            truncate(family, 40)


def _lcm_of_distances(space) -> int:
    return lcm(*(v.denominator for row in space.dist for v in row))


def _weights_matrix(rng, n, entry):
    d = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        d[i][j] = d[j][i] = entry(rng)
    return d


# entries of seeded file matrices: 'p/q' strings, ints, floats (approximate),
# and 1 + 1/p strings for distinct primes p, whose lcm passes _SCAN_BITS at 24 points
FILE_ENTRIES = {
    "strings": lambda rng: str(1 + F(rng.randint(0, 8), 8) / rng.randint(1, 8)),
    "ints": lambda rng: rng.randint(3, 5),
    "floats": lambda rng: 1 + rng.randrange(8) / 8 + rng.randrange(2) / 10,
}


class TestOneRoute:
    """``validate_metric`` and every other entry point take one route: one
    scaling, at most one certificate run, and the space or the error (class,
    witness and message) of ``validate_metric_reference``."""

    @pytest.mark.parametrize("d, witness", [
        ([[0, 0, 1], [0, 1, 1], [1, 1, 0]], (0, 1)),
        ([[0, 1, 1], [1, 1, 1], [1, 1, 0]], (1, 1)),
    ], ids=["off-diagonal-first", "diagonal-first"])
    def test_positivity_witness_order(self, d, witness):
        # row by row, the diagonal entry before the entries of its row
        for check in (validate_metric, validate_metric_reference):
            with pytest.raises(NegativeOrZeroOffDiagonal) as info:
                check(d)
            assert (info.value.i, info.value.j) == witness

    @staticmethod
    def _broken_copies(rng, d):
        """``d`` and copies with one or two defects: an asymmetric, zero,
        negative, nonzero diagonal or triangle-breaking entry."""
        n = len(d)
        yield d
        for _ in range(12):
            e = [list(row) for row in d]
            for _ in range(rng.randint(1, 2)):
                i, j = rng.sample(range(n), 2)
                kind = rng.choice(["asymmetric", "zero", "negative", "diagonal", "long", "tiny"])
                if kind == "asymmetric":
                    e[i][j] += F(rng.choice([1, -1]), rng.choice([BIG_PRIME, 10**10, 3]))
                elif kind == "zero":
                    _set(e, i, j, F(0))
                elif kind == "negative":
                    _set(e, i, j, -e[i][j])
                elif kind == "diagonal":
                    e[i][i] = F(rng.choice([1, -1]), rng.choice([10**10, 7]))
                elif kind == "long":
                    _set(e, i, j, 3 * max(map(max, e)) + F(1, BIG_PRIME))
                else:
                    _set(e, i, j, F(1, 10**10))
            yield e

    @pytest.mark.parametrize("kind", ["convline", "primes", "mixed"])
    @pytest.mark.parametrize("seed", range(6))
    def test_validate_metric_is_the_reference(self, kind, seed, monkeypatch):
        rng = random.Random(seed)
        n = rng.randint(3, 14)
        for d in self._broken_copies(rng, _big_denominator_matrix(rng, n, kind)):
            for approximate in (False, True):
                expected = _outcome(lambda: validate_metric_reference(d, approximate))
                found, (scales, certified, _) = _counted(
                    lambda: _outcome(lambda: validate_metric(d, approximate)), monkeypatch)
                assert found == expected
                assert scales <= 1 and certified <= 1

    @pytest.mark.parametrize("kind", sorted(FILE_ENTRIES) + ["primes"])
    @pytest.mark.parametrize("n", [1, 2, 5, 24, 40])
    def test_load_space_scales_once(self, kind, n, monkeypatch):
        rng = random.Random(n)
        if kind == "primes":
            primes = iter(_distinct_primes(n * n, 10**4))
            d = _weights_matrix(rng, n, lambda _: str(1 + F(1, next(primes))))
        else:
            d = _weights_matrix(rng, n, FILE_ENTRIES[kind])
        text = json.dumps({"dist": d})
        approximate = any(type(v) is float and not v.is_integer() for row in d for v in row)
        space, counts = _counted(lambda: load_space(text), monkeypatch)
        assert counts == (1, 1, 0)
        assert (space.dist, space.approximate) == _outcome(lambda: validate_metric_reference(d, approximate))

    @staticmethod
    def _family_files():
        """(JSON text, ultrametric) of files that reach each verdict of the check."""
        n = 64
        primes = _distinct_primes(n * n, 10**4)
        levels = sorted((1 + F(1, p) for p in primes[:n]), reverse=True)
        caterpillar = dendrogram_lca_bruteforce([(1,) * m + (0,) * (n - m) for m in range(n)], levels)
        prime_weights = _weights_matrix(None, n, lambda _, p=iter(primes): str(1 + F(1, next(p))))
        line = truncate(make_family("convline"), 24).dist
        dendro = truncate(make_family("dendro", 5, 5), n).dist
        for d, ultrametric in ((caterpillar, True), (dendro, True), (line, False),
                               (_weights_matrix(random.Random(3), n, FILE_ENTRIES["strings"]), False),
                               (prime_weights, False)):
            yield json.dumps({"dist": [[str(v) for v in row] for row in d]}), ultrametric

    def test_family_from_space_runs_prim_at_most_once(self, monkeypatch):
        # a space Prim's certificate accepted is an ultrametric, and one that a
        # later check accepted failed it; only a line has Prim still to run
        names = ("_scan_ints", "_certified", "_ultrametric_certificate", "_ultrametric_scan")
        found = []
        for text, ultrametric in self._family_files():
            family, counts = _counted(lambda: family_from_space(load_space(text), "f"), monkeypatch, names)
            space = load_space(text)
            assert family.ultrametric == ultrametric == (ultrametric_scan(space.dist) is None)
            found.append((space.certificate, space.ints is not None, counts))
        assert found == [
            ("ultrametric", False, (1, 1, 1, 0)),  # past the cap: Prim on the floors, then the Fractions
            ("ultrametric", True, (1, 1, 1, 0)),
            ("line", True, (1, 1, 1, 1)),
            ("neighbour", True, (1, 1, 1, 1)),
            # past the cap and no ultrametric: the witness scan floors the entries again
            ("neighbour", False, (2, 1, 1, 1)),
        ]


class TestSpaceInts:
    """A space built from exact ints keeps them: ``ints`` is ``dist`` times
    ``scale``, or None exactly when that scale passes ``_SCAN_BITS``."""

    @pytest.mark.parametrize("label", CATALOG_LABELS)
    def test_catalog_truncations(self, label):
        family = parse_family(label)
        for n in (1, 2, 3, 24, 40, 128):
            if family.size is None or n <= family.size:
                space = truncate(family, n)
                assert space.ints is not None, (label, n)
                assert_scaled_ints(space, _lcm_of_distances(space))

    @pytest.mark.parametrize("n", [180, 200])
    def test_convline_past_the_scan_bits(self, n):
        space = truncate(make_family("convline"), n)
        assert space.ints is None
        assert_scaled_ints(space, _lcm_of_distances(space))

    def test_float_file_truncation_is_scaled_by_its_distances(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"dist": _weights_matrix(random.Random(3), 12, FILE_ENTRIES["floats"])}))
        space = truncate(parse_family(f"file:{path}"), 12)
        assert space.approximate and space.ints is not None
        assert_scaled_ints(space, _lcm_of_distances(space))

    @pytest.mark.parametrize("kind", sorted(FILE_ENTRIES))
    @pytest.mark.parametrize("seed", range(3))
    def test_loaded_files(self, kind, seed):
        rng = random.Random(seed)
        for n in (1, 2, 5, 16, 40):
            d = _weights_matrix(rng, n, FILE_ENTRIES[kind])
            space = load_space(json.dumps({"dist": d}))
            assert space.approximate == any(type(v) is float and not v.is_integer() for row in d for v in row)
            assert space.ints is not None
            assert_scaled_ints(space)

    def test_a_loaded_file_past_the_scan_bits_keeps_no_ints(self):
        primes = iter(_distinct_primes(24 * 23 // 2, 10**4))
        space = load_space(json.dumps({"dist": _weights_matrix(None, 24, lambda _: str(1 + F(1, next(primes))))}))
        assert space.ints is None
        assert_scaled_ints(space)

    def test_random_rational_spaces(self):
        rng = random.Random(11)
        for n in range(1, 12):
            assert_scaled_ints(random_metric_space(rng, n))

    def test_a_hand_built_space_has_no_ints_and_equals_a_validated_one(self):
        space = truncate(make_family("remark", 3), 12)
        bare = FiniteMetricSpace(space.dist, space.approximate)
        assert bare.ints is None and bare.scale is None
        assert bare == space and hash(bare) == hash(space) and repr(bare) == repr(space)


class TestCertificateVerdict:
    """A validated space names the check that accepted it, and ``is_ultrametric``
    answers from that name where it decides: the same verdict and witness as
    on the bare space, with Prim's certificate run at most once in all."""

    @pytest.mark.parametrize("family, n, certificate", [
        ("convline", 40, "line"),
        ("convline", 200, "line"),
        ("uniform:1", 40, "ultrametric"),
        ("dendro:5:5", 64, "ultrametric"),
        ("remark:3", 40, "neighbour"),
        (MetricFamily(label="mod4", oracle=lambda i, j: F(abs(i % 4 - j % 4) + 1, 3), size=12), 12, "scan"),
    ], ids=["convline", "convline-past-the-cap", "uniform", "dendro", "remark", "mod4"])
    def test_verdicts(self, family, n, certificate, monkeypatch):
        family = parse_family(family) if isinstance(family, str) else family
        names = ("_scan_ints", "_ultrametric_certificate", "_ultrametric_scan")
        space, (scales, prim, _) = _counted(lambda: truncate(family, n), monkeypatch, names)
        assert space.certificate == certificate and scales == 1
        bare = FiniteMetricSpace(space.dist, space.approximate)
        assert bare.certificate is None and bare == space and repr(bare) == repr(space)
        found, (rescales, more_prim, scans) = _counted(lambda: is_ultrametric(space), monkeypatch, names)
        assert found == is_ultrametric(bare) == ((w := ultrametric_scan(space.dist)) is None, w)
        assert prim + more_prim <= 1
        assert rescales == (space.ints is None and certificate != "ultrametric")
        assert scans == (certificate != "ultrametric")


class TestIsUltrametric:
    def test_uniform_true(self):
        ok, witness = is_ultrametric(truncate(make_family("uniform", 1), 5))
        assert ok and witness is None

    def test_convline_false_with_witness(self):
        space = truncate(make_family("convline"), 3)
        ok, witness = is_ultrametric(space)
        assert not ok
        assert witness == ultrametric_scan(space.dist)
        x, y, z = witness
        assert space.dist[x][y] > max(space.dist[x][z], space.dist[z][y])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dendrogram_truncations_true(self, seed):
        space = truncate(make_family("dendro", seed, 6, 16), 16)
        ok, _ = is_ultrametric(space)
        assert ok
        assert ultrametric_scan(space.dist) is None


def _random_code_matrix(seed):
    """Leaves at random paths of a ternary tree of depth 2..4, in random order."""
    rng = random.Random(seed)
    depth = rng.randint(2, 4)
    codes = sorted({tuple(rng.randrange(3) for _ in range(depth)) for _ in range(rng.randint(3, 40))})
    rng.shuffle(codes)
    levels = [F(v, rng.randint(1, 9)) for v in sorted(rng.sample(range(10, 90), depth + 1), reverse=True)]
    levels.sort(reverse=True)
    return dendrogram_lca_bruteforce(codes, levels)


def _ultrametric_matrices():
    yield from ([[F(0)]], [[F(0), F(5, 3)], [F(5, 3), F(0)]])  # n = 1 and n = 2
    yield [list(row) for row in truncate(make_family("uniform", 1), 12).dist]
    for seed, depth, leaves in ((1, 3, 16), (2, 6, 30), (5, 9, 40), (8, 30, 40)):
        yield [list(row) for row in truncate(make_family("dendro", seed, depth, leaves), leaves).dist]
    for seed in range(12):
        yield _random_code_matrix(seed)


class TestUltrametricCertificate:
    """Exact matrices are accepted in O(n^2) by Prim's keys; the verdict and
    the witness are always the brute-force scan's."""

    @pytest.mark.parametrize("d", _ultrametric_matrices())
    def test_ultrametrics_pass_and_nudged_copies_agree_with_the_scan(self, d):
        space = FiniteMetricSpace(dist=tuple(map(tuple, d)))
        rows, slack = _scan_matrix(space.dist)
        assert slack == 0 and _prim_certificate(rows)
        assert is_ultrametric(space) == (True, None) and ultrametric_scan(d) is None
        rng = random.Random(len(d))
        for _ in range(3 if len(d) > 2 else 0):
            i, j = rng.sample(range(len(d)), 2)
            nudged = [list(row) for row in d]
            _set(nudged, i, j, d[i][j] + rng.choice([1, -1]) * F(1, BIG_PRIME))
            space = FiniteMetricSpace(dist=tuple(map(tuple, nudged)))
            witness = ultrametric_scan(nudged)
            assert (_prim_certificate(_scan_matrix(space.dist)[0]) is not None) == (witness is None)
            assert is_ultrametric(space) == (witness is None, witness)

    def test_metrics_that_are_not_ultrametrics(self):
        for label in ("convline", "intline", "remark:2"):
            space = truncate(make_family(*label.split(":")), 12)
            assert not _prim_certificate(_scan_matrix(space.dist)[0])
            assert is_ultrametric(space) == (False, ultrametric_scan(space.dist))

    def test_rounded_scale_is_certified_on_fractions(self, monkeypatch):
        # 24 prime levels: the common denominator passes _SCAN_BITS
        n = 24
        primes = _distinct_primes(n, 10**4)
        levels = sorted((1 + F(1, p) for p in primes), reverse=True)
        d = dendrogram_lca_bruteforce([(1,) * m + (0,) * (n - m) for m in range(n)], levels)
        space = FiniteMetricSpace(dist=tuple(map(tuple, d)))
        assert _scan_matrix(space.dist)[1] == 1
        assert _prim_certificate(space.dist)

        def no_scan(*args):
            raise AssertionError("a certified ultrametric needs no scan")

        monkeypatch.setattr(metric_core, "_ultrametric_scan", no_scan)
        assert is_ultrametric(space) == (True, None)


    def test_rounded_non_ultrametric_fails_on_the_integers(self, monkeypatch):
        d = TestRoundedScans._prime_line(random.Random(3), 24)
        space = FiniteMetricSpace(dist=tuple(map(tuple, d)))
        rows_seen = []
        certificate = metric_core._prim_certificate

        def spied(rows):
            rows_seen.append(rows)
            return certificate(rows)

        monkeypatch.setattr(metric_core, "_prim_certificate", spied)
        assert is_ultrametric(space) == (False, ultrametric_scan(d))
        assert len(rows_seen) == 1 and type(rows_seen[0][0][1]) is int


    def test_rounded_ints_alone_do_not_certify(self):
        # defects below 2**-_SCAN_BITS vanish in the rounded ints, which are
        # ultrametrics here; only the Fractions tell
        eps = F(1, 2 ** (2 * _SCAN_BITS) + 1)
        d = [[F(0), 1 + eps, F(1)], [1 + eps, F(0), F(1)], [F(1), F(1), F(0)]]
        space = FiniteMetricSpace(dist=tuple(map(tuple, d)))
        rows, slack = _scan_matrix(space.dist)
        assert slack == 1 and _prim_certificate(rows)
        assert is_ultrametric(space) == (False, ultrametric_scan(d))
        tiny = F(1, 2 ** (_SCAN_BITS + 8))
        d = [[F(0), tiny, 2 * tiny + eps], [tiny, F(0), tiny], [2 * tiny + eps, tiny, F(0)]]
        with pytest.raises(TriangleViolation) as info:
            validate_metric(d)
        assert (info.value.i, info.value.j, info.value.k) == triangle_scan(d)


class TestIsUltrametricOnInts:
    """``is_ultrametric`` reads a space's ints, with no ``_scan_ints``,
    and gives the verdict and witness it gives on the bare Fractions."""

    @staticmethod
    def _spaces():
        for d in _ultrametric_matrices():
            yield validate_metric(d)
            if len(d) > 2:  # a nudged copy takes the scan
                nudged = [list(row) for row in d]
                _set(nudged, 0, len(d) - 1, d[0][-1] + F(1, BIG_PRIME))
                yield validate_metric(nudged)
        for label in ("convline", "intline", "remark:2", "geomline"):
            yield truncate(make_family(*label.split(":")), 12)
        rng = random.Random(7)
        for n in (3, 6, 12):
            yield load_space(json.dumps({"dist": _weights_matrix(rng, n, FILE_ENTRIES["floats"])}))
            yield random_metric_space(rng, n)

    def test_same_verdict_and_witness_with_and_without_ints(self, monkeypatch):
        spaces = list(self._spaces())
        rescales = []
        matrix = metric_core._scan_ints
        monkeypatch.setattr(metric_core, "_scan_ints", lambda *args: rescales.append(args) or matrix(*args))
        verdicts = Counter()
        for space in spaces:
            assert space.ints is not None
            ints = space.ints
            found = is_ultrametric(space)
            assert not rescales
            assert found == is_ultrametric(FiniteMetricSpace(space.dist, space.approximate))
            assert found == ((w := ultrametric_scan(space.dist)) is None, w)
            assert space.ints == ints  # the scan writes to copies
            rescales.clear()
            verdicts[found[0]] += 1
        assert verdicts[True] > 10 and verdicts[False] > 10


def _scan_calls(monkeypatch):
    """Count the calls of validate_metric's triangle scan from now on."""
    calls = []
    scan = metric_core._triangle_scan

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(metric_core, "_triangle_scan", counted)
    return calls


def _line_matrix(positions):
    return [[abs(a - b) for b in positions] for a in positions]


def _line_matrices():
    for label in ("convline", "intline", "geomline"):
        yield [list(row) for row in truncate(make_family(label), 40).dist]
    for seed in range(6):
        rng = random.Random(seed)
        positions = list({F(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(rng.randint(2, 30))})
        rng.shuffle(positions)
        yield _line_matrix(positions)
    yield _line_matrix([F(0), F(-2), F(5, 3), F(-7, 2), F(1), F(9, 4)])  # base point in the middle
    yield _line_matrix([F(0), F(1, 2), F(-3), F(3), F(-1), F(3, 2)])  # two points farthest from the base


class TestLineCertificate:
    """Lines are accepted in O(n^2) by their coordinates from one end; the
    verdict and the witness are always the brute-force scan's."""

    @pytest.mark.parametrize("d", _line_matrices())
    def test_lines_pass_and_nudged_copies_agree_with_the_scan(self, d, monkeypatch):
        rows, slack = _scan_matrix(d)
        assert slack == 0 and _line_certificate(rows)
        calls = _scan_calls(monkeypatch)
        assert validate_metric(d).dist == tuple(map(tuple, d)) and triangle_scan(d) is None
        assert not calls
        rng = random.Random(len(d))
        for _ in range(4):
            i, j = rng.sample(range(len(d)), 2)
            nudged = [list(row) for row in d]
            _set(nudged, i, j, d[i][j] + rng.choice([1, -1]) * F(1, BIG_PRIME))
            assert not _line_certificate(_scan_matrix(nudged)[0])
            expected = triangle_scan(nudged)
            if expected is None:
                assert validate_metric(nudged).dist == tuple(map(tuple, nudged))
            else:
                with pytest.raises(TriangleViolation) as info:
                    validate_metric(nudged)
                assert (info.value.i, info.value.j, info.value.k) == expected

    def test_ultrametrics_are_accepted_without_the_scan(self, monkeypatch):
        calls = _scan_calls(monkeypatch)
        for d in _ultrametric_matrices():
            assert validate_metric(d).dist == tuple(map(tuple, d))
        assert not calls

    def test_other_metrics_take_the_scan(self, monkeypatch):
        calls = _scan_calls(monkeypatch)
        for seed in range(2):
            d = _plane_matrix(random.Random(seed), 12)
            rows, slack = _scan_matrix(d)
            assert not (_line_certificate(d) or _prim_certificate(rows) or _neighbour_certificate(rows, slack))
            assert validate_metric(d).dist == tuple(map(tuple, d))
        assert len(calls) == 2

    def test_approximate_input_passes_the_certificates(self, monkeypatch):
        calls = _scan_calls(monkeypatch)
        text = '{"dist": [[0, 0.5, 1.5], [0.5, 0, 1.0], [1.5, 1.0, 0]]}'
        space = load_space(text)
        assert space.approximate and not calls
        assert space.dist == tuple(tuple(map(F, row)) for row in json.loads(text)["dist"])


def _neighbour_matrices():
    for k in range(1, 7):
        for n in (12, 40, 200):
            yield [list(row) for row in truncate(make_family("remark", k), n).dist]
    for seed in range(6):
        rng = random.Random(seed)
        yield _interval_matrix(rng, rng.randint(3, 30))


def _interval_matrix(rng, n):
    """Seeded n x n matrix with entries in [1, 2], some of them 1 or 2."""
    q = rng.randint(1, 12)
    d = [[F(0)] * n for _ in range(n)]
    for i, k in combinations(range(n), 2):
        _set(d, i, k, F(rng.randint(q, 2 * q), q))
    return d


def _nearest(d):
    """Each point's least distance to another point, and the point attaining it."""
    return [min((v, j) for j, v in enumerate(row) if j != i) for i, row in enumerate(d)]


def _neighbour_nudges(d, eps):
    """Copies of ``d`` that miss the nearest-neighbour bound by ``eps`` at its
    tightest pair (i, k): one raises d(i, k), one lowers the least distance
    from i (or from k, when that is d(i, k) itself) if it stays positive."""
    near = _nearest(d)
    i, k = min(combinations(range(len(d)), 2), key=lambda ik: near[ik[0]][0] + near[ik[1]][0] - d[ik[0]][ik[1]])
    over = near[i][0] + near[k][0] - d[i][k] + eps
    raised = [list(row) for row in d]
    _set(raised, i, k, d[i][k] + over)
    lowered = [list(row) for row in d]
    p, (v, j) = (i, near[i]) if near[i][1] != k else (k, near[k])
    _set(lowered, p, j, v - over)
    return [raised, lowered] if v > over else [raised]


def _agrees_with_the_scan(d):
    expected = triangle_scan(d)
    if expected is None:
        assert validate_metric(d).dist == tuple(map(tuple, d))
    else:
        with pytest.raises(TriangleViolation) as info:
            validate_metric(d)
        assert (info.value.i, info.value.j, info.value.k) == expected
    return expected


class TestNeighbourCertificate:
    """Matrices whose every distance is at most the sum of its ends' least
    distances are accepted in O(n^2); the verdict and the witness of every
    other matrix are the brute-force scan's."""

    @pytest.mark.parametrize("d", _neighbour_matrices())
    def test_bounded_matrices_pass_without_the_scan(self, d, monkeypatch):
        calls = _scan_calls(monkeypatch)
        assert validate_metric(d).dist == tuple(map(tuple, d)) and not calls
        rows, slack = _scan_matrix(d)
        assert slack == (len(d) == 200)  # 200 remark points round
        assert _neighbour_certificate(rows, slack)
        assert not _line_certificate(d) and not _prim_certificate(d)

    @pytest.mark.parametrize("d", [d for d in _neighbour_matrices() if len(d) <= 40])
    def test_nudged_copies_agree_with_the_scan(self, d):
        for nudged in _neighbour_nudges(d, F(1, BIG_PRIME)):
            rows, slack = _scan_matrix(nudged)
            assert not _neighbour_certificate(rows, slack)
            _agrees_with_the_scan(nudged)

    def test_rounded_remark_passes_on_the_ints(self, monkeypatch):
        space = truncate(make_family("remark", 3), 200)
        rows, slack = _scan_matrix(space.dist)
        seen = []
        certificate = metric_core._neighbour_certificate

        def spied(ints, slack):
            seen.append((ints, slack))
            return certificate(ints, slack)

        monkeypatch.setattr(metric_core, "_neighbour_certificate", spied)
        calls = _scan_calls(monkeypatch)
        assert slack == 1 and validate_metric(space.dist) == space and not calls
        assert len(seen) == 1 and seen[0][1] == 1 and type(seen[0][0][0][1]) is int

    @staticmethod
    def _sub_slack_matrix(sign):
        # d(1, 2) misses m_1 + m_2 by a margin below 2**-_SCAN_BITS, where the
        # ints alone, without the slack, meet the bound
        eta, margin = F(1, 3**170), F(1, 2 ** (2 * _SCAN_BITS))
        near, far = 1 + eta, F(3, 2)
        d = [[F(0), near, near, far], [near, F(0), 2 * near + sign * margin, far],
             [near, 2 * near + sign * margin, F(0), far], [far, far, far, F(0)]]
        rows, slack = _scan_matrix(d)
        assert slack == 1 and _neighbour_certificate(rows, 0) and not _neighbour_certificate(rows, 1)
        return d

    def test_sub_slack_margin_takes_the_scan(self, monkeypatch):
        d = self._sub_slack_matrix(-1)
        calls = _scan_calls(monkeypatch)
        assert validate_metric(d).dist == tuple(map(tuple, d)) and len(calls) == 1
        assert triangle_scan(d) is None

    def test_sub_slack_violation_is_found(self):
        d = self._sub_slack_matrix(1)
        assert _agrees_with_the_scan(d) == (1, 0, 2)

    @pytest.mark.parametrize("kind", ["random", "nudged", "rounded"])
    def test_seeded_matrices_agree_with_the_scan(self, kind):
        # 1000 small matrices per kind around the bound: entries in [1, 3],
        # copies nudged past the bound, and the same on a rounded scale
        for seed in range(1000):
            rng = random.Random(seed)
            d = _interval_matrix(rng, rng.randint(3, 8))
            if kind == "random":
                for _ in range(rng.randint(0, 3)):
                    i, k = rng.sample(range(len(d)), 2)
                    _set(d, i, k, d[i][k] + F(rng.randint(0, 4), 4))
            else:
                eps = F(1, BIG_PRIME) if kind == "nudged" else F(rng.choice([1, -1]), 3**170)
                d = rng.choice(_neighbour_nudges(d, eps))
                if kind == "rounded":
                    assert _scan_matrix(d)[1] == 1
            _agrees_with_the_scan(d)


class TestCustomSpaceLoading:
    def test_load_rational_strings(self):
        space = load_space('{"n": 2, "dist": [[0, "3/7"], ["3/7", 0]]}')
        assert space.dist[0][1] == F(3, 7)
        assert not space.approximate

    def test_float_entries_use_tolerant_path(self):
        space = load_space('{"n": 2, "dist": [[0, 0.5000000001], [0.5, 0]]}')
        assert space.approximate
        assert abs(space.dist[0][1] - F(1, 2)) < F(1, 10**8)

    def test_triangular_matrix_rejected(self):
        with pytest.raises(Asymmetric):
            load_space('{"n": 2, "dist": [[0, 1], [0, 0]]}')

    def test_size_mismatch(self):
        from lipfree import InvalidFamilyParameters

        with pytest.raises(InvalidFamilyParameters):
            load_space('{"n": 3, "dist": [[0, 1], [1, 0]]}')


class TestFreeElement:
    def test_normalisation_merges_and_drops(self):
        mu = FreeElement.from_pairs([(2, 1), (1, "1/2"), (2, -1), (0, 5), (3, 0)])
        assert mu.support == ((1, F(1, 2)),)

    def test_zero_element(self):
        assert FreeElement.from_pairs([]).is_zero()
        assert FreeElement.from_pairs([(0, 3)]).is_zero()

    def test_arithmetic(self):
        mu = FreeElement.from_pairs([(1, 1), (2, -2)])
        assert mu.scaled(F(1, 2)).support == ((1, F(1, 2)), (2, -1))
        assert mu.plus(mu.scaled(-1)).is_zero()

    def test_json_round_trip(self):
        mu = FreeElement.from_pairs([(1, "1/3"), (4, -2)])
        blob = json.dumps(free_element_to_json(mu))
        assert free_element_from_json(blob) == mu

    @pytest.mark.parametrize(
        "support",
        [
            ((0, F(1)),),  # the base point
            ((-1, F(1)),),
            ((2, F(1)), (1, F(1))),  # decreasing
            ((1, F(1)), (1, F(2))),  # repeated
            ((1, F(1)), (3, F(1)), (3, F(-1))),
            ((1, F(0)),),
            ((1, F(1)), (2, F(0))),
            ((1, 1),),  # an int, not a Fraction
            ((1, 0.5),),
            ((1, "1/2"),),
            ((1.0, F(1)),),
            (("1", F(1)),),
        ],
    )
    def test_a_support_not_from_pairs_is_refused(self, support):
        with pytest.raises(ValueError):
            FreeElement(support=support)

    def test_from_pairs_scaled_and_plus_are_unaffected(self):
        rng = random.Random(7)
        for _ in range(200):
            pairs = [(rng.randrange(6), F(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(rng.randrange(8))]
            acc = {}
            for p, c in pairs:
                acc[p] = acc.get(p, 0) + c
            mu = FreeElement.from_pairs(pairs)
            assert mu.support == tuple((p, c) for p, c in sorted(acc.items()) if p and c)
            factor = F(rng.randint(-3, 3), rng.randint(1, 3))
            assert mu.scaled(factor).support == tuple((p, c * factor) for p, c in mu.support if factor)
            nu = FreeElement.from_pairs(pairs[::-1][:3])
            total = {p: acc.get(p, 0) for p in acc}
            for p, c in nu.support:
                total[p] = total.get(p, 0) + c
            assert mu.plus(nu).support == tuple((p, c) for p, c in sorted(total.items()) if p and c)


class TestLipFunction:
    def test_base_value_must_vanish(self):
        with pytest.raises(ValueError):
            LipFunction.from_values([1, 0])

    def test_values_exact(self):
        f = LipFunction.from_values([0, "2/3", -1])
        assert f(1) == F(2, 3)


def _rebuilt_ints(space):
    """The ints that the space's kept structure describes."""
    if space.certificate == "line":
        c = space.structure
        return tuple(tuple(abs(a - b) for b in c) for a in c)
    order, keys = space.structure
    rows = [[0] * space.n for _ in range(space.n)]
    for s, t in combinations(range(space.n), 2):  # rho(p_s, p_t) = max(k_{s+1}, ..., k_t)
        rows[order[s]][order[t]] = rows[order[t]][order[s]] = max(keys[s:t])
    return tuple(map(tuple, rows))


class TestKeptStructure:
    """A space keeps what its line or ultrametric certificate found while its
    ints are exact, and the ints follow from it."""

    @pytest.mark.parametrize(
        "label", ["uniform:1:12", "convline:40", "intline:12", "geomline:40", "dendro:3:9:128:40", "remark:3:12"]
    )
    def test_catalog_truncations(self, label):
        name, *params, n = label.split(":")
        space = truncate(make_family(name, *params), int(n))
        if space.certificate in ("line", "ultrametric"):
            assert _rebuilt_ints(space) == space.ints
        else:
            assert space.structure is None

    def test_suite_plan_spaces(self):
        from test_constructions import SUITE_PLANS

        kept = 0
        for make in SUITE_PLANS.values():
            space = make().space()
            if space.certificate in ("line", "ultrametric"):
                assert _rebuilt_ints(space) == space.ints
                kept += 1
            else:
                assert space.structure is None
        assert kept > 0

    def test_exact_float_line_keeps_its_coordinates(self):
        xs = [0.0, 0.125, 0.5, 1.75, 3.0]
        space = load_space(json.dumps({"dist": [[abs(a - b) for b in xs] for a in xs]}))
        assert space.approximate and space.certificate == "line"
        assert _rebuilt_ints(space) == space.ints

    def test_rounded_ints_keep_none(self):
        # convline's common denominator passes _SCAN_BITS at 180 points
        space = truncate(make_family("convline"), 180)
        assert space.certificate == "line" and space.ints is None and space.structure is None
