import contextlib
import io
import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipfree import (
    FreeElement,
    constructions,
    free_norm,
    load_space,
    make_family,
    nonrotund_witness,
    norm_engine,
    parse_space,
    plan_from_json,
    two_point_norm,
)
from lipfree.cli import main
from lipfree.metric_core import FLOAT_TOLERANCE

# an exponent one above the integer-string digit limit
EXPONENT = sys.get_int_max_str_digits() + 1
# within the limit, but its square is not
NINES = "9" * 3000

# files that test_bad_input_never_leaks_a_traceback writes to {tmp}
BAD_FILES = {
    "601-points.json": {"family": "uniform:1", "x_idx": list(range(1, 602)), "r": ["1/2"] * 601},
    "list-case.json": {"family": "uniform:1", "x_idx": [1, 2, 3], "r": ["1/2"] * 3, "case": ["x"]},
    "exponent-radius.json": {
        "family": "uniform:1", "x_idx": [1, 2, 3], "r": [f"1e-{EXPONENT}"] * 3,
    },
    "exponent-space.json": {"dist": [[0, f"1e{EXPONENT}"], [f"1e{EXPONENT}", 0]]},
    # radii that pass separation but whose common denominator has about
    # 32000 and 1.2 million bits: the plan refuses to scale its distances by it
    "lcm-20-digits.json": {
        "family": "uniform:1", "x_idx": list(range(1, 512)), "r": [f"1/{10**19 + k}" for k in range(511)],
    },
    "lcm-3000-digits.json": {
        "family": "uniform:1", "x_idx": list(range(1, 129)),
        "r": [f"1/{10**3000 + k}" for k in range(128)],
    },
}


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestExamples:
    def test_two_point(self, run):
        code, out, _ = run(
            "two-point", "--a", "1", "--b", "-1", "--dx0", "1", "--dy0", "1", "--dxy", "1"
        )
        assert code == 0
        assert out == '{"norm": "1"}\n'

    def test_norm(self, run):
        code, out, _ = run(
            "norm",
            "--space", "uniform:1:5",
            "--element", '[{"point":1,"coef":"1"},{"point":2,"coef":"-1"}]',
        )
        assert code == 0
        assert out == '{"norm": "1"}\n'

    def test_verify(self, run):
        code, out, _ = run(
            "verify", "--family", "uniform:1", "--case", "ultra",
            "--N", "12", "--coeffs", "[1,-2,3]",
        )
        assert code == 0
        assert out == '{"l1_norm": "6", "exact": true}\n'


class TestErrors:
    def test_domain_error_exit_code_and_name(self, run):
        code, out, err = run(
            "two-point", "--a", "1", "--b", "1", "--dx0", "1", "--dy0", "1", "--dxy", "5"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("InvalidTriple:")

    def test_validation_error_surfaces_by_name(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "dist": [[0,1,3],[1,0,1],[3,1,0]]}')
        code, _, err = run(
            "norm", "--space", f"file:{path}", "--element", '[{"point":1,"coef":"1"}]'
        )
        assert code == 1
        assert err.startswith("TriangleViolation:")

    def test_float_file_family_is_checked_as_approximate(self, run, tmp_path):
        # the float line breaks a triangle by ~1e-17: norm accepts it as approximate,
        # and construct reaches the ultrametric test instead of a TriangleViolation
        xs = [0.0, 0.1, 0.3, 0.6, 1.0, 1.7]
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"dist": [[abs(a - b) for b in xs] for a in xs]}))
        code, _, _ = run("norm", "--space", f"file:{path}", "--element", '[{"point":5,"coef":"1"}]')
        assert code == 0
        code, out, err = run("construct", "--family", f"file:{path}", "--case", "ultra", "--N", "1")
        assert (code, out) == (1, "")
        assert err.startswith("NotUltrametric:")

    @pytest.mark.parametrize(
        "content",
        [
            '{"dist": [[0, "1/0"], ["1/0", 0]]}',
            '{"dist": [[0, "x"], ["x", 0]]}',
            '{"dist": [[0, Infinity], [Infinity, 0]]}',
            '{"dist": [[0, 1], [1, 0]',
            None,
            '{"dist": [1, 2]}',
            b"\xff\xfe",
        ],
        ids=[
            "zero-denominator", "not-rational", "infinite", "malformed-json", "missing-file",
            "rows-not-lists", "not-utf8",
        ],
    )
    def test_bad_custom_space_is_a_named_error(self, run, tmp_path, content):
        path = tmp_path / "space.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        code, out, err = run(
            "norm", "--space", f"file:{path}", "--element", '[{"point":1,"coef":"1"}]'
        )
        assert code == 1
        assert out == ""
        assert err.startswith("InvalidFamilyParameters:")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("norm", "--element", '[{"pt": 1, "coef": "1"}]'), "InvalidFamilyParameters"),
            (("norm", "--element", '[{"point": 1}]'), "InvalidFamilyParameters"),
            (("norm", "--element", '[{"point": 1, "coef": "x"}]'), "InvalidFamilyParameters"),
            (("norm", "--element", '[{"point": 1, "coef": "1/0"}]'), "InvalidFamilyParameters"),
            (("norm", "--element", '[{"point": "1", "coef": "1"}]'), "InvalidFamilyParameters"),
            (("norm", "--element", '[{"point": -1, "coef": "1"}]'), "InvalidFamilyParameters"),
            (("norm", "--element", '{"point": 1, "coef": "1"}'), "InvalidFamilyParameters"),
            (("norm", "--element", "[1, 2]"), "InvalidFamilyParameters"),
            (("norm", "--element", '[{"point": 1'), "InvalidFamilyParameters"),
            (("norm", "--element", "@/nonexistent/element.json"), "InvalidFamilyParameters"),
            (("norm", "--element", '[{"point": 9, "coef": "1"}]'), "PointOutsideSpace"),
            (("ball-section", "--x", "1", "--y", "9"), "PointOutsideSpace"),
            (("ball-section", "--x", "-1", "--y", "1"), "PointOutsideSpace"),
        ],
        ids=[
            "missing-point", "missing-coef", "coef-not-rational", "coef-zero-denominator",
            "point-not-int", "point-negative", "not-a-list", "items-not-objects",
            "malformed-json", "missing-file", "point-outside-space", "section-point-outside",
            "section-point-negative",
        ],
    )
    def test_bad_element_or_point_is_a_named_error(self, run, argv, error):
        code, out, err = run(*argv[:1], "--space", "uniform:1:3", *argv[1:])
        assert code == 1
        assert out == ""
        assert err.startswith(f"{error}:")

    @pytest.mark.parametrize(
        "coeffs", ['["x"]', '["1/0"]', '{"a": 1}', "[1,", "[1, 1, 1]"],
        ids=["not-rational", "zero-denominator", "not-a-list", "malformed-json", "too-many"],
    )
    def test_bad_coeffs_are_a_named_error(self, run, coeffs):
        code, out, err = run(
            "verify", "--family", "uniform:1", "--case", "ultra", "--N", "2", "--coeffs", coeffs
        )
        assert code == 1
        assert out == ""
        assert err.startswith("InvalidFamilyParameters:")

    @pytest.mark.parametrize("n_flag", [(), ("--N", "1")], ids=["no-N", "with-N"])
    @pytest.mark.parametrize(
        "content, error",
        [
            (None, "InvalidFamilyParameters"),
            ('{"family": "uniform:1"', "InvalidFamilyParameters"),
            (b"\xff\xfe", "InvalidFamilyParameters"),
            ('[1, 2, 3]', "InvalidFamilyParameters"),
            ('{"x_idx": [1, 2, 3], "r": [0, 0, 0]}', "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "r": [0, 0, 0]}', "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "x_idx": [1, 2, 3]}', "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "x_idx": ["1", 2, 3], "r": [0, 0, 0]}',
             "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "x_idx": [1, 3, 2], "r": [0, 0, 0]}',
             "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "x_idx": [1, 2, 3], "r": [0, "-1/2", 0]}',
             "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "x_idx": [1, 2, 3], "r": [0, "x", 0]}',
             "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "x_idx": [1, 2, 3], "r": [0, "1/0", 0]}',
             "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "x_idx": [1, 2], "r": [0, 0, 0]}',
             "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "x_idx": [], "r": []}', "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "x_idx": [0], "r": [0]}', "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "x_idx": [1, 2, 3], "r": [0, 0, 0], "case": {"a": 1}}',
             "InvalidFamilyParameters"),
            ('{"family": "uniform:1", "x_idx": [1, 2, 3], "r": ["1", "1/2", "1/2"]}',
             "SeparationViolation"),
        ],
        ids=[
            "missing-file", "malformed-json", "not-utf8", "not-an-object", "missing-family",
            "missing-x_idx", "missing-r", "index-not-int", "indices-not-increasing",
            "negative-radius", "radius-not-rational", "radius-zero-denominator",
            "lengths-differ", "empty", "index-zero", "case-not-a-string", "separation",
        ],
    )
    def test_bad_plan_file_is_a_named_error(self, run, tmp_path, content, error, n_flag):
        path = tmp_path / "plan.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        code, out, err = run("verify", "--plan", str(path), *n_flag, "--coeffs", "[1]")
        assert code == 1
        assert out == ""
        assert err.startswith(f"{error}:")

    @pytest.mark.parametrize("x_idx", [[9], [9, 10]], ids=["one-point", "two-points"])
    def test_a_plan_past_its_family_is_refused(self, run, tmp_path, x_idx):
        # a one-point plan fetches no distance, so the plan itself compares x_idx with the size
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"family": "dendro:3:4:5", "x_idx": x_idx, "r": ["0"] * len(x_idx)}))
        code, out, err = run("verify", "--plan", str(path), "--coeffs", "[]")
        assert (code, out, err) == (1, "", "InvalidFamilyParameters: family dendro:3:4:5 has only 5 points\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("two-point", "--a", "x", "--b", "1", "--dx0", "1", "--dy0", "1", "--dxy", "1"),
            ("two-point", "--a", "1/0", "--b", "1", "--dx0", "1", "--dy0", "1", "--dxy", "1"),
            ("admissibility", "--family", "uniform:1", "--N", "4", "--ordering", "1,x,3,4"),
            ("admissibility", "--family", "uniform:1", "--N", "4", "--ordering", ""),
            ("norm", "--space", "uniform:1:abc", "--element", "[]"),
            ("norm", "--space", "uniform:1/0:3", "--element", "[]"),
            ("construct", "--family", "convline", "--N", "-2"),
            ("construct", "--family", "intline", "--case", "unbounded", "--N", "-1"),
            ("construct", "--family", "uniform:1", "--N", "1", "--emit", "{missing}/plan.json"),
            ("ball-section", "--space", "uniform:1:3", "--x", "1", "--y", "2",
             "--svg", "{missing}/section.svg"),
            ("ball-section", "--space", "uniform:1:3", "--x", "1", "--y", "2",
             "--csv", "{missing}/section.csv"),
            # size guards: each would run for hours without them
            ("norm", "--space", "uniform:1:100000", "--element", "[]"),
            ("construct", "--family", "intline", "--case", "unbounded", "--N", "100000"),
            ("admissibility", "--family", "uniform:1", "--N", "100000"),
            ("admissibility", "--family", "uniform:1", "--N", "129"),
            ("admissibility", "--family", "uniform:1", "--N", "-3"),
            ("construct", "--family", "dendro:1:512", "--N", "1"),
            ("norm", "--space", "dendro:1:2:513:3", "--element", "[]"),
            ("verify", "--family", "dendro:1:1000000:3", "--N", "1", "--coeffs", "[1]"),
            ("verify", "--plan", "{tmp}/601-points.json", "--coeffs", "[1]"),
            ("verify", "--plan", "{tmp}/list-case.json", "--coeffs", "[1]"),
            # parameters the family does not take
            ("norm", "--space", "convline:3:6", "--element", "[]"),
            ("norm", "--space", "intline:zz:yy:5", "--element", "[]"),
            ("norm", "--space", "geomline:7:5", "--element", "[]"),
            ("construct", "--family", "convline:3", "--N", "2"),
            ("construct", "--family", "intline:zz:yy", "--N", "2"),
            ("construct", "--family", "geomline:7", "--N", "2"),
            # exponents past the integer-string digit limit
            ("two-point", "--a", "1e{exponent}", "--b", "1", "--dx0", "1", "--dy0", "1",
             "--dxy", "1"),
            ("norm", "--space", "uniform:1:3",
             "--element", '[{{"point": 1, "coef": "1e{exponent}"}}]'),
            ("verify", "--family", "uniform:1", "--N", "1", "--coeffs", '["1e-{exponent}"]'),
            ("norm", "--space", "file:{tmp}/exponent-space.json", "--element", "[]"),
            ("verify", "--plan", "{tmp}/exponent-radius.json", "--coeffs", "[1]"),
            # a plan's common denominator past MAX_SCALED_BITS / N^2 bits
            ("verify", "--plan", "{tmp}/lcm-20-digits.json", "--coeffs", "[1]"),
            ("verify", "--plan", "{tmp}/lcm-3000-digits.json", "--coeffs", "[1]"),
            # answers past the digit limit from inputs within it: ResultTooLarge
            ("two-point", "--a", "{nines}", "--b", "1", "--dx0", "{nines}", "--dy0", "1",
             "--dxy", "{nines}"),
            ("norm", "--space", "uniform:{nines}:3",
             "--element", '[{{"point": 1, "coef": "{nines}"}}]'),
        ],
        ids=[
            "two-point-not-rational", "two-point-zero-denominator", "ordering-not-int",
            "ordering-empty", "truncation-not-int", "family-zero-denominator",
            "negative-pairs", "negative-pairs-unbounded", "unwritable-emit", "unwritable-svg",
            "unwritable-csv", "truncation-too-large", "pairs-too-many", "admissibility-too-large",
            "admissibility-cap-plus-one", "admissibility-negative", "dendro-depth-cap-plus-one", "dendro-leaves-cap-plus-one",
            "dendro-depth-huge", "plan-file-too-long", "plan-case-a-list",
            "convline-space-extra", "intline-space-extra", "geomline-space-extra",
            "convline-family-extra", "intline-family-extra", "geomline-family-extra",
            "exponent-two-point", "exponent-coef", "exponent-coeffs", "exponent-file-space",
            "exponent-plan-radius", "plan-lcm-20-digits", "plan-lcm-3000-digits", "oversized-two-point", "oversized-norm",
        ],
    )
    def test_bad_input_never_leaks_a_traceback(self, run, tmp_path, argv):
        missing = tmp_path / "missing"
        for name, content in BAD_FILES.items():
            (tmp_path / name).write_text(json.dumps(content))
        code, out, err = run(
            *(arg.format(missing=missing, tmp=tmp_path, exponent=EXPONENT, nines=NINES)
              for arg in argv)
        )
        assert code == 1
        assert out == ""
        oversized = any("{nines}" in arg for arg in argv)
        assert err.startswith("ResultTooLarge:" if oversized else "InvalidFamilyParameters:")
        assert not missing.exists()

    def test_negative_admissibility_N_is_named(self, run):
        code, out, err = run("admissibility", "--family", "uniform:1", "--N", "-3")
        assert (code, out) == (1, "")
        assert err == "InvalidFamilyParameters: admissibility N must be in 0..128, not -3\n"

    def test_horizon_variable_is_ignored(self, run, monkeypatch):
        args = ("construct", "--family", "intline", "--case", "unbounded", "--N", "2")
        expected = run(*args)
        monkeypatch.setenv("LIPFREE_HORIZON", "abc")
        assert run(*args) == expected
        assert expected[0] == 0

    def test_usage_error_exit_code(self, run):
        with pytest.raises(SystemExit) as info:
            main(["norm"])  # missing required flags
        assert info.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["spaces", "list", "--frobnicate"])
        assert info.value.code == 2


class TestSpaces:
    def test_list_is_json_with_all_ids(self, run):
        code, out, _ = run("spaces", "list")
        assert code == 0
        assert json.loads(out) == [
            {"id": "uniform", "params": "d: positive rational",
             "exercises": "bounded uniformly separated case; ultrametric constant case"},
            {"id": "convline", "params": "none",
             "exercises": "accumulation-point case (strict subcase)"},
            {"id": "intline", "params": "none",
             "exercises": "unbounded greedy case; unbounded-delta pairing"},
            {"id": "geomline", "params": "none",
             "exercises": "unbounded greedy case with fast growth; unbounded-delta pairing"},
            {"id": "remark", "params": "k: 1..6",
             "exercises": "admissibility probes: spaces without exact radii"},
            {"id": "dendro", "params": "seed: int, depth: int, leaves: int (optional)",
             "exercises": "ultrametric subsequence extraction and exact l1 plans"},
            {"id": "file", "params": "path to JSON {n, dist}", "exercises": "custom finite spaces"},
        ]


class TestConstructVerifyRoundTrip:
    def test_plan_file_round_trip(self, run, tmp_path):
        plan_path = tmp_path / "plan.json"
        code, out, _ = run(
            "construct", "--family", "convline", "--case", "accum",
            "--N", "3", "--emit", str(plan_path),
        )
        assert code == 0
        emitted = json.loads(out)
        assert emitted == json.loads(plan_path.read_text())
        assert emitted["x_idx"] == [1, 2, 3, 5, 6, 11, 12]
        assert emitted["exact"] is True

        code, out, _ = run(
            "verify", "--plan", str(plan_path), "--coeffs", '["1/2", "-1/3", 1]'
        )
        assert code == 0
        assert json.loads(out) == {"l1_norm": "11/6", "exact": True}

    def test_auto_case_selection(self, run):
        code, out, _ = run("construct", "--family", "uniform:1", "--N", "2")
        assert code == 0
        assert json.loads(out)["case"] == "ultra-constant"

    def test_unbounded_case(self, run):
        code, out, _ = run("construct", "--family", "intline", "--case", "unbounded", "--N", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["x_idx"] == [1, 3, 10]
        assert obj["r"] == ["1", "1", "4"]

    def test_auto_scans_for_the_unbounded_indices(self, run):
        # remark:1 has no first_index_beyond, so radii_unbounded scans the indices
        code, out, _ = run("construct", "--family", "remark:1", "--N", "3")
        assert code == 0
        plan = plan_from_json(out)
        assert plan.case == "unbounded"
        assert all(q > 1 - F(1, 2 * n) for n, q in enumerate(plan.ratios, 1))

    def test_bounded_case_estimates_the_limit(self, run):
        family = make_family("dendro", 1, 4)
        assert family.d_limit is None  # so the limit comes from the last leaves
        code, out, _ = run("construct", "--family", "dendro:1:4", "--case", "bounded", "--N", "2")
        assert code == 0
        d = family.distance(63, 64)
        assert json.loads(out)["r"] == [str(d / 2 * (1 - F(1, n))) for n in range(1, 6)]

    @pytest.mark.parametrize(
        "family, case, n_pairs, error",
        [
            ("convline", "accum", "16", "HorizonExhausted"),
            ("intline", "udelta", "16", "HorizonExhausted"),
            ("intline", "bounded", "2", "MetadataRequired"),
            ("dendro:1:0", "auto", "1", "EmptyLevels"),
        ],
    )
    def test_builder_failure_is_a_named_error(self, run, family, case, n_pairs, error):
        code, out, err = run("construct", "--family", family, "--case", case, "--N", n_pairs)
        assert (code, out) == (1, "")
        assert err.startswith(f"{error}:")

    def test_dendro_plan_round_trip(self, run, tmp_path):
        plan_path = tmp_path / "plan.json"
        code, out, _ = run(
            "construct", "--family", "dendro:7:10", "--case", "ultra",
            "--N", "3", "--emit", str(plan_path),
        )
        assert code == 0
        assert json.loads(out)["family"] == "dendro:7:10:64"
        code, out, _ = run("verify", "--plan", str(plan_path), "--coeffs", "[1, 1, -1]")
        assert code == 0
        assert json.loads(out) == {"l1_norm": "3", "exact": True}

    def test_flow_route(self, run):
        code, out, _ = run(
            "verify", "--family", "intline", "--case", "udelta",
            "--N", "4", "--coeffs", "[2, -1]",
        )
        assert code == 0
        assert json.loads(out) == {"l1_norm": "3", "exact": True}

    def test_inexact_plan_verify_fails_cleanly(self, run):
        code, _, err = run(
            "verify", "--family", "remark:5", "--case", "bounded",
            "--N", "2", "--coeffs", "[1]",
        )
        assert code == 1
        assert err == "ExactnessRequired: the tight pair condition r_2n + r_2n+1 = rho is needed\n"


class TestAdmissibilityCommand:
    def test_remark_probe(self, run):
        code, out, _ = run("admissibility", "--family", "remark:2", "--N", "6")
        assert code == 0
        obj = json.loads(out)
        assert obj["tau"] == "38/39"
        assert len(obj["r"]) == 6
        assert obj["obstruction"] == {"upper": [[2, 5], [3, 4]], "slots": [1, 2]}

    def test_uniform_has_no_obstruction(self, run):
        code, out, _ = run("admissibility", "--family", "uniform:1", "--N", "7")
        assert code == 0
        assert set(json.loads(out)) == {"tau", "r"}

    def test_no_pair_slots(self, run):
        code, out, _ = run("admissibility", "--family", "uniform:1", "--N", "2")
        assert code == 0
        assert json.loads(out) == {"no_pair_slots": True}


class TestBallSectionCommand:
    def test_byte_stable_outputs(self, run, tmp_path):
        svg1, csv1 = tmp_path / "a.svg", tmp_path / "a.csv"
        svg2, csv2 = tmp_path / "b.svg", tmp_path / "b.csv"
        args = ["ball-section", "--space", "uniform:1:3", "--x", "1", "--y", "2"]
        code, out1, _ = run(*args, "--svg", str(svg1), "--csv", str(csv1))
        assert code == 0
        code, out2, _ = run(*args, "--svg", str(svg2), "--csv", str(csv2))
        assert code == 0
        assert out1 == out2
        assert svg1.read_bytes() == svg2.read_bytes()
        assert csv1.read_bytes() == csv2.read_bytes()

    def test_csv_lists_both_polygons(self, run, tmp_path):
        csv_path = tmp_path / "section.csv"
        run(
            "ball-section", "--space", "uniform:1:3",
            "--x", "1", "--y", "2", "--csv", str(csv_path),
        )
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "polygon,index,u,v"
        polygons = {line.split(",")[0] for line in lines[1:]}
        assert polygons == {"A", "ball"}
        assert len(lines) == 1 + 6 + 6

    def test_svg_structure(self, run, tmp_path):
        svg_path = tmp_path / "section.svg"
        run(
            "ball-section", "--space", "uniform:1:3",
            "--x", "1", "--y", "2", "--svg", str(svg_path),
        )
        blob = svg_path.read_text()
        assert blob.startswith("<svg")
        assert 'viewBox="0 0 512 512"' in blob
        assert blob.count("<polygon") == 2

    def test_stdout_vertices(self, run):
        code, out, _ = run("ball-section", "--space", "uniform:1:3", "--x", "1", "--y", "2")
        obj = json.loads(out)
        assert len(obj["vertices"]) == 6
        assert ["1", "1"] in obj["vertices"]

    def test_far_base_section_prints_vertices_on_the_sphere(self, run, tmp_path):
        # rho(1, 2) = 1 is below both distances to the base: the ball reaches (1, -1)
        space, svg, csv = tmp_path / "far.json", tmp_path / "far.svg", tmp_path / "far.csv"
        space.write_text('{"dist": [[0, 10, 10], [10, 0, 1], [10, 1, 0]]}')
        code, out, _ = run(
            "ball-section", "--space", f"file:{space}", "--x", "1", "--y", "2",
            "--svg", str(svg), "--csv", str(csv),
        )
        assert code == 0
        ball = json.loads(out)["ball_vertices"]
        assert ["1", "-1"] in ball and ["-1", "1"] in ball
        for a, b in ball:
            assert two_point_norm(a, b, 10, 10, 1) == 1
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert [[a, b] for name, _, a, b in rows if name == "ball"] == ball
        # the second polygon is the ball, drawn at 113 px per unit around (384, 256)
        polygon = svg.read_text().split('<polygon points="')[2].split('"')[0]
        drawn = [tuple(map(float, point.split(","))) for point in polygon.split()]
        to_screen = lambda a, b: (round(384 + 113 * float(F(a)), 3), round(256 - 113 * float(F(b)), 3))
        assert drawn == [to_screen(a, b) for a, b in ball]

    def test_float_file_section_matches_the_norm(self, run, tmp_path):
        # rho(2, 0) > rho(1, 0) + rho(1, 2) by ~1.7e-17 in exact binary values
        path = tmp_path / "floats.json"
        path.write_text('{"dist": [[0, 0.1, 0.4], [0.1, 0, 0.3], [0.4, 0.3, 0]]}')
        code, out, err = run("ball-section", "--space", f"file:{path}", "--x", "1", "--y", "2")
        assert (code, err) == (0, "")
        vertices = [(F(u), F(v)) for u, v in json.loads(out)["vertices"]]
        space = load_space(path.read_text())
        grid = [F(k, 2) for k in range(-4, 5)]
        for a in grid:
            for b in grid:
                support = max(abs(a * u + b * v) for u, v in vertices)
                norm = free_norm(FreeElement.from_pairs([(1, a), (2, b)]), space).value
                if a * b:
                    assert support == norm
                else:
                    assert abs(support - norm) <= FLOAT_TOLERANCE * abs(a + b)


class TestNoSimplexOnTheProductPath:
    """The exact simplex is the tests' oracle: no subcommand reaches it."""

    def test_every_subcommand_answers_without_the_simplex(self, run, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the product path reached the simplex")

        monkeypatch.setattr(norm_engine, "solve_lp_max", refuse)
        monkeypatch.setattr(constructions, "solve_lp_max", refuse)
        uniform = tmp_path / "uniform.json"
        uniform.write_text(json.dumps({"dist": [[0 if i == j else 0.3 for j in range(9)] for i in range(9)]}))
        xs = [0.0, 0.1, 0.3, 0.6, 1.0, 1.7]
        line = tmp_path / "line.json"
        line.write_text(json.dumps({"dist": [[abs(a - b) for b in xs] for a in xs]}))
        element = '[{"point":1,"coef":"1"},{"point":2,"coef":"-1/2"},{"point":4,"coef":"2"}]'
        for family, space in (("uniform:1", "uniform:1:9"), (f"file:{uniform}", f"file:{uniform}")):
            for argv in (
                ("norm", "--space", space, "--element", element, "--with-function"),
                ("ball-section", "--space", space, "--x", "1", "--y", "2"),
                ("construct", "--family", family, "--N", "4"),
                ("verify", "--family", family, "--N", "4", "--coeffs", "[1,-2,3,0]"),
                ("admissibility", "--family", family, "--N", "9"),
            ):
                code, _, err = run(*argv)
                assert (code, err) == (0, ""), argv
            nonrotund_witness(parse_space(space))
        code, _, err = run("norm", "--space", f"file:{line}", "--element", element)
        assert (code, err) == (0, "")


class TestElementFromFile:
    def test_at_file_syntax(self, run, tmp_path):
        path = tmp_path / "element.json"
        path.write_text('[{"point": 1, "coef": "1"}]')
        code, out, _ = run("norm", "--space", "uniform:2:4", "--element", f"@{path}")
        assert code == 0
        assert json.loads(out) == {"norm": "2"}

    def test_repeat_bytes(self, run):
        args = (
            "norm", "--space", "remark:3:9", "--with-function",
            "--element", '[{"point": 2, "coef": "3/2"}, {"point": 5, "coef": "-2"}]',
        )
        code, out, _ = run(*args)
        assert code == 0
        assert run(*args)[1] == out

    def test_with_function_output(self, run):
        code, out, _ = run(
            "norm", "--space", "uniform:1:3",
            "--element", '[{"point": 1, "coef": "1"}]', "--with-function",
        )
        obj = json.loads(out)
        assert obj["norm"] == "1"
        assert obj["function"][0] == "0"
        assert len(obj["function"]) == 3


# fixed alphabets of valid and malformed values, one per kind of flag
NUMBERS = ("0", "1", "2", "3", "-1", "1/2", "1/0", "x", "", "100000")
ALPHABETS = {
    "--space": (
        "uniform:1:3", "remark:3:5", "convline:5", "dendro:7:10:12", "uniform:1:100000",
        "uniform:1/0:3", "uniform:1:x", "file:/nonexistent", "[{", "",
    ),
    "--family": (
        "uniform:1", "remark:2", "convline", "intline", "dendro:7:10", "uniform:1/0",
        "remark:x", "file:/nonexistent", "[{", "",
    ),
    "--element": (
        "[]", '[{"point": 1, "coef": "1/2"}, {"point": 2, "coef": -1}]',
        '[{"point": 1, "coef": "1/0"}]', '[{"point": 9, "coef": 1}]', "[{", "@/nonexistent",
        "@plan.json", "",
    ),
    "--coeffs": ("[]", "[1, -1]", '["1/2"]', '["1/0"]', "[{", "@/nonexistent", "@plan.json", ""),
    "--plan": ("plan.json", "-1", "convline:5", "@/nonexistent", "missing/plan.json", ""),
    "--emit": ("plan.json", "-1", "convline:5", "missing/plan.json", ""),
    "--svg": ("section.svg", "plan.json", "-1", "missing/section.svg", ""),
    "--csv": ("section.csv", "plan.json", "convline:5", "missing/section.csv", ""),
    "--case": ("auto", "accum", "bounded", "unbounded", "udelta", "ultra", "x"),
    "--ordering": ("1,2,3", "3,2,1", "1,x,3,4", "1,1,2", "1/0", ""),
}
# subcommand -> (required flags, optional flags, optional switches)
COMMANDS = {
    "norm": (("--space", "--element"), (), ("--with-function",)),
    "two-point": (("--a", "--b", "--dx0", "--dy0", "--dxy"), (), ()),
    "ball-section": (("--space", "--x", "--y"), ("--svg", "--csv"), ()),
    "construct": (("--family", "--N"), ("--case", "--emit"), ()),
    "verify": (("--coeffs",), ("--plan", "--family", "--case", "--N"), ()),
    "admissibility": (("--family", "--N"), ("--ordering",), ()),
    "spaces": ((), (), ()),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional, switches = COMMANDS[command]
    argv = [command] + (["list"] if command == "spaces" else [])
    for flag in required + tuple(f for f in optional if draw(st.booleans())):
        argv += [flag, draw(st.sampled_from(ALPHABETS.get(flag, NUMBERS)))]
    return argv + [s for s in switches if draw(st.booleans())]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argv=argvs())
def _check_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage error
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    lines = out.getvalue().splitlines(keepends=True)
    assert len(lines) <= 1 and all(line.endswith("\n") for line in lines), argv
    for line in lines:
        json.loads(line)


def test_main_keeps_its_exit_contract_on_any_flag_values(tmp_path, monkeypatch):
    # --emit, --svg and --csv write to relative paths drawn from the alphabets
    monkeypatch.chdir(tmp_path)
    _check_exit_contract()
