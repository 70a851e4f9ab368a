import json

import pytest

from lipfree.cli import main


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
        ids = {entry["id"] for entry in json.loads(out)}
        assert ids == {"uniform", "convline", "intline", "geomline", "remark", "dendro", "file"}


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
            "--N", "4", "--coeffs", "[2, -1]", "--norm", "flow",
        )
        assert code == 0
        assert json.loads(out) == {"l1_norm": "3", "exact": True}

    def test_inexact_plan_verify_fails_cleanly(self, run):
        code, _, err = run(
            "verify", "--family", "remark:5", "--case", "bounded",
            "--N", "2", "--coeffs", "[1]",
        )
        assert code == 1
        assert err.startswith("ExactnessRequired:")


class TestAdmissibilityCommand:
    def test_remark_probe(self, run):
        code, out, _ = run("admissibility", "--family", "remark:2", "--N", "6")
        assert code == 0
        obj = json.loads(out)
        assert obj["tau"] == "38/39"
        assert len(obj["r"]) == 6

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


class TestElementFromFile:
    def test_at_file_syntax(self, run, tmp_path):
        path = tmp_path / "element.json"
        path.write_text('[{"point": 1, "coef": "1"}]')
        code, out, _ = run("norm", "--space", "uniform:2:4", "--element", f"@{path}")
        assert code == 0
        assert json.loads(out) == {"norm": "2"}

    def test_with_function_output(self, run):
        code, out, _ = run(
            "norm", "--space", "uniform:1:3",
            "--element", '[{"point": 1, "coef": "1"}]', "--with-function",
        )
        obj = json.loads(out)
        assert obj["norm"] == "1"
        assert obj["function"][0] == "0"
        assert len(obj["function"]) == 3
