import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from solvir.cli import main, parse_boxes, parse_spec, schema_path


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_bracket_examples(capsys):
    code, out = run_cli(["bracket", "e[1,0]", "e[-1,0]"], capsys)
    assert code == 0
    assert out.strip() == "-2*mu1*e[0,0] + ((mu1^3-mu1)/12)*c"
    code, out = run_cli(["bracket", "c", "e[3,1]", "--n", "2"], capsys)
    assert code == 0
    assert out.strip() == "0"
    code, out = run_cli(["bracket", "e[0,0]", "e[2,-1]"], capsys)
    assert code == 0
    assert out.strip() == "(2*mu1-mu2)*e[2,-1]"


def test_bracket_parse_error(capsys):
    code, _ = run_cli(["bracket", "e[1,0", "e[0,1]"], capsys)
    assert code == 2
    code, _ = run_cli(["bracket", "c", "c"], capsys)
    assert code == 2  # rank not inferable


def test_bracket_mixed_ranks_is_usage_error(capsys):
    code = main(["bracket", "e[1,2]", "e[1]"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ranks 1 and 2" in err
    # the second point of one side is read too
    assert main(["bracket", "e[1,0] + e[2]", "e[0,1]"]) == 2


def test_bracket_rank_disagrees_with_flag(capsys):
    # an explicit --n is checked against the points, not trusted
    assert main(["bracket", "e[1,2]", "e[1]", "--n", "2"]) == 2
    assert "ranks 1 and 2" in capsys.readouterr().err
    assert main(["bracket", "e[1]", "e[2]", "--n", "2"]) == 2
    assert "rank 1 do not match --n 2" in capsys.readouterr().err
    assert main(["bracket", "c", "e[1,2]", "--n", "2"]) == 0


def test_parse_helpers():
    assert parse_boxes("1..4") == [1, 2, 3, 4]
    assert parse_boxes("2,5,9") == [2, 5, 9]
    assert parse_spec("mu1=2/3,mu2=5") == {"mu1": Fraction(2, 3),
                                           "mu2": Fraction(5)}


def test_verify_small_suite(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _ = run_cli(["verify", "density", "--n", "2", "--box", "2",
                       "--seed", "7", "--out", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["status"] == "pass"
    assert report["counts"]["fail"] == 0
    assert all(c["status"] == "pass" for c in report["checks"])
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)


def test_verify_cocycle_bad_input(tmp_path, capsys):
    bad = {"n": 2, "canonical_multiple": "0", "coboundary": [],
           "extra": [[[0, 1], [1, 0], "1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out_file = tmp_path / "report.json"
    code, _ = run_cli(["verify", "cocycle", "--input", str(path), "--n", "2",
                       "--box", "2", "--out", str(out_file)], capsys)
    assert code == 1
    report = json.loads(out_file.read_text())
    assert report["status"] == "fail"
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert failing and failing[0]["details"]["failing_triple"] is not None


def test_verify_cocycle_good_input(tmp_path, capsys):
    good = {"n": 2, "canonical_multiple": "1",
            "coboundary": [[[0, 0], "1/2"], [[1, -1], "2"]], "extra": []}
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good))
    code, _ = run_cli(["verify", "cocycle", "--input", str(path), "--box", "2"],
                      capsys)
    assert code == 0


@pytest.mark.parametrize("command", [["verify", "cocycle"], ["normalize"]])
def test_cochain_input_rank_against_n(tmp_path, capsys, command):
    """The rank comes from the cochain file; an n given by flag or config
    file is checked against it, and the report echoes the file's rank."""
    theta = str(Path(__file__).parent / "golden" / "theta_normalize.json")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\n")
    for extra in (["--n", "3"], ["--config", str(cfg)]):
        code = main(command + ["--input", theta, "--box", "2"] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "cochain points of rank 2 do not match --n 3" in captured.err
    code, out = run_cli(command + ["--input", theta, "--box", "2", "--n", "2"],
                        capsys)
    assert code == 0
    assert json.loads(out)["config"]["n"] == 2
    rank3 = tmp_path / "rank3.json"
    rank3.write_text(json.dumps({"n": 3, "canonical_multiple": "1",
                                 "coboundary": [[[1, 0, -1], "2"]], "extra": []}))
    code, out = run_cli(command + ["--input", str(rank3), "--box", "2"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["n"] == 3


@pytest.mark.parametrize("suite", ["gvm", "all"])
def test_gvm_suite_needs_rank_two(suite, capsys):
    """The graded modules need rank 2; rank 1 is a usage error, not rank 2."""
    code = main(["verify", suite, "--n", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "the gvm suite needs --n >= 2" in captured.err


@pytest.mark.parametrize("command", [["normalize"], ["verify", "cocycle"]])
@pytest.mark.parametrize("field, entry", [
    ("coboundary", [[1, 0, 5], "2"]),
    ("extra", [[1, 0, 5], [0, 1, 0], "2"]),
])
def test_cochain_point_of_wrong_rank_rejected(tmp_path, capsys, command, field,
                                              entry):
    """A rank-3 point in a rank-2 cochain file is bad input, never skipped."""
    data = {"n": 2, "canonical_multiple": "1", "coboundary": [[[1, 0], "3"]],
            "extra": []}
    data[field].append(entry)
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(data))
    code = main(command + ["--input", str(path), "--box", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "point [1, 0, 5] in a rank-2 cochain record" in captured.err


@pytest.mark.parametrize("command", [["normalize"], ["verify", "cocycle"]])
@pytest.mark.parametrize("field, entries, named", [
    ("coboundary", [[[1, 0], "2"], [[1, 0], "3"]], "point [1, 0] listed twice"),
    ("extra", [[[0, 1], [1, 1], "2"], [[1, 1], [0, 1], "-2"]],
     "pair [1, 1], [0, 1] listed twice"),
])
def test_cochain_repeated_entry_rejected(tmp_path, capsys, command, field,
                                         entries, named):
    """A point or an unordered extra pair listed twice is bad input: no
    value may silently win over the other."""
    data = {"n": 2, "canonical_multiple": "1", "coboundary": [], "extra": []}
    data[field] = entries
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(data))
    code = main(command + ["--input", str(path), "--box", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert named in captured.err


def test_normalize_command(tmp_path, capsys):
    data = {"n": 2, "canonical_multiple": "1",
            "coboundary": [[[1, 0], "3"], [[0, 0], "1/2"]], "extra": []}
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(data))
    out_file = tmp_path / "norm.json"
    code, _ = run_cli(["normalize", "--input", str(path), "--box", "3",
                       "--out", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["status"] == "pass"
    assert report["recognized"]["a"] == "1/12"
    assert [[1, 0], "3"] in report["shift"]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nbox = 2\nseed = 5\nspec = mu1=3\n# comment\n")
    out_a = tmp_path / "a.json"
    code, _ = run_cli(["verify", "density", "--config", str(cfg),
                       "--out", str(out_a)], capsys)
    assert code == 0
    report = json.loads(out_a.read_text())
    assert report["config"]["seed"] == 5
    assert report["config"]["spec"] == {"mu1": "3"}
    out_b = tmp_path / "b.json"
    code, _ = run_cli(["verify", "density", "--config", str(cfg),
                       "--seed", "9", "--out", str(out_b)], capsys)
    assert json.loads(out_b.read_text())["config"]["seed"] == 9


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nboxs = 1..6\n")
    out_file = tmp_path / "r.json"
    code = main(["verify", "density", "--config", str(cfg), "--out", str(out_file)])
    assert code == 2
    assert "'boxs'" in capsys.readouterr().err
    assert not out_file.exists()


def test_dims_verma_table(tmp_path, capsys):
    out_file = tmp_path / "dims.json"
    code, _ = run_cli(["dims", "verma", "--n", "2", "--shift", "-1,0",
                       "--boxes", "1..3", "--out", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    dims = [row["dim"] for row in report["boxes"]]
    assert dims == sorted(dims) and len(set(dims)) == len(dims)
    assert report["family_lower_bound"] == 3


def test_dims_verma_rank1_level(capsys):
    code, out = run_cli(["dims", "verma", "--n", "1", "--mu1", "1",
                         "--level", "4"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["boxes"][0]["dim"] == 5


def test_dims_gvm_table(capsys):
    code, out = run_cli(["dims", "gvm", "--n", "2", "--kappa", "0",
                         "--boxes", "1..3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["bound"] == "1*3"
    assert report["stabilized"] is True
    assert all(row["rank"] <= 3 for row in report["boxes"])


def test_usage_errors(capsys):
    code, _ = run_cli(["dims", "verma", "--n", "2"], capsys)
    assert code == 2
    code, _ = run_cli(["verify", "jacobi", "--n", "0"], capsys)
    assert code == 2
    code, _ = run_cli(["verify", "jacobi", "--config", "/nonexistent"], capsys)
    assert code == 2


def test_reports_validate_against_schema(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(schema_path().read_text())
    outputs = []
    for args in (["verify", "density", "--n", "2", "--box", "2", "--seed", "1"],
                 ["dims", "verma", "--n", "2", "--shift", "-1,0", "--boxes", "1..2"],
                 ["dims", "gvm", "--n", "2", "--kappa", "0", "--boxes", "1..2"]):
        code, out = run_cli(args, capsys)
        assert code == 0
        outputs.append(json.loads(out))
    data = {"n": 2, "canonical_multiple": "1", "coboundary": [], "extra": []}
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(["normalize", "--input", str(path), "--box", "2"], capsys)
    assert code == 0
    outputs.append(json.loads(out))
    # every golden report, the failing normalize_not_cocycle.json included;
    # the theta_*.json files are cochain inputs, not reports
    golden = Path(__file__).parent / "golden"
    outputs.extend(json.loads(report.read_text()) for report in sorted(golden.glob("*.json"))
                   if not report.name.startswith("theta_"))
    for doc in outputs:
        jsonschema.validate(doc, schema)


def test_determinism_same_seed(tmp_path, capsys):
    texts = []
    for tag in ("x", "y"):
        out_file = tmp_path / f"{tag}.json"
        code, _ = run_cli(["verify", "density", "--n", "2", "--box", "2",
                           "--seed", "42", "--out", str(out_file)], capsys)
        assert code == 0
        texts.append(out_file.read_bytes())
    assert texts[0] == texts[1]


def test_console_entry_point_subprocess(tmp_path):
    out_file = tmp_path / "r.json"
    result = subprocess.run(
        [sys.executable, "-m", "solvir.cli", "verify", "verma",
         "--seed", "3", "--out", str(out_file)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(out_file.read_text())["status"] == "pass"
