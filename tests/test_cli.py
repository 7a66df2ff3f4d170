import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from solvir.cli import SUITES, main, parse_boxes, parse_spec, schema_path


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
    # the rank is read from the points the grammar reads, spaces and all
    code, out = run_cli(["bracket", "e [1,0]", "e [0, 1]"], capsys)
    assert code == 0
    assert out.strip() == "(-mu1+mu2)*e[1,1]"


def test_bracket_parse_error(capsys):
    code, _ = run_cli(["bracket", "e[1,0", "e[0,1]"], capsys)
    assert code == 2
    code, _ = run_cli(["bracket", "c", "c"], capsys)
    assert code == 2  # rank not inferable


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 \
        and "Traceback" not in err


@pytest.mark.parametrize("left, named", [
    ("mu100*e[1,0]", "mu100 has no exponent slot (at most mu60)"),
    ("mu1^40000*e[1,0]", "exponent 40000 past 32767"),
    ("e[1,0] + 2", "term lacks a basis symbol e[...] or c"),
    ("e[1,0] )", "unexpected token ')' in AlgebraElement"),
])
def test_bracket_bad_text_is_usage_error(capsys, left, named):
    """Text the grammar or the packed kernel cannot take exits 2 with one
    error line."""
    code = main(["bracket", left, "e[0,1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) and named in captured.err


@pytest.mark.parametrize("argv, expected", [
    (["-e[1]", "e[0]"], "mu1*e[1]"),
    (["e[1]", "-e[0]"], "mu1*e[1]"),
    (["-2*e[1,0]", "e[0,1]"], "(2*mu1-2*mu2)*e[1,1]"),
    (["--n", "1", "-e[1]", "e[0]"], "mu1*e[1]"),
    (["-e[1]", "--n", "1", "e[0]"], "mu1*e[1]"),
    (["-e[1]", "e[0]", "--n", "1"], "mu1*e[1]"),
])
def test_bracket_element_with_leading_minus(capsys, argv, expected):
    """An element that starts with '-' is an element, not an option, and
    --n is read wherever it stands."""
    code, out = run_cli(["bracket", *argv], capsys)
    assert code == 0
    assert out == expected + "\n"


def test_bracket_unknown_option_still_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "-e[1]", "e[0]", "--foo"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --foo" in capsys.readouterr().err


def test_bracket_mixed_ranks_is_usage_error(capsys):
    code = main(["bracket", "e[1,2]", "e[1]"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ranks 1 and 2" in err
    # the second point of one side is read too
    assert main(["bracket", "e[1,0] + e[2]", "e[0,1]"]) == 2
    assert "ranks 1 and 2" in capsys.readouterr().err
    assert main(["bracket", "e [1,0]", "e [1]"]) == 2
    assert "ranks 1 and 2" in capsys.readouterr().err


def test_bracket_rank_disagrees_with_flag(capsys):
    # an explicit --n is checked against the points, not trusted
    assert main(["bracket", "e[1,2]", "e[1]", "--n", "2"]) == 2
    assert "ranks 1 and 2" in capsys.readouterr().err
    assert main(["bracket", "e[1]", "e[2]", "--n", "2"]) == 2
    assert "rank 1 do not match --n 2" in capsys.readouterr().err
    assert main(["bracket", "c", "e[1,2]", "--n", "2"]) == 0


def test_bracket_product_past_the_exponent_guard_is_usage_error(capsys):
    """Each factor is inside the exponent guard, their product is not."""
    code = main(["bracket", "mu1^20000*e[1,0]", "mu1^20000*e[0,1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err)
    assert "monomial exponent above 32767" in captured.err


def test_parse_helpers():
    assert parse_boxes("1..4") == [1, 2, 3, 4]
    assert parse_boxes("2,5,9") == [2, 5, 9]
    assert parse_boxes("3..3") == [3]
    with pytest.raises(ValueError, match="names no radius"):
        parse_boxes("3..1")
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


@pytest.mark.parametrize("command", [["normalize"], ["verify", "cocycle"]])
@pytest.mark.parametrize("doc, named", [
    ([1, 2], "a cochain is a JSON object, not [1, 2]"),
    ({"canonical_multiple": "1"}, "the cochain has no field n"),
    ({"n": True}, "n is True, not an integer"),
    ({"n": 2.5}, "n is 2.5, not an integer"),
    ({"n": 2, "coboundary": [[["a", 0], "2"]]},
     "coboundary point ['a', 0] is not a list of integers"),
    ({"n": 2, "extra": [[[1.5, 0], [0, 1], "2"]]},
     "extra point [1.5, 0] is not a list of integers"),
    ({"n": 2, "coboundary": [[[1, 0], 3]]}, "coboundary value 3 is not a string"),
    ({"n": 2, "extra": [[[1, 0], [0, 1], 3]]}, "extra value 3 is not a string"),
    ({"n": 2, "canonical_multiple": 1}, "canonical_multiple value 1 is not a string"),
    ({"n": 2, "coboundary": [[[1, 0]]]},
     "coboundary record [[1, 0]] is not a list of 2 items"),
    ({"n": 2, "extra": [[[1, 0], [0, 1]]]},
     "extra record [[1, 0], [0, 1]] is not a list of 3 items"),
    ({"n": 2, "extra": {"a": 1}}, "extra is {'a': 1}, not a list of records"),
    ({"n": 2, "coboundry": [[[1, 0], "5"]]}, "unknown cochain field 'coboundry'"),
])
def test_malformed_cochain_file_is_usage_error(tmp_path, capsys, command, doc, named):
    """A cochain file not of the shape to_records writes is bad input: one
    error line naming the field, never a traceback or a silent rewrite."""
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(doc))
    code = main(command + ["--input", str(path), "--box", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) and named in captured.err


@pytest.mark.parametrize("value, named", [
    ("mu61", "mu61 has no exponent slot (at most mu60)"),
    ("1/mu(0,0)", "zero form mu(0,0) in a denominator"),
])
def test_cochain_value_past_grammar_is_usage_error(tmp_path, capsys, value, named):
    data = {"n": 2, "canonical_multiple": "1", "coboundary": [[[1, 0], value]],
            "extra": []}
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(data))
    code = main(["normalize", "--input", str(path), "--box", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) and named in captured.err


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


def test_normalize_reads_slash_as_binding_to_its_factor(tmp_path, capsys):
    """A coboundary value mu1 + 1/2 is mu1 + (1/2), never (mu1 + 1)/2."""
    reports = []
    for value in ("mu1 + 1/2", "(2*mu1+1)/2", "(mu1+1)/2"):
        data = {"n": 2, "canonical_multiple": "1",
                "coboundary": [[[1, 0], value]], "extra": []}
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(data))
        code, out = run_cli(["normalize", "--input", str(path), "--box", "2"],
                            capsys)
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    assert reports[0] != reports[2]


@pytest.mark.parametrize("command", [["verify", "cocycle"], ["verify", "all"],
                                     ["normalize"]])
def test_box_below_minimum_is_usage_error(capsys, command):
    """recognize_eta needs radius 2; --box 1 is bad input and writes no report."""
    if command == ["normalize"]:
        command = command + ["--input", str(Path(__file__).parent / "golden"
                                             / "theta_normalize.json")]
    code = main(command + ["--box", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--box too small" in captured.err
    assert "box >= 2" in captured.err


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


@pytest.mark.parametrize("key", ["spec", "out", "boxes"])
def test_config_key_with_no_value_rejected(tmp_path, capsys, key):
    """An empty config value exits 2 naming the key, as an empty flag value
    does; out = never writes the report to stdout instead."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 2\n{key} =\n")
    code = main(["dims", "verma", "--shift", "-1,0", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err)
    assert f"config key {key!r} has no value in {cfg}" in captured.err


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


@pytest.mark.parametrize("argv", [
    ["verify", "jacobi", "--input", "theta.json"],
    ["dims", "verma", "--n", "2"],
    ["dims", "verma", "--n", "2", "--shift=-1,0,0"],
    ["dims", "gvm", "--n", "1"],
    ["dims", "gvm", "--n", "2", "--kappa", "1,0"],
])
def test_usage_error_is_one_error_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err)


@pytest.mark.parametrize("argv, named", [
    (["dims", "verma", "--n", "1", "--level", "2", "--mu1", "abc"],
     "Invalid literal for Fraction: 'abc'"),
    (["dims", "verma", "--n", "1", "--level", "2", "--mu1", "1/0"],
     "zero denominator in '1/0'"),
    (["dims", "verma", "--n", "1", "--level", "2", "--mu1", "1", "--spec", "mu2"],
     "bad specialization entry 'mu2'"),
    (["dims", "verma", "--n", "1", "--level", "2", "--spec", "mu1=1/0"],
     "zero denominator in '1/0'"),
    (["verify", "density", "--n", "1", "--box", "1", "--spec", "mu1=2,mu1=3"],
     "specialization key 'mu1' listed twice"),
    (["dims", "verma", "--n", "1", "--level", "2", "--spec", "mu1=2", "--mu1", "3"],
     "specialization key 'mu1' listed twice (spec and --mu1)"),
    (["dims", "verma", "--n", "1", "--level", "2", "--spec", "foo=1,mu99=2"],
     "specialization key 'foo' is not one of mu1 to mu1, a, b, lambda, c"),
    (["dims", "verma", "--n", "1", "--level", "2", "--spec", "mu99=2"],
     "specialization key 'mu99' is not one of mu1 to mu1"),
    (["verify", "density", "--n", "1", "--box", "2", "--spec", "mu2=1"],
     "specialization key 'mu2' is not one of mu1 to mu1"),
    (["verify", "density", "--n", "2", "--box", "1", "--spec", "mu0=1"],
     "specialization key 'mu0' is not one of mu1 to mu2"),
    (["verify", "verma", "--spec", "C=1"],
     "specialization key 'C' is not one of mu1 to mu2"),
])
def test_bad_specialization_is_usage_error(capsys, argv, named):
    """--mu1 and --spec are read inside main's error handling: bad text,
    a zero denominator, a repeated key or a key that names no indeterminate
    of the rank exits 2 with one error line."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) and named in captured.err


def test_dims_count_past_the_recursion_limit_is_usage_error(capsys):
    """A shift whose words are too long to count within the recursion limit
    exits 2 with one error line.  At shift (-3, 0) in box (30, 61) the letter
    budget 61 is below reach((-3, 0)) = 93, so the clipped budget binds and
    the count recurses once per letter, some 60 deep.  The limit is lowered
    to some 60 frames above this one, so the count meets it after a few
    dozen letters rather than the many seconds of a count at the default
    limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        code = main(["dims", "verma", "--n", "2", "--shift", "-3,0",
                     "--boxes", "30"])
    finally:
        sys.setrecursionlimit(limit)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err)
    assert "the words at shift (-3, 0) in TruncationBox(N=30, L=61) are " \
        "too long to count" in captured.err


def test_dims_level_past_max_pairs_counts_within_the_recursion_limit(capsys):
    """A rank-1 level, where the letter budget cannot bind, counts its p(200)
    words at the default recursion limit and exits 2 on MAX_PAIRS, not on
    the recursion limit."""
    code = main(["dims", "verma", "--n", "1", "--level", "200"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err)
    assert "the weight space at shift (-200,) in TruncationBox(N=200, L=200) " \
        "holds 3972999029388 words, more than 1000000" in captured.err


def test_config_key_listed_twice_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nbox = 1\nn = 3\n")
    code = main(["verify", "density", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err)
    assert "config key 'n' listed twice" in captured.err


@pytest.mark.parametrize("key", ["n", "box", "seed", "jobs"])
def test_config_integer_names_its_key(tmp_path, capsys, key):
    """A non-integer setting, from a config file or a flag, exits 2 with one
    error line that names its key."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = x\n")
    for extra in (["--config", str(cfg)], [f"--{key}", "x"]):
        code = main(["verify", "density"] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert _one_error_line(captured.err)
        assert f"--{key} (or config key {key!r}) entry 'x' is not an integer" \
            in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "gvm", "--n", "2", "--boxes", "3..1"],
    ["dims", "gvm", "--n", "2", "--kappa", "0", "--boxes", "3..1"],
    ["dims", "verma", "--n", "2", "--shift", "-1,0", "--boxes", "3..1"],
    ["dims", "verma", "--n", "2", "--shift", "-1,0", "--boxes", ","],
])
def test_empty_radius_list_is_usage_error(capsys, argv):
    """A radius list naming no radius is an error, never the default radii."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) and "names no radius" in captured.err


@pytest.mark.parametrize("argv, named", [
    (["dims", "verma", "--n", "2", "--level", "2", "--shift", "-1,0"],
     "--level takes neither --shift nor --boxes"),
    (["dims", "verma", "--n", "1", "--level", "2", "--boxes", "1..3"],
     "--level takes neither --shift nor --boxes"),
    (["dims", "verma", "--n", "2", "--shift", "-1,0", "--kappa", "1"],
     "--kappa applies to dims gvm only"),
    (["dims", "gvm", "--n", "2", "--kappa", "0", "--shift", "-1,0"],
     "--shift and --level apply to dims verma only"),
    (["dims", "gvm", "--n", "2", "--level", "1"],
     "--shift and --level apply to dims verma only"),
    (["dims", "verma", "--n", "2", "--shift", "-1,0", "--boxes", "1..2",
      "--box", "7"], "--box (or config key 'box') does not apply to dims"),
    (["dims", "gvm", "--n", "2", "--kappa", "0", "--seed", "9"],
     "--seed (or config key 'seed') does not apply to dims"),
    # validation runs before the refusal of a key dims does not read
    (["dims", "verma", "--n", "1", "--level", "2", "--box", "0"],
     "box radii must be >= 1"),
    (["dims", "gvm", "--n", "2", "--kappa="], "--kappa needs a value"),
    (["dims", "verma", "--n", "1", "--level", "70"],
     "at shift (-70,) in TruncationBox(N=70, L=70) holds 4087968 words, "
     "more than 1000000"),
])
def test_dims_flag_the_target_would_ignore_is_usage_error(capsys, argv, named):
    """A dims flag that the chosen target does not read exits 2, so no
    report echoes a setting it did not use; so do an empty --kappa, which
    is not read as 0, and a weight space of more than MAX_PAIRS words,
    refused before it is listed."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) and named in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["dims", "verma", "--n", "2", "--shift", "-1,0", "--boxes="], "--boxes"),
    (["dims", "verma", "--n", "2", "--shift", "-1,0", "--spec="], "--spec"),
    (["dims", "verma", "--n", "2", "--shift", "-1,0", "--out="], "--out"),
    (["dims", "verma", "--n", "1", "--level", "2", "--mu1="], "--mu1"),
    (["dims", "verma", "--n", "2", "--shift="], "--shift"),
    (["dims", "gvm", "--n", "2", "--kappa="], "--kappa"),
    (["verify", "jacobi", "--config="], "--config"),
    (["verify", "jacobi", "--input="], "--input"),
])
def test_empty_flag_value_is_usage_error(capsys, argv, flag):
    """An empty flag value exits 2 naming the flag; it is never read as an
    absent flag, so --boxes= cannot run the default radii."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err)
    assert f"error: {flag} needs a value" in captured.err


@pytest.mark.parametrize("argv, named", [
    (["dims", "gvm", "--n", "2", "--kappa", "1,x"], "--kappa entry 'x'"),
    (["dims", "gvm", "--n", "3", "--kappa", "1,"], "--kappa entry ''"),
    (["dims", "verma", "--n", "2", "--shift", "-1,y"], "--shift entry 'y'"),
    (["dims", "verma", "--n", "2", "--shift", "-1.5,0"], "--shift entry '-1.5'"),
    (["dims", "verma", "--n", "2", "--shift", "-1,0", "--boxes", "1..z"],
     "--boxes entry 'z'"),
    (["dims", "verma", "--n", "2", "--shift", "-1,0", "--boxes", "..3"],
     "--boxes entry ''"),
    (["dims", "verma", "--n", "2", "--shift", "-1,0", "--boxes", "1,q"],
     "--boxes entry 'q'"),
])
def test_non_integer_entry_names_its_flag(capsys, argv, named):
    """A --kappa, --shift or --boxes entry that is not an integer exits 2
    with one error line naming the flag and the entry."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err)
    assert f"error: {named} is not an integer" in captured.err


@pytest.mark.parametrize("key, value", [("seed", "9"), ("boxes", "1..3"),
                                        ("spec", "mu1=2")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_normalize_refuses_a_key_it_does_not_read(tmp_path, capsys, key, value,
                                                  source):
    """normalize reads n and box only; any other key exits 2 with no report."""
    theta = str(Path(__file__).parent / "golden" / "theta_normalize.json")
    argv = ["normalize", "--input", theta, "--box", "2"]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 2\n{key} = {value}\n")
        argv += ["--config", str(cfg)]
    else:
        argv += [f"--{key}", value]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) and \
        f"--{key} (or config key '{key}') does not apply to normalize" in captured.err


def test_dims_refuses_a_seed_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nseed = 5\n")
    code = main(["dims", "gvm", "--config", str(cfg), "--kappa", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) and "config key 'seed'" in captured.err


@pytest.mark.parametrize("argv, key", [
    (["verify", "verma", "--n", "5"], "n"),
    (["verify", "verma", "--box", "9"], "box"),
    (["verify", "verma", "--spec", "mu1=3"], "spec"),
    (["verify", "jacobi", "--boxes", "1..3"], "boxes"),
    (["verify", "jacobi", "--spec", "mu1=3"], "spec"),
    (["verify", "cocycle", "--spec", "mu1=3"], "spec"),
    (["verify", "density", "--boxes", "1..3"], "boxes"),
    (["verify", "gvm", "--box", "9"], "box"),
    (["verify", "gvm", "--spec", "mu1=3"], "spec"),
    (["verify", "all", "--boxes", "1..2"], "boxes"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_flag_the_suite_does_not_read_is_warned(tmp_path, capsys,
                                                       monkeypatch, argv, key,
                                                       source):
    """A verify flag or config key that run_suite does not pass to the suite
    gets one warning line on stderr; the run, its exit code and the report's
    config echo are as without the warning."""
    import solvir.verification

    monkeypatch.setattr(solvir.verification, "run_suite",
                        lambda *a, **k: [{"id": "stub", "status": "pass"}])
    out_file = tmp_path / "r.json"
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {argv[3]}\n")
        argv = argv[:2] + ["--config", str(cfg)]
    code = main(argv + ["--out", str(out_file), "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == ""
    assert captured.err == (f"warning: --{key} (or config key '{key}') does "
                            f"not apply to verify {argv[1]}; the report "
                            f"echoes it unused\n")
    assert json.loads(out_file.read_text())["status"] == "pass"


def test_verify_warns_once_per_unread_flag_and_still_runs(capsys):
    code = main(["verify", "verma", "--n", "5", "--box", "9",
                 "--spec", "mu1=3", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 0
    assert [line.split(" (")[0] for line in captured.err.splitlines()] == \
        ["warning: --box", "warning: --n", "warning: --spec"]
    report = json.loads(captured.out)
    assert report["status"] == "pass"
    assert report["config"] == {"n": 5, "box": 9, "boxes": [], "seed": 7,
                                "spec": {"mu1": "3"}}


@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_cocycle_input_warns_on_seed(tmp_path, capsys, source):
    """The cocycle suite scans an --input cochain honestly and reads no
    seed, so a seed gets the warning line; without --input it is read."""
    theta = str(Path(__file__).parent / "golden" / "theta_normalize.json")
    seed = ["--seed", "5"]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        seed = ["--config", str(cfg)]
    code = main(["verify", "cocycle", "--input", theta, "--box", "2"] + seed)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ("warning: --seed (or config key 'seed') does not "
                            "apply to verify cocycle --input; the report "
                            "echoes it unused\n")
    assert json.loads(captured.out)["config"]["seed"] == 5
    code = main(["verify", "cocycle", "--input", theta, "--box", "2",
                 "--n", "2"])
    assert code == 0 and capsys.readouterr().err == ""


def test_verify_with_only_the_flags_its_suite_reads_is_silent(capsys):
    code = main(["verify", "verma", "--seed", "7", "--jobs", "2"])
    assert code == 0 and capsys.readouterr().err == ""


FLAG_VALUES = {"n": ("3", 3), "box": ("2", 2), "seed": ("7", 7),
               "spec": ("mu1=2", {"mu1": Fraction(2)}), "boxes": ("1..2", [1, 2])}


@pytest.mark.parametrize("name", list(SUITES))
def test_verify_passes_run_suite_exactly_the_keys_of_the_table(capsys,
                                                               monkeypatch, name):
    """run_suite receives the suite's keys from cli.SUITES, each with the
    value of its flag, and no other setting."""
    import solvir.verification

    calls = []
    monkeypatch.setattr(solvir.verification, "run_suite",
                        lambda *a, **k: calls.append((a, k)) or [])
    argv = ["verify", name]
    for key in SUITES[name]:
        argv += [f"--{key}", FLAG_VALUES[key][0]]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert calls == [((name,), {key: FLAG_VALUES[key][1] for key in SUITES[name]})]


def test_verify_density_reads_its_spec(capsys):
    """--spec reaches the density suite: its duality record spot-checks the
    specialization, and no warning is printed."""
    code = main(["verify", "density", "--n", "2", "--box", "1", "--spec", "mu1=3"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    duality = next(c for c in json.loads(captured.out)["checks"]
                   if c["id"] == "density/n=2/duality_residuals")
    assert duality["details"]["numeric_spot_check"] == "0"


def test_verify_gvm_without_boxes_ranks_radii_one_to_four(capsys):
    """The gvm suite's default radii are 1..4, and the report echoes the
    boxes as given: none."""
    code, out = run_cli(["verify", "gvm", "--n", "2", "--seed", "0"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["boxes"] == []
    code, out = run_cli(["verify", "gvm", "--n", "2", "--seed", "0",
                         "--boxes", "1..4"], capsys)
    assert code == 0
    assert json.loads(out)["checks"] == report["checks"]
    ranks = next(c for c in report["checks"]
                 if c["id"] == "gvm/n=2/level1_quotient_ranks")
    assert [len(t["ranks"]) for t in ranks["details"]["tables"]] == [4, 4, 4]


@pytest.mark.parametrize("argv, named", [
    (["dims", "verma", "--level", "x"], "--level entry 'x' is not an integer"),
    (["bracket", "e[1]", "e[0]", "--n", "x"], "--n entry 'x' is not an integer"),
    (["dims", "foo"], "argument target: invalid choice: 'foo'"),
    (["normalize"], "the following arguments are required: --input"),
    (["verify", "jacobi", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["verify", "bogus"], "argument suite: invalid choice: 'bogus'"),
])
def test_argparse_usage_error_is_one_error_line(capsys, argv, named):
    """A value argparse used to parse, or an argument it refuses, exits 2
    with one error line naming the flag or argument, not the usage text."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) and named in captured.err


E61 = "e[" + ",".join(["1"] + ["0"] * 60) + "]"


@pytest.mark.parametrize("argv, named", [
    (["verify", "jacobi", "--n", "61", "--box", "1"], "rank n must be in 1..60"),
    (["verify", "verma", "--n", "61"], "rank n must be in 1..60"),
    (["bracket", E61, E61], "rank n must be in 1..60"),
    (["normalize", "--input", "RANK61", "--box", "2"], "rank n must be in 1..60"),
    (["verify", "density", "--n", "40", "--box", "1"],
     "the rank-40 box of radius 1 has more than 1000000 points"),
])
def test_rank_or_box_past_the_limits_is_usage_error(tmp_path, capsys, argv, named):
    """A rank past the scalar kernel's mu slots, or a box past
    MAX_BOX_POINTS points, exits 2 before any work."""
    rank61 = tmp_path / "rank61.json"
    rank61.write_text(json.dumps({"n": 61, "canonical_multiple": "1",
                                  "coboundary": [[[1] + [0] * 60, "2"]],
                                  "extra": []}))
    code = main([str(rank61) if arg == "RANK61" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) and named in captured.err


@pytest.mark.parametrize("argv, named", [
    (["verify", "jacobi", "--n", "12", "--box", "1"],
     "the rank-12 scan of radius 1 walks 282429536481 pairs"),
    (["verify", "cocycle", "--n", "12", "--box", "1"],
     "the rank-12 scan of radius 1 walks 282429536481 pairs"),
    (["verify", "cocycle", "--input", "RANK12", "--box", "1"],
     "the rank-12 input scan of radius 1 walks 564859072962 pairs"),
    (["verify", "density", "--n", "12", "--box", "1"],
     "the rank-12 density suite of radius 1 walks 282429536481 pairs"),
    (["verify", "gvm", "--n", "12", "--boxes", "1"],
     "the rank-12 level-one pairing walks 31381059609 pairs"),
    (["dims", "gvm", "--n", "12", "--boxes", "1"],
     "the rank-12 level-one pairing walks 31381059609 pairs"),
    # the default radii 1..4 reach a rank-11 box past MAX_BOX_POINTS
    (["verify", "gvm", "--n", "12"], "the rank-11 box of radius 2 has more than"),
])
def test_walk_past_the_pair_limit_is_usage_error(tmp_path, capsys, argv, named):
    """A scan, suite or pairing walking more than MAX_PAIRS pairs exits 2
    before any work."""
    rank12 = tmp_path / "rank12.json"
    rank12.write_text(json.dumps({"n": 12, "canonical_multiple": "1",
                                  "coboundary": [[[1] + [0] * 11, "2"]],
                                  "extra": []}))
    code = main([str(rank12) if arg == "RANK12" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) and named in captured.err


def test_reports_validate_against_schema(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    with open(schema_path()) as f:
        schema = json.load(f)
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


def test_console_entry_point_subprocess(tmp_path, solvir_env):
    out_file = tmp_path / "r.json"
    result = subprocess.run(
        [sys.executable, "-m", "solvir.cli", "verify", "verma",
         "--seed", "3", "--out", str(out_file)],
        capture_output=True, text=True, env=solvir_env)
    assert result.returncode == 0
    assert json.loads(out_file.read_text())["status"] == "pass"
