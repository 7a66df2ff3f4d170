"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps it out of the repository's default test collection; pass
it to pytest explicitly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"norm_wall_s", "setup_s", "peak_rss_mib", "verified_frac"}


def bench(*args, cwd=run.ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_tiny(workload):
    rc, result, proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--size", "tiny")
    assert rc == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert result["metrics"]["verified_frac"]["value"] == 1.0
    assert all(d["value"] > 0 for d in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    rc, result, proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--size", "tiny")
    assert rc == 0, proc.stdout + proc.stderr
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.IN_PROCESS)
def test_traced_and_untraced_results_identical(workload):
    runner = run.Runner(deadline=float("inf"))
    run.WORK.mkdir(exist_ok=True)
    plain = run.in_process_pass(runner, workload, 5, "tiny", trace=False)
    traced = run.in_process_pass(runner, workload, 5, "tiny", trace=True)
    assert not plain.failures and not traced.failures
    assert plain.digest == traced.digest
    assert traced.trace["spans"]


def _fingerprint(workload, inputs):
    from solvir.algebra import element_str

    if workload == "scan":
        return [[element_str(x) for x in t] for t in inputs["triples"]]
    if workload == "normalize":
        return [[c.to_records() for c in pair] for pair in inputs["cochains"]]
    return [str(w) for w in inputs["words"]]


@pytest.mark.parametrize("workload", workloads.IN_PROCESS)
def test_inputs_depend_only_on_seed(workload):
    a, b, c = (_fingerprint(workload, workloads.make_inputs(workload, seed, "full"))
               for seed in (11, 11, 12))
    assert a == b
    assert a != c


def _non_cocycle(theta):
    from solvir.cocycle import TwoCochain

    return theta + TwoCochain(2, 0, None, {((1, 0), (0, 1)): 1})


def test_non_cocycle_counts_as_failure_in_process():
    inputs = workloads.make_inputs("normalize", 4, "tiny")
    inputs["cochains"] = [(_non_cocycle(a), b) for a, b in inputs["cochains"]]
    result = workloads.run_pass("normalize", inputs)
    assert result["attempted"] == 2
    assert len(result["failures"]) == 1
    assert "NotACocycleError" in result["failures"][0]


def test_non_cocycle_counts_as_failure_in_cli():
    run.WORK.mkdir(exist_ok=True)
    inputs = run.make_cli_inputs(4, "tiny")
    theta = json.loads(inputs["theta_path"].read_text())
    theta["extra"] = [[[1, 0], [0, 1], "1"]]
    inputs["theta_path"].write_text(json.dumps(theta))
    try:
        result = run.cli_pass(run.Runner(float("inf")), run.CliChecker(), inputs,
                              trace=False)
    finally:
        inputs["theta_path"].unlink()
    assert [f.split(":")[0] for f in result.failures] == ["normalize"]


def test_wrong_bracket_output_is_rejected():
    checker = run.CliChecker()
    expected = run._expected_bracket([(1, (1, 0))], [(1, (-1, 0))])
    assert checker.bracket(b"-2*mu1*e[0,0] + ((mu1^3-mu1)/12)*c\n", expected)
    assert not checker.bracket(b"-2*mu1*e[0,0]\n", expected)


def test_zero_counter_fails_coverage():
    empty = {"layer": {}, "calls": {}, "incl": {}, "self": {}, "extra": {},
             "spans": []}
    values = run.layer_metrics(empty, {}, 1.0)
    for workload, names in run.PREDICTED_NONZERO.items():
        assert [k for k in names if not values[k]], workload


def test_fails_without_sources():
    alone = run.WORK / "alone"
    shutil.rmtree(alone, ignore_errors=True)
    shutil.copytree(HERE, alone / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", alone)
    try:
        rc, _, proc = bench("--workload", "scan", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=alone,
                            script=alone / HERE.name / "run.py")
        assert rc != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(alone)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
