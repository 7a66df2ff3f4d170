"""The names the benchmark's tracer wraps or reads exist in solvir.

benchmarks/tracer.py rebinds solvir's functions and methods by name and
reads the lru caches of algebra through cache_info(); a name it cannot
resolve would break only the benchmark's traced run.  The first tests read
the tracer's tables and resolve each name with the tracer's own lookup,
which takes methods from the class __dict__; only the last two install the
tracer, and in a child interpreter.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("solvir_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    names = tracer.COARSE + tracer.HOT
    modules = {m: importlib.import_module(f"solvir.{m}") for m, _ in names}
    missing = []
    for module, qualname in names:
        try:
            tracer._resolve(modules, module, qualname)
        except (AttributeError, KeyError):
            missing.append(f"{module}.{qualname}")
    assert missing == []


def test_every_cache_has_cache_info(tracer):
    algebra = importlib.import_module("solvir.algebra")
    for name in tracer.CACHES:
        assert callable(getattr(algebra, name).cache_info), name


def _run_traced(solvir_env, code):
    """code run in a child interpreter that can import the tracer."""
    env = dict(solvir_env)
    env["PYTHONPATH"] = os.pathsep.join([str(TRACER.parent), env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_install_leaves_no_unwrapped_reference(solvir_env):
    """install() ends in check_coverage, which raises when a solvir module
    still holds an unwrapped original, such as a traced method aliased as a
    module function.  It runs in a child, since it rebinds solvir's names."""
    _run_traced(solvir_env, "import tracer; tracer.Tracer('install').install()")


def test_residuals_reach_the_traced_names(solvir_env):
    """One basis-triple Jacobi residual and one cocycle residual, run under
    the tracer, reach vir_bracket and TwoCochain.value.  The benchmark
    predicts algebra.bracket_calls and cocycle.value_calls from these names,
    so a kernel that bypasses them fails here and not only in a traced run."""
    out = _run_traced(solvir_env, (
        "import tracer\n"
        "t = tracer.Tracer('contract'); t.install()\n"
        "from solvir import algebra, cocycle\n"
        "e = lambda p: algebra.basis_element(2, p)\n"
        "algebra.jacobi_residual(e((1, 0)), e((0, 1)), e((-1, -1)))\n"
        "cocycle.cocycle_residual(cocycle.canonical_cochain(2), (1, 0), (0, 1), (-1, -1))\n"
        "calls = t.report()['calls']\n"
        "print(calls.get('vir_bracket', 0), calls.get('TwoCochain.value', 0))\n"))
    brackets, values = map(int, out.split())
    assert brackets > 0 and values > 0


def test_scans_reach_the_traced_names(solvir_env):
    """The four box scans, run under the tracer, reach jacobi_residual,
    cocycle_residual, vir_bracket and TwoCochain.value, through their
    per-scan memos too; a scan that bypassed one of them would read zero
    in the benchmark's layer counters."""
    out = _run_traced(solvir_env, (
        "import tracer\n"
        "t = tracer.Tracer('contract'); t.install()\n"
        "from solvir import verification as ver\n"
        "ver.jacobi_full_scan(1, 1); ver.jacobi_zero_sum_scan(2, 1)\n"
        "ver.cocycle_full_scan(1, 1); ver.cocycle_zero_sum_scan(2, 1)\n"
        "by_scan = t.report()['by_parent']\n"
        "for scan in ('jacobi_full_scan', 'jacobi_zero_sum_scan',\n"
        "             'cocycle_full_scan', 'cocycle_zero_sum_scan'):\n"
        "    calls = {k: v[0] for k, v in by_scan.get(scan, {}).items()}\n"
        "    print(scan, *(calls.get(k, 0) for k in ('jacobi_residual',\n"
        "          'vir_bracket', 'cocycle_residual', 'TwoCochain.value')))\n"))
    counts = {scan: list(map(int, rest))
              for scan, *rest in (line.split() for line in out.splitlines())}
    for scan in ("jacobi_full_scan", "jacobi_zero_sum_scan"):
        residuals, brackets, _, _ = counts[scan]
        assert residuals > 0 and brackets > 0, scan
    for scan in ("cocycle_full_scan", "cocycle_zero_sum_scan"):
        _, _, residuals, values = counts[scan]
        assert residuals > 0 and values > 0, scan
