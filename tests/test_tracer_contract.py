"""The names the benchmark's tracer wraps or reads exist in solvir.

benchmarks/tracer.py rebinds solvir's functions and methods by name and
reads the lru caches of algebra through cache_info(); a name it cannot
resolve would break only the benchmark's traced run.  These tests read the
tracer's tables and resolve each name with the tracer's own lookup, which
takes methods from the class __dict__; they install nothing.
"""

import importlib
import importlib.util
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
