"""The mutation table of tools/mutants.py stays in step with the source;
no mutant runs here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_edits_text_that_occurs_once():
    mutants = _mutants()
    assert len({mid for mid, *_ in mutants}) == len(mutants)
    for mid, path, old, new, reason in mutants:
        assert old != new and reason, mid
        assert (ROOT / path).read_text().count(old) == 1, mid
