"""Module-level imports of the solvir sources and tests, read with ast.

No import is unused, in the sources or the tests, and no module reaches into
the representation that scalars owns: the only underscore names imported
from scalars are the grammar internals algebra drives to read elements.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "solvir"
MODULES = sorted(SRC.glob("*.py"))
SCALARS_INTERNALS = {"algebra": {"_parse_point", "_signed_terms", "_TokenStream"}}


def _imports(tree):
    """(bound name, module, imported name) of each module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.module or "", alias.name


# the package's own imports are its public namespace
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"]
                         + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_module_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(bound for bound, _, _ in _imports(tree) if bound not in used)
    assert not unused, f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scalars_internals_stay_in_scalars(path):
    tree = ast.parse(path.read_text())
    allowed = SCALARS_INTERNALS.get(path.stem, set())
    leaked = sorted(name for _, module, name in _imports(tree)
                    if module.split(".")[-1] == "scalars" and name
                    and name.startswith("_") and name not in allowed)
    assert not leaked, f"{path.name} imports {leaked} from scalars"
