"""Module-level imports of the solvir sources and tests, read with ast.

No import is unused, in the sources or the tests, and no module reaches into
the representation that scalars owns: the only underscore names imported
from scalars are the grammar internals algebra drives to read elements, and
only linalg uses Polynomial.  A cold `import solvir.cli` stays off the heavy
stdlib modules.
"""

import ast
import os
import subprocess
import sys
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


def test_polynomial_stays_in_scalars_and_linalg():
    """Only linalg's fraction-free elimination reaches Polynomial, besides
    the package namespace that re-exports it; an identity elsewhere is the
    library's own residual, never a polynomial copied beside the code."""
    users = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        if any(name == "Polynomial" for _, _, name in _imports(tree)) or any(
                isinstance(node, ast.Attribute) and node.attr == "Polynomial"
                for node in ast.walk(tree)):
            users.append(path.stem)
    assert users == ["__init__", "linalg"]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """A cold `import solvir.cli` loads none of dataclasses, inspect and
    pathlib; -S keeps site .pth files from preloading modules into the child."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys, solvir.cli; "
             "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
