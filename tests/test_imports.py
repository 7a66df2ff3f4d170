"""Module-level imports of the solvir sources and tests, read with ast.

No import is unused, in the sources or the tests, and no module reaches into
the representation that scalars owns: the only underscore names imported
from scalars are the grammar internals algebra drives to read elements, only
linalg uses Polynomial, and no module but scalars reads an attribute named
num, forms, t or d.  Only algebra imports eta0.  A cold `import
solvir` or `import solvir.cli` loads no layer and stays off the heavy stdlib
modules, and each CLI command loads only the layers it runs.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solvir

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "solvir"
MODULES = sorted(SRC.glob("*.py"))
SCALARS_INTERNALS = {"algebra": {"_parse_point", "_signed_terms", "_TokenStream"}}
# the fields of Scalar (num, forms) and of Polynomial (t, d)
REPRESENTATION = {"num", "forms", "t", "d"}


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
    the package namespace whose table re-exports it; an identity elsewhere
    is the library's own residual, never a polynomial copied beside the code."""
    users = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        if any(name == "Polynomial" for _, _, name in _imports(tree)) or any(
                isinstance(node, ast.Attribute) and node.attr == "Polynomial"
                for node in ast.walk(tree)):
            users.append(path.stem)
    assert users == ["linalg"]
    assert solvir._MODULE_OF["Polynomial"] == "scalars"


def test_only_scalars_reads_the_representation():
    """Scalar and Polynomial methods are the one way into a scalar: no other
    module reads num, forms, t or d, so a change of representation touches
    scalars alone."""
    readers = [path.stem for path in MODULES if path.stem != "scalars" and any(
        isinstance(node, ast.Attribute) and node.attr in REPRESENTATION
        for node in ast.walk(ast.parse(path.read_text())))]
    assert readers == []


def test_eta0_stays_in_algebra():
    """The bracket is the one source of the central coefficient: no other
    module imports eta0, at module level or inside a function."""
    users = [path.stem for path in MODULES if path.stem != "algebra" and any(
        isinstance(node, ast.ImportFrom) and "eta0" in {a.name for a in node.names}
        for node in ast.walk(ast.parse(path.read_text())))]
    assert users == []


def _child_modules(code):
    """The solvir modules, and which of a few heavy stdlib modules, a fresh
    interpreter has loaded after running code; -S keeps site .pth files from
    preloading modules into the child."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = (code + "\nimport sys; print(*sorted(m for m in sys.modules if "
             "m.split('.')[0] in ('solvir', 'dataclasses', 'inspect', "
             "'pathlib', 'fractions')))")
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()[-1].split()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """A cold `import solvir` loads no layer, and a cold `import solvir.cli`
    loads only solvir.errors besides the package and the CLI.  Neither loads
    dataclasses, inspect, pathlib or fractions, which pulls in decimal."""
    assert _child_modules("import solvir") == ["solvir"]
    assert _child_modules("import solvir.cli") == ["solvir", "solvir.cli",
                                                   "solvir.errors"]


def test_bracket_command_loads_only_its_layers():
    loaded = _child_modules("import solvir.cli\n"
                            "solvir.cli.main(['bracket', 'e[1,0]', 'e[0,1]'])")
    assert "solvir.algebra" in loaded
    assert not {"solvir." + m for m in ("verification", "cocycle", "density",
                                        "verma", "gvm", "linalg")} & set(loaded)


@pytest.mark.parametrize("argv, layers", [
    (["verify", "jacobi", "--box", "1", "--seed", "3"],
     {"algebra", "errors", "scalars", "verification"}),
    (["verify", "verma", "--seed", "3"],
     {"algebra", "errors", "scalars", "verification", "verma"}),
    (["normalize", "--input", str(TESTS / "golden" / "theta_normalize.json"),
      "--box", "2"], {"algebra", "cocycle", "errors", "scalars"}),
], ids=["jacobi", "verma", "normalize"])
def test_verify_suite_loads_only_its_layers(argv, layers):
    """verification imports each suite's layers inside that suite, and the
    Jacobi scans read algebra.sorted_triples, not cocycle; cocycle imports
    linalg only inside h2_rank_experiment, so normalize leaves it out."""
    loaded = _child_modules(
        "import os, solvir.cli\n"
        f"solvir.cli.main([*{argv!r}, '--out', os.devnull])")
    assert set(loaded) == {"solvir", "solvir.cli", "fractions"} | {
        "solvir." + m for m in layers}


def test_namespace_table_names_each_submodule_object():
    """Each public name of the package is its submodule's own object and is
    listed by dir() and __all__; a name outside the table is an error."""
    for name, module in solvir._MODULE_OF.items():
        own = getattr(importlib.import_module(f"solvir.{module}"), name)
        assert getattr(solvir, name) is own, name
    assert set(solvir._MODULE_OF) <= set(dir(solvir))
    assert solvir.__all__ == sorted(solvir._MODULE_OF)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        solvir.no_such_name
