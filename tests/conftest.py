import os
from pathlib import Path

import pytest

import solvir


@pytest.fixture
def solvir_env():
    """Environment for a `python -m solvir.cli` child process whose import
    path starts with the directory holding the solvir this process imported,
    so the child runs the code under test and not an installed copy."""
    env = dict(os.environ)
    root = str(Path(solvir.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env
