import os
from pathlib import Path

import pytest

import solvir
from solvir import algebra, cocycle, density


@pytest.fixture
def solvir_env():
    """Environment for a `python -m solvir.cli` child process whose import
    path starts with the directory holding the solvir this process imported,
    so the child runs the code under test and not an installed copy."""
    env = dict(os.environ)
    root = str(Path(solvir.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def fresh_identities():
    """Clears the cached symbolic identities before and after the test, so
    an identity the test computes under a patched rule is neither read from
    an earlier test nor left cached for a later one."""
    identities = (algebra.witt_jacobi_symbolic_identity,
                  cocycle.canonical_cocycle_identity,
                  cocycle.coboundary_cocycle_identity,
                  density.density_axiom_symbolic_identity)
    for identity in identities:
        identity.cache_clear()
    yield
    for identity in identities:
        identity.cache_clear()
