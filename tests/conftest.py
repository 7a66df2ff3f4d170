import os
from pathlib import Path

import pytest

import solvir
from solvir import algebra, cocycle, density, verma
from solvir.algebra import CENTRAL
from solvir.scalars import Scalar


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


@pytest.fixture
def patch_bracket(fresh_identities, monkeypatch):
    """patch(wrong) makes the basis bracket wrong(terms, ka, kb) of a dict
    copy of the true terms, in algebra, cocycle and verma, the modules that
    read it; the dict goes back to the table's tuple of (key, Scalar) pairs
    in its own order, so a CENTRAL key the rule adds comes last."""
    right = algebra._basis_bracket_terms

    def patch(wrong):
        def terms(ka, kb):
            return tuple(wrong(dict(right(ka, kb)), ka, kb).items())

        for module in (algebra, cocycle, verma):
            monkeypatch.setattr(module, "_basis_bracket_terms", terms)

    return patch


@pytest.fixture
def wrong_bracket(patch_bracket):
    """Central term eta(t) = t^5: skew, but not a cocycle."""
    def quintic(terms, ka, kb):
        if not any(a + b for a, b in zip(ka, kb)) and any(ka):
            terms[CENTRAL] = Scalar.mu_form(ka) ** 5
        return terms

    patch_bracket(quintic)


@pytest.fixture
def squared_bracket(patch_bracket):
    """The Witt coefficient (mu.(beta - alpha))^2 in place of mu.(beta - alpha)."""
    patch_bracket(lambda terms, ka, kb: {
        key: base if key == CENTRAL else base ** 2 for key, base in terms.items()})
