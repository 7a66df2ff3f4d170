import itertools
import json
import random
from fractions import Fraction

import pytest

from solvir import density
from solvir.algebra import SolenoidalAlgebra, basis_element, central_element
from solvir.cli import main
from solvir.cocycle import box_points
from solvir.density import (
    IRREDUCIBLE,
    REDUCIBLE_CODIM_ONE,
    REDUCIBLE_TRIVIAL_SUB,
    DensityParams,
    DensityVector,
    basis_vector,
    classify_density,
    density_act,
    density_axiom_residual,
    density_axiom_symbolic_identity,
    duality_check,
    formal_params,
    lattice_params,
    parse_density_vector,
    submodule_invariance_check,
)
from solvir.errors import WrongCaseError
from solvir.scalars import A, B, ONE, ZERO, Scalar, mu_poly
from solvir.verification import suite_density

A2 = SolenoidalAlgebra(2)
P = formal_params(2)


def mu(alpha):
    return Scalar(mu_poly(alpha))


def test_action_on_vacuum_type_vector():
    out = density_act(A2.e(1, 0), basis_vector(2, (0, 0)), P)
    assert out == basis_vector(2, (1, 0)).scale(A + mu((1, 0)) * B)


def test_central_acts_by_zero():
    v = basis_vector(2, (3, -2)) + basis_vector(2, (0, 0)).scale(5)
    assert density_act(central_element(2), v, P).is_zero()


def test_weight_vector_property():
    for beta in box_points(2, 2):
        out = density_act(A2.d(), basis_vector(2, beta), P)
        assert out == basis_vector(2, beta).scale(A + mu(beta))


def test_axiom_residual_exhaustive_basis_pairs():
    pts = box_points(2, 2)
    targets = [(0, 0), (1, 0), (0, -1)]
    for alpha, beta in itertools.product(pts, repeat=2):
        x, y = A2.e(alpha), A2.e(beta)
        for kappa in targets:
            res = density_axiom_residual(x, y, basis_vector(2, kappa), P)
            assert res.is_zero(), (alpha, beta, kappa)


def test_density_axiom_symbolic_identity():
    assert density_axiom_symbolic_identity() is True


def _wrong_action(monkeypatch):
    """act_coefficient as (mu.alpha)^2 b."""
    monkeypatch.setattr(density, "act_coefficient",
                        lambda alpha, beta, p: mu(alpha) * mu(alpha) * p.b)


def test_axiom_identity_reads_a_wrong_action(fresh_identities, monkeypatch):
    _wrong_action(monkeypatch)
    assert density_axiom_symbolic_identity() is False


def test_sampled_cross_check_fails_for_a_wrong_action(fresh_identities, monkeypatch):
    """The identity and the seeded basis re-check both go through
    act_coefficient, so a wrong formula there fails both records."""
    _wrong_action(monkeypatch)
    records = {c["id"]: c for c in suite_density(2, 2, 42, trials=40)}
    assert records["density/n=2/axiom_basis_identity"]["status"] == "fail"
    cross_check = records["density/n=2/axiom_sampled_cross_check"]
    assert cross_check["status"] == "fail"
    assert cross_check["details"]["failures"]


@pytest.mark.parametrize("n, box", [(1, 3), (3, 1)])
def test_verify_density_passes_at_other_ranks(capsys, n, box):
    code = main(["verify", "density", "--n", str(n), "--box", str(box)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["status"] == "pass"
    assert f"density/n={n}/axiom_basis_identity" in {c["id"] for c in report["checks"]}


def _random_element(rng, n=2, box=3):
    out = basis_element(n, tuple(rng.randint(-box, box) for _ in range(n)))
    out = out.scale(rng.randint(-4, 4) or 1)
    for _ in range(rng.randint(0, 2)):
        alpha = tuple(rng.randint(-box, box) for _ in range(n))
        out = out + basis_element(n, alpha).scale(rng.randint(-4, 4))
    if rng.random() < 0.25:
        out = out + central_element(n).scale(rng.randint(1, 3))
    return out


def test_axiom_residual_randomized():
    rng = random.Random(6021)
    for _ in range(100):
        x, y = _random_element(rng), _random_element(rng)
        v = DensityVector(2, {
            tuple(rng.randint(-3, 3) for _ in range(2)): rng.randint(-3, 3) or 1
            for _ in range(2)})
        assert density_axiom_residual(x, y, v, P).is_zero()


def test_degenerate_axiom_cases():
    x = _random_element(random.Random(1))
    v = basis_vector(2, (1, -1))
    assert density_axiom_residual(x, x, v, P).is_zero()
    assert density_axiom_residual(central_element(2), A2.e(1, 0), v, P).is_zero()


def test_classify_formal_is_irreducible():
    assert classify_density(P).case == IRREDUCIBLE
    assert classify_density(DensityParams(2, A, ZERO)).case == IRREDUCIBLE
    assert classify_density(DensityParams(2, A, ONE)).case == IRREDUCIBLE


def test_classify_exceptional_cases():
    c00 = classify_density(DensityParams(2, ZERO, ZERO))
    assert c00.case == REDUCIBLE_TRIVIAL_SUB
    assert c00.witness == {"shift": [0, 0], "b": 0}
    c01 = classify_density(lattice_params(2, (2, -1), 1))
    assert c01.case == REDUCIBLE_CODIM_ONE
    assert c01.witness == {"shift": [2, -1], "b": 1}


def test_classify_rational_constants():
    assert classify_density(DensityParams(2, Scalar.from_rational(Fraction(1, 2)),
                                          ZERO)).case == IRREDUCIBLE
    assert classify_density(DensityParams(2, Scalar.from_rational(0),
                                          ONE)).case == REDUCIBLE_CODIM_ONE


def test_classify_invariant_under_lattice_shift():
    rng = random.Random(12)
    for b in (0, 1):
        base = classify_density(lattice_params(2, (0, 0), b))
        for _ in range(10):
            gamma = tuple(rng.randint(-4, 4) for _ in range(2))
            shifted = classify_density(lattice_params(2, gamma, b))
            assert shifted.case == base.case


def test_untagged_lattice_polynomial_is_generic():
    # membership is decided from declarations only; a bare mu.gamma value
    # without a tag classifies as generic
    p = DensityParams(2, mu((1, 1)), ZERO)
    assert classify_density(p).case == IRREDUCIBLE


def test_submodule_check_trivial_sub():
    report = submodule_invariance_check(DensityParams(2, ZERO, ZERO), 3)
    assert report.ok
    assert dict(report.checks)["invariant_line_v0"]


def test_submodule_check_codim_one():
    report = submodule_invariance_check(lattice_params(2, (1, -1), 1), 3)
    assert report.ok
    assert dict(report.checks)["v0_coefficient_cancels"]


def test_submodule_check_wrong_case():
    with pytest.raises(WrongCaseError):
        submodule_invariance_check(P, 2)


def test_duality_residual_formal():
    for alpha in box_points(2, 3):
        for gamma in box_points(2, 3):
            assert duality_check(P, alpha, gamma).is_zero()


def test_duality_residual_numeric_spot_check():
    p = DensityParams(2, Scalar.from_rational(Fraction(1, 2)),
                      Scalar.from_rational(Fraction(1, 3)))
    res = duality_check(p, (1, 0), (0, 1))
    assert res.is_zero()
    assert res.evaluate({"mu1": 2, "mu2": 3}) == 0


def test_density_vector_text_roundtrip():
    v = (basis_vector(2, (1, -2)).scale(mu((1, 0)) * -3)
         + basis_vector(2, (0, 0)).scale(Fraction(1, 2)))
    text = str(v)
    assert parse_density_vector(text, 2) == v
