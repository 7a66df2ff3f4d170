"""Tensor-density modules T_mu(a, b) and their structure theory.

The module has basis {v_beta : beta in Z^n} with action

    E(alpha) . v_beta = (mu.beta + a + (mu.alpha) b) v_{alpha+beta},
    C . v = 0,

for parameters a, b.  Every weight space is one dimensional, so these are
the bounded weight modules.  T_mu(a, b) is irreducible unless b is 0 or 1
and a lies in the lattice Gamma_mu = {mu.gamma}; in the exceptional cases
(reduced to a = 0 by the shift isomorphism v_beta -> v_{beta+gamma}) the
module T(0,0) contains the invariant line through v_0 and T(0,1) contains
the codimension-one submodule spanned by {v_s : s != 0}.

Lattice membership of a is decided structurally, never numerically: a formal
parameter is generic, a declared lattice tag mu.gamma is a member, and a
rational constant is a member exactly when it is zero.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .algebra import (
    CENTRAL,
    GENERIC_TRIPLE,
    AlgebraElement,
    Combination,
    _acc,
    _mu_scalar,
    as_scalar,
    basis_element,
    box_points,
    parse_combination,
    point_str,
    vadd,
    vneg,
    vsub,
    vir_bracket,
)
from .errors import RankMismatchError, WrongCaseError
from .scalars import A, B, ONE, ZERO, Scalar


class DensityParams(namedtuple("DensityParams", "n a b a_lattice_tag")):
    """Parameters (a, b); a may carry a lattice tag declaring a = mu.gamma."""

    __slots__ = ()

    def __new__(cls, n: int, a: Scalar, b: Scalar, a_lattice_tag=None):
        if a_lattice_tag is not None:
            a_lattice_tag = tuple(a_lattice_tag)
            if len(a_lattice_tag) != n:
                raise RankMismatchError(f"tag {a_lattice_tag} in rank-{n} params")
            if _mu_scalar(a_lattice_tag) != a:
                raise ValueError("lattice tag does not match the a parameter")
        return super().__new__(cls, n, a, b, a_lattice_tag)


def formal_params(n: int) -> DensityParams:
    return DensityParams(n, A, B)


def lattice_params(n: int, gamma, b) -> DensityParams:
    gamma = tuple(gamma)
    b = as_scalar(b)
    return DensityParams(n, _mu_scalar(gamma), b, gamma)


class DensityVector(Combination):
    """Finite Scalar combination of basis vectors v_beta."""

    __slots__ = ()

    def _basis_str(self, beta):
        return point_str("v", beta)


def basis_vector(n: int, beta) -> DensityVector:
    return DensityVector(n, {tuple(beta): ONE})


def parse_density_vector(text: str, n: int) -> DensityVector:
    return parse_combination(text, DensityVector(n), "v")


def act_coefficient(alpha, beta, p: DensityParams) -> Scalar:
    """mu.beta + a + (mu.alpha) b."""
    return _mu_scalar(beta) + p.a + _mu_scalar(alpha) * p.b


def density_act(x: AlgebraElement, v: DensityVector, p: DensityParams) -> DensityVector:
    """Bilinear extension of the basis action; the central symbol acts by zero."""
    if x.n != v.n:
        raise RankMismatchError(f"rank {x.n} vs {v.n}")
    acc = {}
    for key, ce in x.terms.items():
        if key == CENTRAL:
            continue
        for beta, cv in v.terms.items():
            _acc(acc, vadd(key, beta), ce * cv * act_coefficient(key, beta, p))
    return v._like(acc)


def density_axiom_residual(x, y, v, p: DensityParams) -> DensityVector:
    """[x,y].v - x.(y.v) + y.(x.v); zero for a genuine module."""
    return (density_act(vir_bracket(x, y), v, p)
            - density_act(x, density_act(y, v, p), p)
            + density_act(y, density_act(x, v, p), p))


@cache
def density_axiom_symbolic_identity() -> bool:
    """density_axiom_residual of (E(e_1), E(e_2), v_{e_3}) in formal T(a, b)
    is zero, expanded exactly.

    The coefficient of v_{alpha+beta+kappa} in the axiom residual of a basis
    triple (E(alpha), E(beta), v_kappa) is one polynomial in x = mu.alpha,
    y = mu.beta, z = mu.kappa, a and b; the central part of
    [E(alpha), E(-alpha)] acts by zero, so no zero-sum case is left over.
    At GENERIC_TRIPLE with formal (a, b) all five are independent, so the
    residual there is the polynomial itself, and with bilinearity its
    vanishing covers the residual of every x, y, v at every rank, box and
    (a, b).  Proved once per process.
    """
    e1, e2, e3 = GENERIC_TRIPLE
    return not density_axiom_residual(basis_element(3, e1), basis_element(3, e2),
                                      basis_vector(3, e3), formal_params(3))


IRREDUCIBLE = "irreducible"
REDUCIBLE_TRIVIAL_SUB = "reducible_trivial_sub"
REDUCIBLE_CODIM_ONE = "reducible_codim_one"


Classification = namedtuple("Classification", "case witness")


def _lattice_membership(p: DensityParams):
    """(member?, shift gamma) decided from the declared shape of a."""
    if p.a_lattice_tag is not None:
        return True, p.a_lattice_tag
    if p.a.as_rational() == 0:
        return True, (0,) * p.n
    return False, None


def classify_density(p: DensityParams) -> Classification:
    """Irreducibility trichotomy of T_mu(a, b)."""
    member, gamma = _lattice_membership(p)
    b_val = None
    if p.b == ZERO:
        b_val = 0
    elif p.b == ONE:
        b_val = 1
    if not member or b_val is None:
        return Classification(IRREDUCIBLE, None)
    case = REDUCIBLE_TRIVIAL_SUB if b_val == 0 else REDUCIBLE_CODIM_ONE
    return Classification(case, {"shift": list(gamma), "b": b_val})


SubmoduleReport = namedtuple("SubmoduleReport", "case box checks ok")


def submodule_invariance_check(p: DensityParams, box: int) -> SubmoduleReport:
    """Certify the exceptional submodule structure inside a box.

    Works on the shifted module with a = 0 (the shift isomorphism moves any
    declared lattice value of a to zero).  For b = 0 the line through v_0 is
    invariant and each v_kappa, kappa != 0, reaches every basis vector of the
    box in one step with a symbolically nonzero coefficient.  For b = 1 the
    span of {v_s : s != 0} is invariant because the v_0 coefficient of
    E(alpha) . v_{-alpha} cancels, and the same reachability holds inside it.
    """
    cls = classify_density(p)
    if cls.case == IRREDUCIBLE:
        raise WrongCaseError("parameters are not an exceptional case")
    n = p.n
    shifted = DensityParams(n, ZERO, p.b)
    pts = box_points(n, box)
    zero = (0,) * n
    nonzero = [kappa for kappa in pts if any(kappa)]

    if cls.case == REDUCIBLE_TRIVIAL_SUB:
        checks = [("invariant_line_v0", not any(
            density_act(basis_element(n, alpha), basis_vector(n, zero), shifted)
            for alpha in pts))]
        reach_id, targets = "v_kappa_reaches_box", pts
    else:
        checks = [("v0_coefficient_cancels", not any(
            density_act(basis_element(n, alpha), basis_vector(n, vneg(alpha)),
                        shifted).coefficient(zero)
            for alpha in nonzero))]
        reach_id, targets = "codim_one_part_reaches_box", nonzero
    checks.append((reach_id, all(
        act_coefficient(vsub(target, kappa), kappa, shifted)
        for kappa in nonzero for target in targets)))

    ok = all(c for _, c in checks)
    return SubmoduleReport(cls.case, box, checks, ok)


def duality_check(p: DensityParams, alpha, gamma) -> Scalar:
    """Residual of the dual-module identification with T_mu(-a, 1-b).

    The contragredient action on the dual basis has coefficient minus the
    T(a, b) coefficient at (alpha, gamma - alpha); matching it against the
    T(-a, 1-b) coefficient at (alpha, -gamma) must give zero.
    """
    alpha, gamma = tuple(alpha), tuple(gamma)
    lhs = -act_coefficient(alpha, vsub(gamma, alpha), p)
    rhs = act_coefficient(alpha, vneg(gamma), DensityParams(p.n, -p.a, ONE - p.b))
    return lhs - rhs
