import itertools
import random
from fractions import Fraction

import pytest

from solvir import algebra
from solvir.algebra import (
    CENTRAL,
    MAX_BOX_POINTS,
    MAX_PAIRS,
    AlgebraElement,
    SolenoidalAlgebra,
    basis_element,
    box_points,
    central_element,
    check_pairs,
    element_str,
    euler_element,
    jacobi_residual,
    lex_compare,
    lex_sign,
    parse_element,
    triangular_split,
    vadd,
    vir_bracket,
    vir_i_cocycle_coefficients,
    vir_i_element,
    witt_bracket,
    witt_jacobi_symbolic_identity,
)
from solvir.cocycle import OneCochain
from solvir.density import DensityVector
from solvir.errors import (
    AxisOutOfRangeError,
    CentralTermPresentError,
    RankMismatchError,
)
from solvir.gvm import GvmMonomial, GvmVector
from solvir.scalars import ONE, ZERO, Scalar
from solvir.verma import PBWMonomial, VermaVector


A2 = SolenoidalAlgebra(2)


def mu(alpha):
    return Scalar.mu_form(alpha)


def eta0(alpha):
    x = mu(alpha)
    return (x * x * x - x) * Scalar.from_rational(Fraction(1, 12))


def test_witt_bracket_basis_pair():
    out = witt_bracket(A2.e(1, 0), A2.e(0, 1))
    assert out == A2.e(1, 1).scale(mu((-1, 1)))


def test_bracket_alternating():
    x = A2.e(1, 0) + A2.e(-2, 3).scale(mu((1, 1)))
    assert witt_bracket(x, x).is_zero()
    assert vir_bracket(x + A2.c(), x + A2.c()).is_zero()


def test_euler_action():
    alpha = (2, -1)
    out = witt_bracket(A2.d(), A2.e(alpha))
    assert out == A2.e(alpha).scale(mu(alpha))


def test_vir_bracket_central_pair():
    alpha = (1, 2)
    out = vir_bracket(A2.e(alpha), A2.e(-1, -2))
    expected = A2.d().scale(mu(alpha) * -2) + A2.c().scale(eta0(alpha))
    assert out == expected


def test_central_brackets_to_zero():
    x = A2.e(3, 1) + A2.d().scale(5)
    assert vir_bracket(A2.c(), x).is_zero()
    assert vir_bracket(x, A2.c()).is_zero()


def test_vir_equals_witt_off_diagonal():
    assert vir_bracket(A2.e(1, 0), A2.e(0, 1)) == witt_bracket(A2.e(1, 0), A2.e(0, 1))


def test_witt_bracket_rejects_central():
    with pytest.raises(CentralTermPresentError):
        witt_bracket(A2.c(), A2.e(1, 0))


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        vir_bracket(A2.e(1, 0), basis_element(3, (1, 0, 0)))


def test_jacobi_examples():
    assert jacobi_residual(A2.e(1, 0), A2.e(0, 1), A2.e(2, 2)).is_zero()
    assert jacobi_residual(A2.e(1, 0), A2.e(0, 1), A2.e(-1, -1)).is_zero()
    assert jacobi_residual(A2.c(), A2.e(1, 0), A2.e(0, 1)).is_zero()


def test_jacobi_exhaustive_small_box():
    pts = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    for pa, pb, pc in itertools.product(pts, repeat=3):
        res = jacobi_residual(A2.e(pa), A2.e(pb), A2.e(pc))
        assert res.is_zero(), (pa, pb, pc)


def _random_element(rng, n=2, box=3, central=True):
    out = AlgebraElement(n)
    for _ in range(rng.randint(1, 3)):
        alpha = tuple(rng.randint(-box, box) for _ in range(n))
        out = out + basis_element(n, alpha).scale(rng.randint(-4, 4))
    if central and rng.random() < 0.3:
        out = out + central_element(n).scale(rng.randint(-3, 3))
    return out


def test_jacobi_identity_reads_a_wrong_bracket(fresh_identities, monkeypatch):
    # the Witt coefficient (mu.(beta-alpha))^2 in place of mu.(beta-alpha)
    right = algebra._basis_bracket_terms

    def squared(ka, kb):
        out = dict(right(ka, kb))
        key = vadd(ka, kb)
        if key in out:
            out[key] = out[key] ** 2
        return out

    monkeypatch.setattr(algebra, "_basis_bracket_terms", squared)
    assert witt_jacobi_symbolic_identity() is False


def test_jacobi_randomized_general_elements():
    rng = random.Random(2024)
    for _ in range(40):
        x, y, z = (_random_element(rng) for _ in range(3))
        assert jacobi_residual(x, y, z).is_zero()


def test_antisymmetry_randomized():
    rng = random.Random(55)
    for _ in range(40):
        x, y = _random_element(rng), _random_element(rng)
        assert (vir_bracket(x, y) + vir_bracket(y, x)).is_zero()


def test_bracket_grading():
    rng = random.Random(11)
    for _ in range(40):
        alpha = tuple(rng.randint(-3, 3) for _ in range(2))
        beta = tuple(rng.randint(-3, 3) for _ in range(2))
        out = vir_bracket(A2.e(alpha), A2.e(beta))
        target = tuple(a + b for a, b in zip(alpha, beta))
        assert all(k == target for k in out.support())
        if out.has_central():
            assert target == (0, 0)


def test_lex_compare():
    assert lex_compare((0, -5), (1, -100)) == -1
    assert lex_compare((2, 3), (2, 3)) == 0
    assert lex_compare((0, 1), (0, -1)) == 1
    with pytest.raises(RankMismatchError):
        lex_compare((1, 0), (1, 0, 0))


def test_lex_is_group_order():
    rng = random.Random(303)
    for _ in range(200):
        a = tuple(rng.randint(-5, 5) for _ in range(3))
        b = tuple(rng.randint(-5, 5) for _ in range(3))
        g = tuple(rng.randint(-5, 5) for _ in range(3))
        c = lex_compare(a, b)
        shifted = lex_compare(tuple(x + y for x, y in zip(a, g)),
                              tuple(x + y for x, y in zip(b, g)))
        assert c == shifted


def test_triangular_split():
    x = (A2.e(-1, 3) + A2.c().scale(2) + A2.d().scale(7)
         + A2.e(1, 0) + A2.e(-1, 0))
    plus, zero, minus = triangular_split(x)
    assert plus == A2.e(1, 0)
    assert zero == A2.c().scale(2) + A2.d().scale(7)
    assert minus == A2.e(-1, 3) + A2.e(-1, 0)
    assert plus + zero + minus == x


def test_triangular_parts_closed_under_bracket():
    rng = random.Random(77)
    for _ in range(30):
        x, y = _random_element(rng, central=False), _random_element(rng, central=False)
        xp, _, xm = triangular_split(x)
        yp, _, ym = triangular_split(y)
        for part_x, part_y, sign in ((xp, yp, 1), (xm, ym, -1)):
            br = vir_bracket(part_x, part_y)
            assert not br.has_central()
            assert all(lex_sign(k) == sign for k in br.support())


def test_vir_i_element():
    e10 = vir_i_element(2, 1, 0)
    assert e10 == euler_element(2).scale(ONE.div_form((1, 0)))
    e23 = vir_i_element(2, 2, 3)
    assert e23 == basis_element(2, (0, 3)).scale(ONE.div_form((0, 1)))
    with pytest.raises(AxisOutOfRangeError):
        vir_i_element(2, 3, 1)


def test_vir_i_witt_relations():
    # [e_m^i, e_k^i] = (k - m) e_{m+k}^i plus central when k = -m
    for m, k in ((1, 2), (3, -1), (2, 2), (0, 4)):
        br = vir_bracket(vir_i_element(2, 1, m), vir_i_element(2, 1, k))
        expected = vir_i_element(2, 1, m + k).scale(k - m)
        br.terms.pop(CENTRAL, None)
        assert br == expected


def test_vir_i_witt_part_of_central_pair():
    # non-central part of [e_m^i, e_{-m}^i] is -2m e_0^i
    for m in (1, 2, 3):
        br = vir_bracket(vir_i_element(2, 2, m), vir_i_element(2, 2, -m))
        br.terms.pop(CENTRAL, None)
        assert br == vir_i_element(2, 2, 0).scale(-2 * m)


def test_vir_i_cocycle_coefficients():
    for n in (1, 2, 3):
        for axis in range(1, n + 1):
            a, b = vir_i_cocycle_coefficients(n, axis)
            eps = tuple(1 if j == axis - 1 else 0 for j in range(n))
            twelfth = Scalar.from_rational(Fraction(1, 12))
            assert a == Scalar.mu_form(eps) * twelfth
            assert b == -(ONE.div_form(eps) * twelfth)
            assert not a.is_zero()


def test_element_text_roundtrip():
    x = (A2.e(0, 0).scale(mu((1, 0)) * -2)
         + A2.c().scale(eta0((1, 0))))
    text = element_str(x)
    assert text == "-2*mu1*e[0,0] + ((mu1^3-mu1)/12)*c"
    assert parse_element(text, 2) == x
    assert element_str(parse_element(text, 2)) == text


def test_element_text_various():
    cases = [
        A2.zero(),
        A2.e(2, -1).scale(mu((2, -1))),
        A2.c(),
        A2.c().scale(Scalar.indeterminate("c") * 2),
        A2.e(-3, 5) + A2.e(0, 0).scale(Fraction(1, 3)),
        A2.e(1, 1).scale(ONE.div_form((1, 1))),
    ]
    for x in cases:
        text = element_str(x)
        assert parse_element(text, 2) == x, text
        assert element_str(parse_element(text, 2)) == text


def test_parse_element_with_minus_separator():
    x = parse_element("e[1,0] - 2*e[0,1]", 2)
    assert x == A2.e(1, 0) + A2.e(0, 1).scale(-2)


COMBINATIONS = (AlgebraElement, OneCochain, DensityVector, VermaVector, GvmVector)


def _three_keys(kind, n):
    """Three distinct rank-n basis keys of a combination type."""
    first, last = (1,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,)
    if kind is AlgebraElement:
        return [first, last, CENTRAL]
    if kind is VermaVector:
        return [PBWMonomial(n, [(-1,) + (0,) * (n - 1)]), PBWMonomial(n, [last]),
                PBWMonomial(n)]
    if kind is GvmVector:
        return [GvmMonomial(n, [(-1,) + (0,) * (n - 1)]),
                GvmMonomial(n, [], (1,) * (n - 1)),
                GvmMonomial(n, [(-2,) + (-1,) * (n - 1)])]
    return [first, last, (2,) * n]


@pytest.mark.parametrize("kind", COMBINATIONS, ids=lambda kind: kind.__name__)
def test_combination_arithmetic_of_every_type(kind):
    k1, k2, k3 = _three_keys(kind, 2)
    m = mu((1, 1))
    x = kind(2, {k1: 2, k2: m, k3: 0})
    y = kind(2, {k1: -2, k3: Fraction(1, 3)})
    assert set(x.terms) == {k1, k2}
    cases = [
        (x + y, {k2: m, k3: Fraction(1, 3)}),
        (x - y, {k1: 4, k2: m, k3: Fraction(-1, 3)}),
        (x - x, {}),
        (-x, {k1: -2, k2: -m}),
        (x.scale(3), {k1: 6, k2: m * 3}),
        (3 * x, {k1: 6, k2: m * 3}),
        (x.scale(0), {}),
        (x.scale(ZERO), {}),
    ]
    for out, expected in cases:
        assert type(out) is kind
        assert out.n == 2
        assert out == kind(2, expected)
        assert all(out.terms.values()), "a zero coefficient was stored"
    assert (x - x).is_zero() and not x.scale(0) and x
    assert x.coefficient(k3) == ZERO and x.coefficient(k2) == m

    wide = kind(3, {_three_keys(kind, 3)[0]: 1})
    for combine in (lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(RankMismatchError):
            combine(x, wide)
        with pytest.raises(RankMismatchError):
            combine(wide, x)

    for other in COMBINATIONS:
        if other is not kind:
            twin = other(2)
            twin.terms = dict(x.terms)
            assert x != twin and twin != x


def test_box_points_refuses_a_box_past_the_limit():
    # 3^40 points, past MAX_BOX_POINTS: refused before any is listed
    with pytest.raises(ValueError, match=f"more than {MAX_BOX_POINTS} points"):
        box_points(40, 1)


def test_check_pairs_refuses_a_walk_past_the_limit():
    check_pairs(MAX_PAIRS, "a walk")
    with pytest.raises(ValueError, match=f"a walk walks {MAX_PAIRS + 1} pairs"):
        check_pairs(MAX_PAIRS + 1, "a walk")
