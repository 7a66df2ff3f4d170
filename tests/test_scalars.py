import random
from fractions import Fraction

import pytest

from solvir.algebra import parse_element
from solvir.errors import (
    DenominatorVanishesError,
    MissingAssignmentError,
    ParseError,
    ZeroFormError,
)
from solvir.scalars import (
    A,
    ONE,
    ZERO,
    Polynomial,
    Scalar,
    common_denominator,
    mu_poly,
    normalize_form,
    parse_scalar,
    scalar_str,
)


def mu(alpha):
    return Scalar.mu_form(alpha)


def rat(p, q=1):
    return Scalar.from_rational(Fraction(p, q))


def test_linear_form_addition():
    assert mu((1, 0)) + mu((0, 1)) == Scalar(mu_poly((1, 1)))


def test_additive_inverse():
    x = mu((2, -1)) * rat(3, 7) + rat(5)
    assert (x + (-x)).is_zero()
    assert (x + (-x)).forms == ()


def test_fraction_sum_over_two_forms():
    # 1/mu1 + 1/mu2 = (mu1 + mu2) / (mu1*mu2), by hand
    x = ONE.div_form((1, 0)) + ONE.div_form((0, 1))
    expected = Scalar(mu_poly((1, 1)), ((1, 0), (0, 1)))
    assert x == expected


def test_cancellation_in_product():
    assert mu((1, 2)) * ONE.div_form((1, 2)) == ONE
    assert (ZERO * mu((1, 0))).is_zero()


def test_cubic_product_equals_expansion():
    # x*(x-1)*(x+1)/12 expands to (x^3 - x)/12 for x = mu.(2,-1)
    x = mu((2, -1))
    prod = x * (x - 1) * (x + 1) * rat(1, 12)
    direct = Scalar((mu_poly((2, -1)) ** 3 - mu_poly((2, -1))).scale(Fraction(1, 12)))
    assert prod == direct


def test_divide_by_form_examples():
    x = mu((1, 0))
    assert (x * x).div_form((1, 0)) == x
    one_over = ONE.div_form((1, 0))
    assert one_over.forms == ((1, 0),)
    # polynomial long division oracle: multiply back
    num = Scalar(mu_poly((1, 0)) * mu_poly((1, 0)) - mu_poly((0, 1)) * mu_poly((0, 1)))
    quot = num.div_form((1, 1))
    assert quot == Scalar(mu_poly((1, -1)))
    assert quot * mu((1, 1)) == num


def test_divide_by_non_primitive_form():
    x = mu((2, 0))
    assert (x * x).div_form((2, 0)) == x
    # mu.(0,-3) = -3*mu2: the stored form is the primitive lex-positive (0,1)
    s = ONE.div_form((0, -3))
    assert s.forms == ((0, 1),)
    assert s * mu((0, -3)) == ONE


def test_zero_form_rejected():
    with pytest.raises(ZeroFormError):
        ONE.div_form((0, 0))
    with pytest.raises(ZeroFormError):
        normalize_form((0, 0, 0))


def test_evaluate_examples():
    assert mu((1, 0)).evaluate({"mu1": 2, "mu2": 3}) == 2
    with pytest.raises(DenominatorVanishesError):
        ONE.div_form((1, -1)).evaluate({"mu1": 1, "mu2": 1})
    x = mu((1,))
    cubic = (x * x * x - x) * rat(1, 12)
    assert cubic.evaluate({"mu1": 2}) == Fraction(1, 2)


def test_evaluate_requires_full_assignment():
    with pytest.raises(MissingAssignmentError):
        (mu((1, 1)) + Scalar.indeterminate("a")).evaluate({"mu1": 1, "mu2": 2})
    # a coordinate of a denominator form without a value
    with pytest.raises(MissingAssignmentError):
        ONE.div_form((1, 1)).evaluate({"mu1": 1})


@pytest.mark.parametrize("value", [mu_poly((1, 0)), mu((1, 0))])
def test_negative_power_rejected(value):
    with pytest.raises(ValueError):
        value ** -1


def test_equal_scalars_hash_equal():
    x, y = mu((1, 0)), ONE.div_form((1, 1))
    left, right = (x + y) * y, y * y + x * y
    assert left == right
    assert hash(left) == hash(right)


@pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2)])
@pytest.mark.parametrize("make", [Scalar.from_rational, Polynomial.const])
def test_rational_constants_hash_as_their_value(make, value):
    # a constant equals its int or Fraction, so sets and dicts find it both ways
    const = make(value)
    assert const == value and hash(const) == hash(value)
    assert value in {const} and const in {value}
    assert {const: "x"}[value] == "x" and {value: "x"}[const] == "x"


def _random_scalar(rng, n=2):
    out = rat(rng.randint(-3, 3))
    for _ in range(rng.randint(0, 2)):
        alpha = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(alpha):
            out = out + mu(alpha) * rat(rng.randint(-2, 2), rng.randint(1, 3))
    if rng.random() < 0.4:
        alpha = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(alpha):
            out = out.div_form(alpha)
    if rng.random() < 0.3:
        out = out * Scalar.indeterminate(rng.choice(["a", "b", "lambda", "c"]))
    return out


def test_ring_axioms_randomized():
    rng = random.Random(20824)
    for _ in range(60):
        x, y, z = (_random_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


def test_product_by_the_unit_is_the_other_factor():
    s = mu((1, 2)).div_form((0, 1)) + A
    assert ONE * s is s and s * ONE is s and ONE * ONE is ONE
    assert (ZERO * ONE).is_zero() and (ONE * ZERO).is_zero()
    assert (ZERO * s).is_zero() and (s * ZERO).is_zero()
    # scalars equal to 1 that are not the ONE object still multiply exactly
    for one in (Scalar.from_rational(1), mu((1, 2)).div_form((1, 2)),
                Scalar(Polynomial.const(1))):
        assert one is not ONE and one == ONE
        assert one * s == s and s * one == s and one * one == ONE


S = (mu((1, 2)) + rat(1, 3)).div_form((0, 1))  # a form, and denominator 3


@pytest.mark.parametrize("x, y, expected", [
    (S, -S, True),
    (S, S, False),
    (rat(1, 2), rat(-1), False),  # int terms {0: 1} and {0: -1}, d 2 and 1
    (ONE.div_form((1, 0)), -ONE.div_form((0, 1)), False),
], ids=["negated", "itself", "half-against-minus-one", "forms-differ"])
def test_negates_is_equality_with_the_negative(x, y, expected):
    assert x.negates(y) is expected
    assert (x == -y) is expected


def test_terms_refuse_a_denominator_form():
    assert mu((1, 0)).terms() == mu_poly((1, 0)).terms()
    with pytest.raises(ValueError, match="denominator form"):
        ONE.div_form((1, 0)).terms()


def test_divide_then_multiply_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        x = _random_scalar(rng)
        alpha = tuple(rng.randint(-2, 2) for _ in range(2))
        if not any(alpha):
            alpha = (1, 0)
        assert (x * mu(alpha)).div_form(alpha) == x


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(99)
    assignment = {"mu1": Fraction(3), "mu2": Fraction(7, 2),
                  "a": Fraction(1, 3), "b": Fraction(-2),
                  "lambda": Fraction(5), "c": Fraction(-1, 4)}
    trials = 0
    while trials < 30:
        x, y, z = (_random_scalar(rng) for _ in range(3))
        try:
            lhs = (x * y + z).evaluate(assignment)
            rhs = x.evaluate(assignment) * y.evaluate(assignment) + z.evaluate(assignment)
        except DenominatorVanishesError:
            continue
        assert lhs == rhs
        trials += 1


def test_substitute_restricted():
    x = (mu((1,)) ** 3 - mu((1,))) * rat(1, 12)
    assert x.substitute({"mu1": 1}).is_zero()
    s = ONE.div_form((1, 0)) * Scalar.indeterminate("lambda")
    assert s.substitute({"lambda": 0}).is_zero()
    assert s.substitute({"mu1": 2}) == Scalar.indeterminate("lambda") * rat(1, 2)
    # a form must be specialized whole, and to a nonzero value
    with pytest.raises(ValueError):
        ONE.div_form((1, 1)).substitute({"mu1": 1})
    with pytest.raises(DenominatorVanishesError):
        ONE.div_form((1, -1)).substitute({"mu1": 3, "mu2": 3})


def test_canonical_string_examples():
    x = mu((1,))
    cubic = (x * x * x - x) * rat(1, 12)
    assert scalar_str(cubic) == "(mu1^3-mu1)/12"
    assert scalar_str(mu((2, -1))) == "2*mu1-mu2"
    assert scalar_str(ONE.div_form((1, 0))) == "1/mu(1,0)"
    assert scalar_str(ZERO) == "0"
    assert scalar_str(rat(-3, 4)) == "-3/4"
    s = (mu((1, 0)) + mu((0, 1))).div_form((1, 0)).div_form((0, 1)) * rat(1, 2)
    assert scalar_str(s) == "(mu1+mu2)/(2*mu(0,1)*mu(1,0))"


def test_parse_print_roundtrip_random():
    rng = random.Random(4711)
    for _ in range(80):
        x = _random_scalar(rng)
        text = scalar_str(x)
        assert parse_scalar(text) == x
        assert scalar_str(parse_scalar(text)) == text


def test_polynomial_exact_division():
    p = mu_poly((1, 1)) * mu_poly((1, -1))
    assert p.exact_div(mu_poly((1, 1))) == mu_poly((1, -1))
    assert p.exact_div(mu_poly((1, 0))) is None
    assert Polynomial().exact_div(mu_poly((1, 0))) == Polynomial()


@pytest.mark.parametrize("text, expected", [
    ("a + 1/2", A + Fraction(1, 2)),
    ("1/2 + a", A + Fraction(1, 2)),
    ("a - 1/mu(1,0)", A - ONE.div_form((1, 0))),
    ("2/3*a", A * Fraction(2, 3)),
    ("-mu1/2", Scalar.indeterminate("mu1") * Fraction(-1, 2)),
])
def test_slash_binds_to_its_factor(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("parse, text", [
    (parse_scalar, "a/b"),
    (parse_scalar, "1/0"),
    (parse_scalar, "a/"),
    (parse_scalar, "1/mu(0,0)"),
    # past the packed kernel: mu60 is the last indeterminate, 32767 the
    # largest exponent
    (parse_scalar, "mu61"),
    (parse_scalar, "mu1^40000"),
    (parse_scalar, "mu1^20000*mu1^20000"),
    (lambda text: parse_element(text, 2), "e[1,0]*e[0,1]"),
    (lambda text: parse_element(text, 2), "mu100*e[1,0]"),
])
def test_malformed_text_raises_parse_error(parse, text):
    with pytest.raises(ParseError):
        parse(text)


def test_form_factor_is_its_linear_form():
    mu1, mu2 = Scalar.indeterminate("mu1"), Scalar.indeterminate("mu2")
    assert parse_scalar("mu(1,-2)") == mu1 - 2 * mu2
    assert parse_scalar("mu(0,3)^2/mu(0,1)") == 9 * mu2


def test_common_denominator_takes_the_lcm_of_repeated_forms():
    s1 = parse_scalar("1/mu(1,0)^2")
    s2 = parse_scalar("1/(mu(1,0)*mu(0,1))")
    forms, nums = common_denominator([s1, s2])
    assert forms == ((0, 1), (1, 0), (1, 0))
    assert nums == [mu_poly((0, 1)), mu_poly((1, 0))]
    assert Scalar(nums[0] + nums[1], forms) == s1 + s2
    assert s1 + s2 == parse_scalar("(mu1+mu2)/(mu(1,0)^2*mu(0,1))")
