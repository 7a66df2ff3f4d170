"""The packed-int polynomial kernel against independent references.

The naive reference keeps monomials as (id, exp) tuples sorted by id and
coefficients as Fractions, the textbook representation; the sympy oracle
(skipped when sympy is absent) expands the same expressions symbolically.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add, or_

import pytest

from solvir.scalars import (
    A_ID,
    B_ID,
    CCHARGE_ID,
    LAMBDA_ID,
    MAX_EXPONENT,
    ONE,
    ZERO,
    Polynomial,
    Scalar,
    indet_name,
    mu_poly,
    parse_scalar,
    poly_sum_of_products,
    scalar_str,
    sum_of_products,
)

IDS = (1, 2, 3, A_ID, B_ID, LAMBDA_ID, CCHARGE_ID)


# --------------------------------------------------------------------------
# naive reference: {(id, exp) tuple: Fraction}
# --------------------------------------------------------------------------


def ref_mon_mul(m1, m2):
    exps = dict(m1)
    for ident, e in m2:
        exps[ident] = exps.get(ident, 0) + e
    return tuple(sorted(exps.items()))


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_add(p, q, sign=1):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return ref_clean(out)


def ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = ref_mon_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return ref_clean(out)


def ref_key(m):
    """Graded lex: total degree, then exponents in id order."""
    exps = dict(m)
    return (sum(exps.values()),) + tuple(exps.get(i, 0) for i in IDS)


def ref_div(p, q):
    """Long division by leading terms; None when q does not divide p."""
    lead_q = max(q, key=ref_key)
    rem = dict(p)
    quo = {}
    while rem:
        lead_r = max(rem, key=ref_key)
        er, eq = dict(lead_r), dict(lead_q)
        if any(er.get(i, 0) < e for i, e in eq.items()):
            return None
        m = tuple(sorted((i, e - eq.get(i, 0)) for i, e in er.items()
                         if e - eq.get(i, 0)))
        c = Fraction(rem[lead_r]) / q[lead_q]
        quo[m] = c
        rem = ref_add(rem, ref_mul({m: c}, q), -1)
    return quo


def ref_substitute(p, assignment):
    out = {}
    for m, c in p.items():
        val = Fraction(c)
        kept = []
        for ident, e in m:
            if ident in assignment:
                val *= assignment[ident] ** e
            else:
                kept.append((ident, e))
        out[tuple(kept)] = out.get(tuple(kept), 0) + val
    return ref_clean(out)


def random_ref(rng, nterms=None, max_exp=3):
    out = {}
    for _ in range(rng.randint(1, 4) if nterms is None else nterms):
        idents = rng.sample(IDS, rng.randint(0, 3))
        m = tuple(sorted((i, rng.randint(1, max_exp)) for i in idents))
        c = Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 4, 7]), rng.choice([1, 1, 2, 3, 12]))
        out[m] = out.get(m, 0) + c
    return ref_clean(out)


def to_kernel(ref):
    out = Polynomial()
    for m, c in ref.items():
        term = Polynomial.const(c)
        for ident, e in m:
            term = term * Polynomial.var(ident) ** e
        out = out + term
    return out


def from_kernel(p):
    return {m: Fraction(c) for m, c in p.terms()}


def test_construction_matches_reference():
    rng = random.Random(31)
    for _ in range(100):
        ref = random_ref(rng)
        p = to_kernel(ref)
        assert from_kernel(p) == ref
        assert p.d > 0
        assert all(type(c) is int and c for c in p.t.values())


def test_products_and_sums_match_reference():
    rng = random.Random(1301)
    for _ in range(300):
        r1, r2 = random_ref(rng), random_ref(rng)
        p1, p2 = to_kernel(r1), to_kernel(r2)
        assert from_kernel(p1 * p2) == ref_mul(r1, r2)
        assert from_kernel(p1 + p2) == ref_add(r1, r2)
        assert from_kernel(p1 - p2) == ref_add(r1, r2, -1)
        assert (p1 - p1).is_zero() and (p1 - p1).d == 1


def test_canonical_denominator():
    rng = random.Random(77)
    for _ in range(200):
        p = to_kernel(random_ref(rng)) * to_kernel(random_ref(rng))
        if p.t:
            assert gcd(p.d, *p.t.values()) == 1
    # equal values built along different orders are equal and hash alike
    x, y = mu_poly((1, 0)), mu_poly((0, 1))
    half = Fraction(1, 2)
    left = (x * half + y * half) * (x - y)
    right = (x * x - y * y).scale(half)
    assert left == right and hash(left) == hash(right)
    assert left.d == 2


def test_exact_div_matches_reference():
    rng = random.Random(2024)
    hits = misses = 0
    for _ in range(250):
        r1, r2 = random_ref(rng), random_ref(rng, max_exp=2)
        product = ref_mul(r1, r2)
        p1, p2 = to_kernel(r1), to_kernel(r2)
        assert from_kernel(to_kernel(product).exact_div(p2)) == r1
        # an arbitrary pair: divisible exactly when the reference says so
        r3 = random_ref(rng)
        expected = ref_div(r3, r2)
        got = to_kernel(r3).exact_div(p2)
        if expected is None:
            assert got is None
            misses += 1
        else:
            assert from_kernel(got) == expected
            hits += 1
        assert from_kernel((p1 * p2).exact_div(p1)) == r2
    assert misses > 50


def test_exact_div_with_non_unit_leading_coefficients():
    x, y = mu_poly((1, 0)), mu_poly((0, 1))
    f = x.scale(3) + y.scale(2)
    g = x.scale(Fraction(5, 6)) - y.scale(7)
    assert (f * g).exact_div(f) == g
    assert (f * g).exact_div(g) == f
    assert (f * f * g).exact_div(f * g) == f
    assert (x * x + ONE.num).exact_div(f) is None


def test_substitute_and_evaluate_match_reference():
    rng = random.Random(555)
    for _ in range(150):
        ref = random_ref(rng)
        p = to_kernel(ref)
        chosen = rng.sample(IDS, rng.randint(1, len(IDS)))
        assignment = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in chosen}
        assert from_kernel(p.substitute(assignment)) == ref_substitute(ref, assignment)
        full = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in IDS}
        value = ref_substitute(ref, full)
        assert p.evaluate(full) == value.get((), 0)


def test_terms_accessor_unpacks_sorted_by_id():
    p = (Polynomial.var(A_ID) * Polynomial.var(2) ** 3 * Polynomial.var(1)
         + Polynomial.const(Fraction(1, 4)))
    assert dict(p.terms()) == {((1, 1), (2, 3), (A_ID, 1)): 1, (): Fraction(1, 4)}


def test_exponent_past_slot_width_raises():
    x = Polynomial.var(2)
    assert dict((x ** MAX_EXPONENT).terms()) == {((2, MAX_EXPONENT),): 1}
    big = x ** (MAX_EXPONENT - 1)
    with pytest.raises(OverflowError):
        big * x * x
    with pytest.raises(OverflowError):
        x ** (MAX_EXPONENT + 1)
    # a full slot overflows even when the next slot has room
    y = Polynomial.var(3)
    with pytest.raises(OverflowError):
        (big * y) * (x * x)
    lam = Polynomial.var(LAMBDA_ID)
    with pytest.raises(OverflowError):
        lam ** MAX_EXPONENT * lam
    with pytest.raises(OverflowError):
        Scalar(big) * Scalar(x * x)
    # mu_60 is the last indeterminate with a slot
    assert dict(mu_poly((0,) * 59 + (1,)).terms()) == {((60, 1),): 1}
    with pytest.raises(OverflowError):
        mu_poly((0,) * 60 + (1,))


def test_scalar_power_stops_squaring_after_last_bit():
    s = Scalar.mu_form((2, -1)).div_form((1, 1)) + ONE
    assert s ** 3 == s * s * s
    assert s ** 0 == ONE and s ** 1 == s
    # 2^14 < k < 2^15: one more squaring would pass the slot width
    k = MAX_EXPONENT - 5
    assert k > 2 ** 14
    assert dict((Scalar(Polynomial.var(2)) ** k).num.terms()) == {((2, k),): 1}


def test_parse_roundtrip_integer_and_form_denominators():
    rng = random.Random(8080)
    for _ in range(120):
        s = Scalar(to_kernel(random_ref(rng)))
        if rng.random() < 0.6:
            s = s * Scalar.from_rational(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 24)))
        for _ in range(rng.randint(0, 3)):
            alpha = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(alpha):
                s = s.div_form(alpha)
        assert parse_scalar(str(s)) == s
        assert str(parse_scalar(str(s))) == str(s)


# --------------------------------------------------------------------------
# sum_of_products against the fold and the reference
# --------------------------------------------------------------------------

# primitive lex-positive rank-3 forms; mu.(1,1,0) - mu.(1,0,0) is mu.(0,1,0),
# so sums over different denominators can cancel a form
FORMS = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 2))


def random_scalar(rng):
    """A Scalar with zero, int-denominator and denominator-form cases."""
    if rng.random() < 0.1:
        return ZERO
    s = Scalar(to_kernel(random_ref(rng, max_exp=2)))
    for _ in range(rng.randint(0, 2)):
        # a non-primitive multiple puts an int into the denominator
        s = s.div_form(tuple(rng.choice((1, 1, 2, -3)) * c for c in rng.choice(FORMS)))
    return s


def random_pairs(rng):
    """A list of Scalar pairs, some of whose products cancel one another
    within one denominator or across two."""
    pairs = []
    for _ in range(rng.randint(0, 5)):
        a, b = random_scalar(rng), random_scalar(rng)
        pairs.append((a, b))
        if rng.random() < 0.2:
            pairs.append((b, -a))
        if rng.random() < 0.2:
            form = rng.choice(FORMS)
            pairs.append((-a.div_form(form), b * Scalar.mu_form(form)))
    rng.shuffle(pairs)
    return pairs


def ref_mu(alpha):
    return {((i, 1),): Fraction(c) for i, c in enumerate(alpha, start=1) if c}


def ref_over(num, forms, lcm):
    """The Fraction numerator of num / prod(forms) over prod(lcm)."""
    for alpha in (lcm - Counter(forms)).elements():
        num = ref_mul(num, ref_mu(alpha))
    return num


def ref_sum_of_products(pairs):
    """(numerator, form Counter) of the sum, each product over the lcm of
    the products' forms, in the textbook representation."""
    products = [(ref_mul(from_kernel(a.num), from_kernel(b.num)), a.forms + b.forms)
                for a, b in pairs]
    lcm = reduce(or_, (Counter(f) for _, f in products), Counter())
    total = {}
    for num, forms in products:
        total = ref_add(total, ref_over(num, forms, lcm))
    return total, lcm


def test_sum_of_products_matches_fold_and_reference():
    rng = random.Random(2501)
    kinds = Counter()
    for _ in range(120):
        pairs = random_pairs(rng)
        got = sum_of_products(pairs)
        fold = reduce(add, (a * b for a, b in pairs), ZERO)
        assert got == fold and scalar_str(got) == scalar_str(fold)
        assert got.num.d > 0 and all(type(c) is int and c for c in got.num.t.values())
        total, lcm = ref_sum_of_products(pairs)
        assert ref_over(from_kernel(got.num), got.forms, lcm) == total
        kinds.update(forms=any(a.forms or b.forms for a, b in pairs),
                     int_den=any(a.num.d > 1 or b.num.d > 1 for a, b in pairs),
                     zero=any(not (a and b) for a, b in pairs),
                     cancels=bool(pairs) and not got)
    # every kind of list was drawn
    assert min(kinds.values()) >= 10 and len(kinds) == 4


def test_sum_of_products_edges():
    x, y = Scalar.mu_form((1, 0)), Scalar.mu_form((0, 1))
    half = Scalar.from_rational(Fraction(1, 2))
    assert sum_of_products([]) == ZERO
    # one pair is the product itself, so the unit rule applies
    assert sum_of_products([(ONE, x)]) is x
    assert sum_of_products([(x, y), (y, -x)]) == ZERO
    # cancels across two denominators
    assert sum_of_products([(x.div_form((1, 1)), y), (-x, y.div_form((1, 1)))]) == ZERO
    # x/(x+y) + y/(x+y) = 1: the denominator form cancels
    total = sum_of_products([(x, ONE.div_form((1, 1))), (y, ONE.div_form((1, 1)))])
    assert total == ONE and total.forms == ()
    assert sum_of_products([(half, x), (half, x), (ZERO, y)]) == x


def test_sum_of_products_guards_surviving_exponents():
    x = Scalar(Polynomial.var(2))
    big = x ** (MAX_EXPONENT - 1)
    with pytest.raises(OverflowError):
        sum_of_products([(big, x * x), (ONE, ONE)])
    assert sum_of_products([(big, x), (ONE, ONE)]) == x ** MAX_EXPONENT + ONE


# --------------------------------------------------------------------------
# poly_sum_of_products and exact_div by a constant
# --------------------------------------------------------------------------


def random_poly_pairs(rng):
    """A list of Polynomial pairs with int denominators, zero factors, and
    pairs whose products cancel one another."""
    pairs = []
    for _ in range(rng.randint(1, 5)):
        p = Polynomial() if rng.random() < 0.15 else to_kernel(random_ref(rng, max_exp=2))
        q = to_kernel(random_ref(rng, max_exp=2))
        pairs.append((p, q))
        if rng.random() < 0.3:
            pairs.append((q, -p))
    rng.shuffle(pairs)
    return pairs


def assert_canonical(p):
    assert p.d > 0 and all(type(c) is int and c for c in p.t.values())
    assert gcd(p.d, *p.t.values()) == 1 if p.t else p.d == 1


def test_poly_sum_of_products_matches_fold():
    rng = random.Random(2601)
    kinds = Counter()
    for _ in range(200):
        pairs = random_poly_pairs(rng)
        got = poly_sum_of_products(pairs)
        fold = reduce(add, (p * q for p, q in pairs), Polynomial())
        assert got == fold and hash(got) == hash(fold)
        assert_canonical(got)
        kinds.update(int_den=any(p.d > 1 or q.d > 1 for p, q in pairs),
                     zero=any(not p for p, _ in pairs),
                     cancels=not got)
    # every kind of list was drawn
    assert min(kinds.values()) >= 10 and len(kinds) == 3


def test_poly_sum_of_products_edges():
    x = Polynomial.var(2)
    half = Polynomial.const(Fraction(1, 2))
    assert poly_sum_of_products([]) == Polynomial() and poly_sum_of_products([]).d == 1
    assert poly_sum_of_products([(x, x), (x, -x)]) == Polynomial()
    assert poly_sum_of_products([(half, x), (x, half)]) == x
    big = x ** (MAX_EXPONENT - 1)
    with pytest.raises(OverflowError):
        poly_sum_of_products([(big, x * x), (half, x)])
    assert poly_sum_of_products([(big, x), (half, x)]) == x ** MAX_EXPONENT + half * x


def test_poly_sum_of_products_either_factor_larger():
    """Pairs of unequal length in both orders, the longer with d = 12, as in
    the zero-sum central sums (linear form times eta0), equal the fold."""
    x = mu_poly((1, 2, -1))
    eta = (x * x * x - x).scale(Fraction(1, 12))
    lin, lin2 = mu_poly((0, 1, 3)), mu_poly((2, 0, -1))
    assert len(eta.t) > len(lin.t) and eta.d == 12 and lin.d == 1
    for pairs in ([(lin, eta)], [(eta, lin)], [(lin, eta), (eta, lin2)],
                  [(eta, lin), (-lin, eta)], [(lin2, eta), (lin, lin), (eta, eta)]):
        got = poly_sum_of_products(pairs)
        fold = reduce(add, (p * q for p, q in pairs), Polynomial())
        assert got == fold and hash(got) == hash(fold)
        assert_canonical(got)


def test_exact_div_by_a_constant_matches_reference():
    rng = random.Random(2602)
    constants = [Fraction(c) for c in (3, -2, Fraction(1, 6), Fraction(-5, 4), 1, -1)]
    dens = Counter()
    for _ in range(40):
        ref = random_ref(rng)
        for c in constants:
            p, divisor = to_kernel(ref), Polynomial.const(c)
            got = p.exact_div(divisor)
            expected = to_kernel(ref_div(ref, {(): c}))
            assert got == expected and hash(got) == hash(expected)
            assert_canonical(got)
            dens.update(both=p.d != 1 and divisor.d != 1)
    assert dens["both"] >= 10
    zero = Polynomial().exact_div(Polynomial.const(Fraction(-3, 2)))
    assert zero == Polynomial() and zero.d == 1


# --------------------------------------------------------------------------
# sympy oracle
# --------------------------------------------------------------------------


def _sympy_of(p, sympy, symbols):
    total = sympy.Integer(0)
    for m, c in p.terms():
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) \
            else sympy.Integer(c)
        for ident, e in m:
            term *= symbols[ident] ** e
        total += term
    return sympy.expand(total)


def test_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    symbols = {i: sympy.Symbol(indet_name(i)) for i in IDS}
    rng = random.Random(99)
    for _ in range(60):
        r1, r2 = random_ref(rng), random_ref(rng, max_exp=2)
        p1, p2 = to_kernel(r1), to_kernel(r2)
        s1, s2 = _sympy_of(p1, sympy, symbols), _sympy_of(p2, sympy, symbols)
        assert sympy.expand(_sympy_of(p1 * p2, sympy, symbols) - s1 * s2) == 0
        assert sympy.expand(_sympy_of(p1 + p2, sympy, symbols) - (s1 + s2)) == 0
        quotient = (p1 * p2).exact_div(p2)
        assert sympy.expand(_sympy_of(quotient, sympy, symbols) - s1) == 0
        q, r = sympy.div(s1, s2, *symbols.values())
        assert (p1.exact_div(p2) is None) == (r != 0)
        chosen = rng.sample(IDS, 2)
        assignment = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for i in chosen}
        subs = {symbols[i]: sympy.Rational(v.numerator, v.denominator)
                for i, v in assignment.items()}
        assert sympy.expand(_sympy_of(p1.substitute(assignment), sympy, symbols)
                            - s1.subs(subs)) == 0
