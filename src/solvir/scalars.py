"""Exact coefficient arithmetic for the solenoidal algebra machinery.

Every coefficient in the library is a Scalar: an element of the localized ring

    Q[mu_1..mu_n, a, b, lambda, c][ (mu.alpha)^-1 : alpha in Z^n \\ {0} ]

where mu.alpha = sum_i mu_i*alpha_i.  Because mu is generic, the forms
mu.alpha are the only denominators ever needed (basis shifts divide by
mu.alpha, the rank-one subalgebras divide by mu_i), so no general rational
function field or multivariate gcd is required.

Internal representation:

* Monomial: one packed int.  Each indeterminate owns a 16-bit exponent slot
  (a, b, lambda, c in slots 0..3, mu_i in slot 3 + i for i <= 60), so
  multiplying two monomials is one int add.  The top bit of every slot is a
  guard: a product that sets it raises OverflowError instead of carrying
  into the next slot, which caps every exponent at 2^15 - 1.  Integer order
  on packed monomials is a lex monomial order (highest mu first), used for
  leading terms.
* Polynomial: dict packed monomial -> nonzero int (``t``) over one positive
  int denominator (``d``), kept canonical by gcd(content, d) = 1, so equality
  and hashing are exact on (t, d).  Fractions appear only at the edges
  (``const``, ``scale``, ``as_rational``, ``evaluate``, ``substitute``,
  ``terms`` and the parser); the ring operations and ``exact_div`` stay in
  ints.
* Scalar: numerator Polynomial plus a multiset of denominator forms.  Each
  stored form is primitive (coordinate gcd 1) and lex-positive; the rational
  factor extracted while normalizing a form is folded into the numerator.
  Any stored form that exactly divides the numerator is cancelled.  These
  two rules make the representation canonical: equal values built along
  different operation orders compare equal term-by-term.

Serialization unpacks monomials to sorted (id, exponent) tuples, orders them
graded-lex and writes the numerator's integer coefficients over d, so the
canonical string is an integer-coefficient polynomial over "int * mu(alpha)
tokens"; parse/print round-trips exactly.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from operator import or_

from .errors import (
    DenominatorVanishesError,
    MissingAssignmentError,
    ParseError,
    ZeroFormError,
)

# --------------------------------------------------------------------------
# indeterminates
# --------------------------------------------------------------------------

# mu_i gets id i (i >= 1); the four named parameters sit above every mu id.
_PARAM_BASE = 10**9
A_ID = _PARAM_BASE + 1
B_ID = _PARAM_BASE + 2
LAMBDA_ID = _PARAM_BASE + 3
CCHARGE_ID = _PARAM_BASE + 4

_PARAM_NAMES = {A_ID: "a", B_ID: "b", LAMBDA_ID: "lambda", CCHARGE_ID: "c"}
_PARAM_IDS = {v: k for k, v in _PARAM_NAMES.items()}
_MU_RE = re.compile(r"^mu([1-9][0-9]*)$")


def indet_id(name: str) -> int:
    """Map an indeterminate name (mu1, mu2, ..., a, b, lambda, c) to its id."""
    if name in _PARAM_IDS:
        return _PARAM_IDS[name]
    m = _MU_RE.match(name)
    if m:
        return int(m.group(1))
    raise ParseError(f"unknown indeterminate {name!r}")


def indet_name(ident: int) -> str:
    if ident in _PARAM_NAMES:
        return _PARAM_NAMES[ident]
    return f"mu{ident}"


# --------------------------------------------------------------------------
# packed monomials
# --------------------------------------------------------------------------

_SLOT_BITS = 16
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_GUARD_BIT = 1 << (_SLOT_BITS - 1)
MAX_EXPONENT = _GUARD_BIT - 1
# a, b, lambda, c and mu_1..mu_60
_SLOTS = 64
# the largest rank whose mu_i all have a slot
MAX_RANK = _SLOTS - 4
_GUARD = sum(_GUARD_BIT << (_SLOT_BITS * s) for s in range(_SLOTS))


def _slot(ident: int) -> int:
    return ident - A_ID if ident > _PARAM_BASE else ident + 3


def _slot_ident(slot: int) -> int:
    return slot + A_ID if slot < 4 else slot - 3


def _pack(pairs) -> int:
    """(id, exp) pairs -> packed monomial."""
    m = 0
    for ident, e in pairs:
        if not 0 <= e <= MAX_EXPONENT:
            raise OverflowError(
                f"exponent {e} of {indet_name(ident)} outside 0..{MAX_EXPONENT}")
        slot = _slot(ident)
        if slot >= _SLOTS:
            raise OverflowError(f"{indet_name(ident)} has no exponent slot "
                                f"(at most mu{MAX_RANK})")
        m += e << (_SLOT_BITS * slot)
    return m


@lru_cache(maxsize=1 << 14)
def _unpack(m: int):
    """Packed monomial -> (id, exp) tuple sorted by id."""
    out = []
    slot = 0
    while m:
        e = m & _SLOT_MASK
        if e:
            out.append((_slot_ident(slot), e))
        m >>= _SLOT_BITS
        slot += 1
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def _var_mon(ident: int) -> int:
    return _pack(((ident, 1),))


# --------------------------------------------------------------------------
# polynomial layer: int coefficients over one denominator
# --------------------------------------------------------------------------


def _poly(t, d):
    """The polynomial t/d with its common factor cancelled (d > 0)."""
    if d != 1:
        if not t:
            return Polynomial()
        g = gcd(d, *t.values())
        if g != 1:
            t = {m: c // g for m, c in t.items()}
            d //= g
    return Polynomial(t, d)


def _from_fractions(terms):
    """Polynomial from a dict packed monomial -> Fraction/int."""
    d = 1
    for c in terms.values():
        den = c.denominator
        d = d * den // gcd(d, den)
    return _poly({m: int(c * d) for m, c in terms.items() if c}, d)


def _add(p, q, sign):
    """p + sign*q."""
    d1, d2 = p.d, q.d
    if d1 == d2:
        out = p.t.copy()
        f2, d = sign, d1
    else:
        g = gcd(d1, d2)
        f1 = d2 // g
        f2 = sign * (d1 // g)
        d = d1 * f1
        out = {m: c * f1 for m, c in p.t.items()}
    get = out.get
    for m, c in q.t.items():
        v = get(m, 0) + c * f2
        if v:
            out[m] = v
        else:
            del out[m]
    return _poly(out, d) if d != 1 else Polynomial(out)


class Polynomial:
    """Sparse polynomial with exact rational coefficients: ``t`` / ``d``."""

    __slots__ = ("t", "d")

    def __init__(self, t=None, d=1):
        self.t = {} if t is None else t
        self.d = d

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        return cls({0: c.numerator}, c.denominator) if c else cls()

    @classmethod
    def var(cls, ident: int):
        return cls({_var_mon(ident): 1})

    def is_zero(self):
        return not self.t

    def __bool__(self):
        return bool(self.t)

    def __eq__(self, other):
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.const(other)
        return self.d == other.d and self.t == other.t

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes as one
        value = self.as_rational()
        if value is not None:
            return hash(value)
        return hash((frozenset(self.t.items()), self.d))

    def __add__(self, other):
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.const(other)
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.t.items()}, self.d)

    def __sub__(self, other):
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.const(other)
        return _add(self, other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self.scale(other)
        t1, t2 = self.t, other.t
        if len(t1) < len(t2):
            t1, t2 = t2, t1
        if len(t2) == 1:
            # one term: distinct monomials stay distinct, nothing cancels
            [(m2, c2)] = t2.items()
            out = {m1 + m2: c1 * c2 for m1, c1 in t1.items()}
        else:
            out = {}
            get = out.get
            for m2, c2 in t2.items():
                for m1, c1 in t1.items():
                    m = m1 + m2
                    out[m] = get(m, 0) + c1 * c2
            if 0 in out.values():
                out = {m: c for m, c in out.items() if c}
        if reduce(or_, out, 0) & _GUARD:
            raise OverflowError(f"monomial exponent above {MAX_EXPONENT}")
        d = self.d * other.d
        return _poly(out, d) if d != 1 else Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, Polynomial.const(1))

    def scale(self, c):
        c = Fraction(c)
        return self._scaled(c.numerator, c.denominator)

    def _scaled(self, num: int, den: int):
        """self * num/den for ints num and den > 0."""
        if not num:
            return Polynomial()
        return _poly({m: c * num for m, c in self.t.items()}, self.d * den)

    def terms(self):
        """(monomial, coefficient) pairs: (id, exp) tuples sorted by id, and
        int or Fraction coefficients."""
        d = self.d
        return [(_unpack(m), c if d == 1 else Fraction(c, d))
                for m, c in self.t.items()]

    def as_rational(self):
        """Return the Fraction value when constant, else None."""
        if not self.t:
            return Fraction(0)
        if len(self.t) == 1 and 0 in self.t:
            return Fraction(self.t[0], self.d)
        return None

    def exact_div(self, other: "Polynomial"):
        """Exact polynomial quotient self/other, or None if not divisible.

        A constant divisor scales self in one pass.  Any other takes
        fraction-free long division in the packed lex order: whenever the
        divisor's leading coefficient does not divide the remainder's, the
        remainder and the partial quotient are scaled by the missing factor,
        and the accumulated scale goes into the quotient's denominator.
        """
        divisor = other.t
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.t:
            return Polynomial()
        if len(divisor) == 1 and 0 in divisor:
            lc = divisor[0]
            return self._scaled(other.d if lc > 0 else -other.d, abs(lc))
        lead = max(divisor)
        # guard bits up to the leading monomial's top slot: m | guard minus
        # lead borrows across no slot, and leaves a slot's guard bit set
        # exactly when m's exponent there is at least lead's
        guard = _GUARD & ((1 << (lead.bit_length() + _SLOT_BITS)) - 1)
        lc = divisor[lead]
        rem = self.t.copy()
        quo = {}
        scale = 1
        while rem:
            m = max(rem)
            if ((m | guard) - lead) & guard != guard:
                return None
            q = m - lead
            r = rem[m]
            if r % lc:
                f = abs(lc) // gcd(r, lc)
                scale *= f
                rem = {k: v * f for k, v in rem.items()}
                quo = {k: v * f for k, v in quo.items()}
                r *= f
            cq = r // lc
            quo[q] = cq
            get = rem.get
            for md, cd in divisor.items():
                k = md + q
                v = get(k, 0) - cq * cd
                if v:
                    rem[k] = v
                else:
                    del rem[k]
        d2 = other.d
        d = scale * self.d
        if d2 != 1:
            quo = {k: v * d2 for k, v in quo.items()}
        return _poly(quo, d) if d != 1 else Polynomial(quo)

    def evaluate(self, assignment):
        """Evaluate at an id -> Fraction map; every id present must be covered."""
        total = Fraction(0)
        for m, c in self.t.items():
            val = Fraction(c)
            for ident, e in _unpack(m):
                if ident not in assignment:
                    raise MissingAssignmentError(
                        f"no value for indeterminate {indet_name(ident)}")
                val *= assignment[ident] ** e
            total += val
        return total / self.d

    def substitute(self, assignment):
        """Partially evaluate: ids in the map are replaced by rationals."""
        out = {}
        for m, c in self.t.items():
            val = Fraction(c, self.d)
            kept = []
            for ident, e in _unpack(m):
                if ident in assignment:
                    val *= assignment[ident] ** e
                else:
                    kept.append((ident, e))
            if val:
                key = _pack(kept)
                out[key] = out.get(key, 0) + val
        return _from_fractions(out)

    def __repr__(self):
        return f"Polynomial({poly_str(self) if self.t else '0'})"


def _power(base, k: int, one):
    """base**k by square-and-multiply, one being the ring's unit."""
    if k < 0:
        raise ValueError("negative power")
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def poly_sum_of_products(pairs):
    """The sum of p * q over a list of Polynomial pairs, multiplied into one
    int terms dict over the lcm of their int denominators; the exponent
    guard reads the terms that survive."""
    d = 1
    for p, q in pairs:
        pd = p.d * q.d
        d = d * pd // gcd(d, pd)
    terms = {}
    get = terms.get
    for p, q in pairs:
        f = d // (p.d * q.d)
        t1, t2 = p.t, q.t
        if len(t1) < len(t2):
            t1, t2 = t2, t1  # the larger factor in the inner loop
        for m2, c2 in t2.items():
            c2 *= f
            for m1, c1 in t1.items():
                m = m1 + m2
                terms[m] = get(m, 0) + c1 * c2
    terms = {m: c for m, c in terms.items() if c}
    if not terms:
        return ZERO.num  # most residual sums cancel; build nothing
    if reduce(or_, terms, 0) & _GUARD:
        raise OverflowError(f"monomial exponent above {MAX_EXPONENT}")
    return _poly(terms, d)


def mu_poly(alpha) -> Polynomial:
    """The linear form mu.alpha as a polynomial."""
    terms = {}
    for i, coord in enumerate(alpha, start=1):
        if coord:
            terms[_var_mon(i)] = coord
    return Polynomial(terms)


def normalize_form(alpha):
    """Write alpha = k * alpha0 with alpha0 primitive and lex-positive.

    Returns (alpha0, k); raises ZeroFormError on alpha = 0.
    """
    g = 0
    for coord in alpha:
        g = gcd(g, abs(coord))
    if g == 0:
        raise ZeroFormError(f"form requested for zero lattice point {alpha}")
    if alpha < (0,) * len(alpha):
        g = -g
    return tuple(coord // g for coord in alpha), g


# --------------------------------------------------------------------------
# Scalar
# --------------------------------------------------------------------------


class Scalar:
    """Element of the localized ring; immutable once constructed."""

    __slots__ = ("num", "forms")

    def __init__(self, num: Polynomial, forms=()):
        if not forms or not num.t:
            self.num = num
            self.forms = ()
            return
        num, forms = _cancel(num, tuple(forms))
        self.num = num
        self.forms = tuple(sorted(forms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, c) -> "Scalar":
        return cls(Polynomial.const(Fraction(c)))

    @classmethod
    def indeterminate(cls, name: str) -> "Scalar":
        return cls(Polynomial.var(indet_id(name)))

    @classmethod
    def mu_form(cls, alpha) -> "Scalar":
        return cls(mu_poly(alpha))

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_rational(other)
        return None

    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        if not self.num.t:
            return other
        if not other.num.t:
            return self
        if self.forms == other.forms:
            return Scalar(self.num + other.num, self.forms)
        forms, (left, right) = common_denominator((self, other))
        return Scalar(left + right, forms)

    __radd__ = __add__

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s.num = -self.num
        s.forms = self.forms
        return s

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        if not self.num.t or not other.num.t:
            return ZERO
        # the unit rule: a product by the ONE object is the other factor
        if self is ONE:
            return other
        if other is ONE:
            return self
        return Scalar(self.num * other.num, self.forms + other.forms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, ONE)

    def div_form(self, alpha) -> "Scalar":
        """Divide by the linear form mu.alpha (alpha nonzero)."""
        prim, k = normalize_form(alpha)
        if k != 1:
            num = self.num._scaled(1, k) if k > 0 else self.num._scaled(-1, -k)
        else:
            num = self.num
        if not num.t:
            return ZERO
        return Scalar(num, self.forms + (prim,))

    # -- predicates / conversions -------------------------------------------

    def is_zero(self):
        return not self.num.t

    def __bool__(self):
        return bool(self.num.t)

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        return self.forms == other.forms and self.num == other.num

    def __hash__(self):
        # without forms, self equals its numerator, constants included
        return hash((self.num, self.forms)) if self.forms else hash(self.num)

    def as_rational(self):
        """Fraction value when the scalar is a rational constant, else None."""
        if self.forms:
            return None
        return self.num.as_rational()

    def evaluate(self, assignment) -> Fraction:
        """Exact value at a full assignment {name_or_id: rational}.

        Raises DenominatorVanishesError when some denominator form hits zero
        (the assignment is non-generic for this expression).
        """
        amap = _assignment_ids(assignment)
        val = self.num.evaluate(amap)
        for alpha in self.forms:
            val /= _form_value(alpha, amap)
        return val

    def substitute(self, assignment) -> "Scalar":
        """Specialize some indeterminates to rationals.

        Denominator forms must either avoid the substituted mu ids entirely or
        evaluate to a nonzero rational under them; partial overlaps would leave
        a non-form denominator and are rejected.
        """
        amap = _assignment_ids(assignment)
        num = self.num.substitute(amap)
        keep = []
        scale = Fraction(1)
        for alpha in self.forms:
            touched = [i in amap for i, coord in enumerate(alpha, start=1) if coord]
            if not any(touched):
                keep.append(alpha)
                continue
            if not all(touched):
                raise ValueError(
                    f"partial specialization of denominator form mu.{alpha}")
            scale /= _form_value(alpha, amap)
        return Scalar(num.scale(scale) if scale != 1 else num, tuple(keep))

    def __repr__(self):
        return f"Scalar({scalar_str(self)})"

    def __str__(self):
        return scalar_str(self)


def _assignment_ids(assignment):
    out = {}
    for key, value in assignment.items():
        ident = indet_id(key) if isinstance(key, str) else key
        out[ident] = Fraction(value)
    return out


def _form_value(alpha, amap) -> Fraction:
    """The nonzero value of the form mu.alpha at an id -> Fraction map."""
    fv = Fraction(0)
    for i, coord in enumerate(alpha, start=1):
        if coord:
            if i not in amap:
                raise MissingAssignmentError(f"no value for mu{i}")
            fv += amap[i] * coord
    if fv == 0:
        raise DenominatorVanishesError(f"mu.{alpha} vanishes under the assignment")
    return fv


def _cancel(num: Polynomial, forms):
    """Cancel every stored form that exactly divides the nonzero numerator;
    an exact quotient of nonzero polynomials is nonzero."""
    remaining = []
    for alpha in forms:
        q = num.exact_div(mu_poly(alpha))
        if q is None:
            remaining.append(alpha)
        else:
            num = q
    return num, tuple(remaining)


def common_denominator(scalars):
    """(forms, numerators) with numerators[i] / prod(forms) == scalars[i]:
    forms is the least common multiple of the scalars' form multisets, as a
    sorted tuple, and each numerator is its scalar's times the forms it lacks.
    """
    have = [Counter(s.forms) for s in scalars]
    lcm = reduce(or_, have, Counter())
    numerators = []
    for s, own in zip(scalars, have):
        num = s.num
        for alpha in (lcm - own).elements():
            num = num * mu_poly(alpha)
        numerators.append(num)
    return tuple(sorted(lcm.elements())), numerators


ZERO = Scalar(Polynomial())
ONE = Scalar(Polynomial.const(1))


def sum_of_products(pairs):
    """The sum of a * b over a list of Scalar pairs, equal to the left fold
    of a * b under +.

    One pair is a * b, so the unit rule stays in Scalar.__mul__.  For more,
    the numerators of each multiset of denominator forms are summed by one
    poly_sum_of_products into one canonical Scalar, and the groups, rare in
    practice, are added.
    """
    if len(pairs) == 1:
        (a, b), = pairs
        return a * b
    groups = {}
    for a, b in pairs:
        if a.num.t and b.num.t:
            fa, fb = a.forms, b.forms
            forms = tuple(sorted(fa + fb)) if fa and fb else fa or fb
            groups.setdefault(forms, []).append((a.num, b.num))
    out = ZERO
    for forms, products in groups.items():
        num = poly_sum_of_products(products)
        if num.t:
            out = out + Scalar(num, forms)
    return out


# --------------------------------------------------------------------------
# canonical strings
# --------------------------------------------------------------------------


def _sorted_terms(terms):
    """Graded lex on (id, exp) tuples: higher degree first, then higher power
    at the smaller id."""
    return sorted(terms.items(), reverse=True,
                  key=lambda t: (sum(e for _, e in t[0]),
                                 tuple((-i, e) for i, e in t[0])))


def _mon_str(m):
    parts = []
    for ident, e in sorted(m):
        name = indet_name(ident)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def poly_str(poly: Polynomial) -> str:
    """Render a polynomial; terms in graded-lex descending order."""
    terms = dict(poly.terms())
    if not terms:
        return "0"
    pieces = []
    for m, c in _sorted_terms(terms):
        mono = _mon_str(m)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        pieces.append(("-" if c < 0 else "+", body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += sign + body
    return out


def form_token(alpha, mult=1) -> str:
    body = "mu(" + ",".join(str(c) for c in alpha) + ")"
    return body if mult == 1 else f"{body}^{mult}"


def scalar_str(s: Scalar) -> str:
    """Canonical string; integer-content denominator, sorted form tokens."""
    if not s.num.t:
        return "0"
    # canonical form keeps gcd(content, d) = 1: the numerator is written
    # with its integer coefficients t, and d leads the denominator
    num_str = poly_str(Polynomial(s.num.t))
    factors = []
    if s.num.d != 1:
        factors.append(str(s.num.d))
    # forms is sorted, so the counts come in token order
    factors.extend(form_token(alpha, k) for alpha, k in Counter(s.forms).items())
    if not factors:
        return num_str
    if len(s.num.t) > 1:
        num_str = f"({num_str})"
    den_str = factors[0] if len(factors) == 1 else "(" + "*".join(factors) + ")"
    return f"{num_str}/{den_str}"


def is_simple_product(s: Scalar) -> bool:
    """True when the canonical string is a bare signed integer monomial."""
    if not s.num.t:
        return True
    if s.forms or len(s.num.t) != 1:
        return False
    return s.num.d == 1


# --------------------------------------------------------------------------
# scalar parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-z]+[0-9]*)|([()\[\]+\-*/^,]))")


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character at {text[pos:pos + 10]!r}")
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("sym", m.group(3)))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        k, v = self.next()
        if k != kind or (value is not None and v != value):
            raise ParseError(f"expected {value or kind}, got {v!r}")
        return v

    def at_sym(self, value):
        k, v = self.peek()
        return k == "sym" and v == value

    def done(self):
        return self.i >= len(self.tokens)


def _parse_point(ts: _TokenStream, open_sym, close_sym):
    """A bracketed list of signed ints, such as (1,-2) or [0,3]."""
    ts.expect("sym", open_sym)
    coords = []
    while True:
        sign = 1
        if ts.at_sym("-"):
            ts.next()
            sign = -1
        coords.append(sign * ts.expect("int"))
        if not ts.at_sym(","):
            ts.expect("sym", close_sym)
            return tuple(coords)
        ts.next()


def _parse_power(ts: _TokenStream, out: Scalar) -> Scalar:
    """out, raised to the power k of an optional "^" k."""
    if not ts.at_sym("^"):
        return out
    ts.next()
    k = ts.expect("int")
    if k > MAX_EXPONENT:
        raise ParseError(f"exponent {k} past {MAX_EXPONENT}")
    return out ** k


def _parse_divisor(ts: _TokenStream) -> Scalar:
    """divisor := (int | mu(alpha)) ["^" k] | "(" divisor ("*" divisor)* ")",
    returned as its reciprocal."""
    if ts.at_sym("("):
        ts.next()
        out = _parse_divisor(ts)
        while ts.at_sym("*"):
            ts.next()
            out = out * _parse_divisor(ts)
        ts.expect("sym", ")")
        return out
    kind, value = ts.next()
    if kind == "int":
        if not value:
            raise ParseError("zero denominator")
        out = Scalar.from_rational(Fraction(1, value))
    elif (kind, value) == ("name", "mu"):
        alpha = _parse_point(ts, "(", ")")
        if not any(alpha):
            raise ParseError(f"zero form {form_token(alpha)} in a denominator")
        out = ONE.div_form(alpha)
    else:
        raise ParseError(f"bad denominator factor near {value!r}")
    return _parse_power(ts, out)


def _parse_factor(ts: _TokenStream) -> Scalar:
    kind, value = ts.next()
    if kind == "int":
        out = Scalar.from_rational(value)
    elif kind == "name":
        if value == "mu" and ts.at_sym("("):
            out = Scalar.mu_form(_parse_point(ts, "(", ")"))
        else:
            out = Scalar.indeterminate(value)
    elif (kind, value) == ("sym", "("):
        out = _parse_sum(ts)
        ts.expect("sym", ")")
    else:
        raise ParseError(f"unexpected token {value!r}")
    return _parse_power(ts, out)


def _parse_term(ts: _TokenStream, leaf=None):
    """term := factor (("*" factor) | ("/" divisor))*, so "/" divides the
    product before it and never a sum.

    ``leaf(ts)`` may read a basis symbol in place of a factor and return its
    key; a term holds at most one.  Returns (Scalar, key), key None when no
    basis symbol was read.
    """
    coef, key = ONE, None
    while True:
        k = leaf(ts) if leaf else None
        if k is None:
            coef = coef * _parse_factor(ts)
        elif key is None:
            key = k
        else:
            raise ParseError("two basis symbols in one term")
        while ts.at_sym("/"):
            ts.next()
            coef = coef * _parse_divisor(ts)
        if not ts.at_sym("*"):
            return coef, key
        ts.next()


def _signed_terms(ts: _TokenStream, leaf=None):
    """sum := sign* term (("+"|"-") sign* term)*, as a list of (Scalar, key)
    pairs with each run of signs folded into its term.

    A term past the packed kernel (an indeterminate past mu60, or an
    exponent past MAX_EXPONENT) is a ParseError.
    """
    terms = []
    while True:
        negate = False
        while ts.at_sym("+") or ts.at_sym("-"):
            negate ^= ts.next()[1] == "-"
        try:
            coef, key = _parse_term(ts, leaf)
        except OverflowError as exc:
            raise ParseError(str(exc)) from None
        terms.append((-coef if negate else coef, key))
        if not (ts.at_sym("+") or ts.at_sym("-")):
            return terms


def _parse_sum(ts: _TokenStream) -> Scalar:
    out = ZERO
    for coef, _ in _signed_terms(ts):
        out = out + coef
    return out


def parse_scalar(text: str) -> Scalar:
    ts = _TokenStream(tokenize(text))
    out = _parse_sum(ts)
    if not ts.done():
        raise ParseError(f"trailing input after scalar: {text!r}")
    return out


# convenient module constants for the named parameters
A = Scalar.indeterminate("a")
B = Scalar.indeterminate("b")
LAMBDA = Scalar.indeterminate("lambda")
CCHARGE = Scalar.indeterminate("c")
