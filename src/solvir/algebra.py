"""The solenoidal Witt/Virasoro algebra of rank n.

Basis symbols are E(alpha) = t^alpha * d_mu for alpha in Z^n together with a
central symbol C.  The bracket is

    [E(alpha), E(beta)] = mu.(beta - alpha) E(alpha + beta)
                          + delta_{alpha, -beta} * ((mu.alpha)^3 - mu.alpha)/12 * C
    [C, anything] = 0

with the customary 1/12 normalization of the central term hard-coded; other
cocycle representatives are reachable through the cocycle toolkit, not here.
E(0) is the Euler field d_mu itself.  The lexicographic order on Z^n gives the
triangular decomposition whose zero part is spanned by E(0) and C.

Elements are finite Scalar-linear combinations of basis symbols.  Rank n is
fixed per element at construction; mixing ranks raises RankMismatchError.
Combination, the base type of elements, is shared by every module's vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import product

from .errors import (
    AxisOutOfRangeError,
    CentralTermPresentError,
    FitFailedError,
    ParseError,
    RankMismatchError,
)
from .scalars import (
    ONE,
    ZERO,
    Scalar,
    _parse_point,
    _signed_terms,
    _TokenStream,
    is_simple_product,
    mu_poly,
    scalar_str,
    tokenize,
)

# dict key for the central symbol; lattice points are int tuples, so the
# string sentinel can never collide with an E(alpha) key
CENTRAL = "c"


# --------------------------------------------------------------------------
# lattice helpers
# --------------------------------------------------------------------------


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


# the unit vectors of Z^3.  Their forms mu.e_i = mu_i are independent
# indeterminates, so a residual whose coefficients are one polynomial in
# mu.alpha, mu.beta, mu.kappa is, at this triple, that polynomial itself
GENERIC_TRIPLE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# the most points box_points lists, and the most (alpha, beta) pairs, or
# pairing entries, one computation walks; more are refused before listing
MAX_BOX_POINTS = 10**6
MAX_PAIRS = 10**6


def box_size(n: int, radius: int) -> int:
    """Points in the rank-n box of the radius; ValueError past MAX_BOX_POINTS."""
    size = (2 * radius + 1) ** n
    if size > MAX_BOX_POINTS:
        raise ValueError(f"the rank-{n} box of radius {radius} has more than "
                         f"{MAX_BOX_POINTS} points")
    return size


def box_points(n: int, radius: int):
    """All lattice points of rank n with coordinates in [-radius, radius],
    in lex order; ValueError past MAX_BOX_POINTS points."""
    box_size(n, radius)
    return list(product(range(-radius, radius + 1), repeat=n))


def check_pairs(count: int, what: str):
    """ValueError when what walks more than MAX_PAIRS pairs."""
    if count > MAX_PAIRS:
        raise ValueError(f"{what} walks {count} pairs, more than {MAX_PAIRS}")


def vsum(points, start):
    """start plus the sum of the points."""
    for p in points:
        start = vadd(start, p)
    return start


def lex_compare(alpha, beta) -> int:
    """Total order on Z^n: -1, 0 or 1.  Compatible with addition."""
    if len(alpha) != len(beta):
        raise RankMismatchError(f"rank {len(alpha)} vs {len(beta)}")
    if alpha == beta:
        return 0
    return -1 if alpha < beta else 1


def lex_sign(alpha) -> int:
    """Sign of alpha against 0 in the lexicographic order."""
    for coord in alpha:
        if coord > 0:
            return 1
        if coord < 0:
            return -1
    return 0


@lru_cache(maxsize=None)
def eta0(alpha) -> Scalar:
    """((mu.alpha)^3 - mu.alpha)/12, the normalized central coefficient."""
    x = mu_poly(alpha)
    return Scalar(((x * x * x) - x).scale(Fraction(1, 12)))


@lru_cache(maxsize=None)
def _mu_scalar(alpha) -> Scalar:
    """The form mu.alpha as a Scalar, cached per lattice point."""
    return Scalar.mu_form(alpha)


# --------------------------------------------------------------------------
# finite combinations
# --------------------------------------------------------------------------


def as_scalar(c) -> Scalar:
    return c if isinstance(c, Scalar) else Scalar.from_rational(c)


def _acc(store, key, value):
    """store[key] += value, dropping the key when the sum is zero."""
    v = store.get(key)
    v = value if v is None else v + value
    if v:
        store[key] = v
    else:
        store.pop(key, None)


def point_str(symbol: str, point) -> str:
    """e[1,-2]-style text of a basis symbol at a lattice point."""
    return symbol + "[" + ",".join(str(c) for c in point) + "]"


class Combination:
    """Finite Scalar-linear combination of basis keys, stored without zeros.

    Algebra elements, 1-cochains and the vectors of the density, Verma and
    generalized Verma modules are all of this shape, so the arithmetic lives
    here.  A subclass says what a key is (_key checks it, rank included; by
    default a rank-n lattice point), how it is written (_basis_str) and in
    which order terms are rendered (_sorted_keys).  Only combinations of the
    same type combine, and mixing ranks raises RankMismatchError.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for key, coef in terms.items():
                key, coef = self._key(key), as_scalar(coef)
                if coef:
                    self.terms[key] = coef

    def _key(self, point):
        point = tuple(point)
        if len(point) != self.n:
            raise RankMismatchError(
                f"point {point} in rank-{self.n} {type(self).__name__}")
        return point

    def _basis_str(self, key) -> str:
        return str(key)

    def _sorted_keys(self):
        return sorted(self.terms)

    def _like(self, terms):
        """Same type and rank over an already clean terms dict."""
        res = object.__new__(self.__class__)
        res.n = self.n
        res.terms = terms
        return res

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.n != other.n:
            raise RankMismatchError(f"rank {self.n} vs {other.n}")
        out = dict(self.terms)
        for key, coef in other.terms.items():
            _acc(out, key, coef)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = as_scalar(c)
        if not c:
            return self._like({})
        return self._like({k: coef * c for k, coef in self.terms.items()})

    __mul__ = __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, Combination):
            return NotImplemented
        return other.__class__ is self.__class__ and self.n == other.n \
            and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, key) -> Scalar:
        return self.terms.get(self._key(key), ZERO)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for key in self._sorted_keys():
            coef, basis = _coef_str(self.terms[key]), self._basis_str(key)
            pieces.append(basis if coef == "1" else f"{coef}*{basis}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {self})"


class AlgebraElement(Combination):
    """Finite Scalar-linear combination of E(alpha) symbols and C."""

    __slots__ = ()

    def _key(self, key):
        return CENTRAL if key == CENTRAL else super()._key(key)

    def _basis_str(self, key):
        return "c" if key == CENTRAL else point_str("e", key)

    def _sorted_keys(self):
        return self.support() + ([CENTRAL] if CENTRAL in self.terms else [])

    def support(self):
        """Lattice points carrying nonzero E-coefficients, sorted."""
        return sorted(k for k in self.terms if k != CENTRAL)

    def has_central(self):
        return CENTRAL in self.terms


def basis_element(n: int, alpha) -> AlgebraElement:
    return AlgebraElement(n, {tuple(alpha): ONE})


def central_element(n: int) -> AlgebraElement:
    return AlgebraElement(n, {CENTRAL: ONE})


def euler_element(n: int) -> AlgebraElement:
    """d_mu, i.e. E(0)."""
    return basis_element(n, (0,) * n)


class SolenoidalAlgebra:
    """Shareable rank-n context; construction shorthand for elements."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("rank must be >= 1")
        self.n = n

    def e(self, *alpha) -> AlgebraElement:
        if len(alpha) == 1 and isinstance(alpha[0], (tuple, list)):
            alpha = tuple(alpha[0])
        return basis_element(self.n, alpha)

    def c(self) -> AlgebraElement:
        return central_element(self.n)

    def d(self) -> AlgebraElement:
        return euler_element(self.n)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self.n)

    def bracket(self, x, y) -> AlgebraElement:
        return vir_bracket(x, y)


# --------------------------------------------------------------------------
# brackets
# --------------------------------------------------------------------------


@lru_cache(maxsize=120_000)
def _basis_bracket_terms(ka, kb):
    """Bracket of two basis symbols as a terms dict; cached for scan reuse."""
    out = {}
    w = _mu_scalar(vsub(kb, ka))
    if w:
        out[vadd(ka, kb)] = w
    if all(a + b == 0 for a, b in zip(ka, kb)):
        cterm = eta0(ka)
        if cterm:
            out[CENTRAL] = cterm
    return out


def vir_bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Full bracket with central term; C brackets to zero with everything."""
    if x.n != y.n:
        raise RankMismatchError(f"rank {x.n} vs {y.n}")
    out = {}
    for ka, ca in x.terms.items():
        if ka == CENTRAL:
            continue
        for kb, cb in y.terms.items():
            if kb == CENTRAL:
                continue
            if cb is ONE:
                coef = ca
            elif ca is ONE:
                coef = cb
            else:
                coef = ca * cb
            for key, base in _basis_bracket_terms(ka, kb).items():
                _acc(out, key, base if coef is ONE else coef * base)
    return x._like(out)


def witt_bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Centerless bracket; inputs must live in the Witt part."""
    if x.has_central() or y.has_central():
        raise CentralTermPresentError("witt_bracket input has a central term")
    out = vir_bracket(x, y)
    out.terms.pop(CENTRAL, None)
    return out


def jacobi_residual(x, y, z) -> AlgebraElement:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; zero for a Lie bracket."""
    return (vir_bracket(x, vir_bracket(y, z))
            + vir_bracket(y, vir_bracket(z, x))
            + vir_bracket(z, vir_bracket(x, y)))


@cache
def witt_jacobi_symbolic_identity() -> bool:
    """jacobi_residual of the rank-3 unit vectors is zero, expanded exactly.

    The coefficient of e_{alpha+beta+kappa} in the residual of any basis
    triple with nonzero lattice sum is one polynomial P in x = mu.alpha,
    y = mu.beta, z = mu.kappa, and no central term arises away from sum
    zero.  At the units x, y, z are the independent mu_1, mu_2, mu_3, so the
    residual there is P itself: its vanishing is P = 0, which with
    bilinearity and the lattice grading covers every triple with nonzero
    sum, at every rank.  Proved once per process.
    """
    return not jacobi_residual(*(basis_element(3, e) for e in GENERIC_TRIPLE))


def triangular_split(x: AlgebraElement):
    """Partition terms by the lex sign of their lattice point.

    Returns (plus, zero, minus); C and E(0) both belong to the zero part.
    """
    parts = {1: {}, 0: {}, -1: {}}
    for key, coef in x.terms.items():
        sign = 0 if key == CENTRAL else lex_sign(key)
        parts[sign][key] = coef
    mk = lambda t: AlgebraElement(x.n, t)
    return mk(parts[1]), mk(parts[0]), mk(parts[-1])


# --------------------------------------------------------------------------
# rank-one subalgebras Vir_i
# --------------------------------------------------------------------------


def vir_i_element(n: int, axis: int, m: int) -> AlgebraElement:
    """e_m^i = mu_i^{-1} t_i^m d_mu, the m-th basis vector of Vir_i."""
    if not 1 <= axis <= n:
        raise AxisOutOfRangeError(f"axis {axis} outside 1..{n}")
    eps = tuple(1 if j == axis - 1 else 0 for j in range(n))
    alpha = tuple(m * e for e in eps)
    coef = ONE.div_form(eps)
    return AlgebraElement(n, {alpha: coef})


def vir_i_cocycle_coefficients(n: int, axis: int):
    """Certify the restricted central extension on the axis subalgebra.

    Computes the central coefficient of [e_m^i, e_{-m}^i] at m = 1, 2, 3,
    fits eta_i(m) = a*m^3 + b*m exactly and checks the third sample against
    the fit.  The extension class is nontrivial precisely when a != 0.
    """
    samples = []
    for m in (1, 2, 3):
        br = vir_bracket(vir_i_element(n, axis, m), vir_i_element(n, axis, -m))
        samples.append(br.coefficient(CENTRAL))
    eta1, eta2, eta3 = samples
    sixth = Scalar.from_rational(Fraction(1, 6))
    a = (eta2 - eta1 - eta1) * sixth
    b = eta1 - a
    if a * 27 + b * 3 != eta3:
        raise FitFailedError("central samples are not cubic-odd in m")
    return a, b


# --------------------------------------------------------------------------
# text form: sums of "coef*e[a1,...,an]" and "coef*c"
# --------------------------------------------------------------------------


def element_str(x: AlgebraElement) -> str:
    return str(x)


def _coef_str(c: Scalar) -> str:
    s = scalar_str(c)
    return s if is_simple_product(c) else f"({s})"


def parse_element(text: str, n: int) -> AlgebraElement:
    """Inverse of element_str; also accepts '-' separated sums."""
    return parse_combination(text, AlgebraElement(n), "e", central=True)


def parse_combination(text: str, zero: Combination, symbol: str, central=False):
    """Sum of terms 'coef*symbol[...]' (and 'coef*c' when central) in zero's
    type, read by the scalar grammar with the basis symbol as one factor.

    c is the central symbol where it ends a product, and the central charge
    where '*' or '^' follows it.
    """
    ts = _TokenStream(tokenize(text))

    def leaf(ts):
        tok = ts.peek()
        if tok == ("name", symbol):
            ts.next()
            return zero._key(_parse_point(ts, "[", "]"))
        if central and tok == ("name", "c") \
                and ts.tokens[ts.i + 1:ts.i + 2] not in ([("sym", "*")], [("sym", "^")]):
            ts.next()
            return CENTRAL
        return None

    terms = {}
    for coef, key in _signed_terms(ts, leaf):
        if key is not None:
            _acc(terms, key, coef)
        elif coef:
            raise ParseError(f"term lacks a basis symbol {symbol}[...]"
                             + (" or c" if central else ""))
    if not ts.done():
        raise ParseError(f"unexpected token {ts.peek()[1]!r} in {type(zero).__name__}")
    return zero._like(terms)
