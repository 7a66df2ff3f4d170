"""2-cocycle calculus on the solenoidal Witt algebra.

A 2-cochain here is a skew function on pairs of lattice points.  Arbitrary
functions on Z^n x Z^n cannot be stored, so TwoCochain keeps a finite
parameterization with three parts, each exactly evaluable at every pair:

* a Scalar multiple of the canonical cocycle
      C0(alpha, beta) = ((mu.alpha)^3 - mu.alpha)/12 * delta_{alpha,-beta},
* the coboundary of a finitely supported 1-cochain f, i.e.
      (df)(alpha, beta) = mu.(beta - alpha) * f(alpha + beta),
* a finitely supported skew "extra" table (each unordered pair stored once,
  on its lex-sorted representative).

The normalization algorithm follows the change of basis
e'_alpha = e_alpha + theta(0, alpha)/(mu.alpha) * c: subtracting the
coboundary of the shift g(alpha) = theta(0, alpha)/(mu.alpha) kills every
theta(0, .) entry.  For a genuine cocycle the shifted cochain is then
supported on the diagonal pairs (alpha, -alpha): its residual at the triple
(alpha, beta, 0) is mu.(alpha + beta) times its value at (alpha, beta).  On
the diagonal it defines an odd table eta.  Valid eta tables fit
eta(alpha) = a*(mu.alpha)^3 + b*(mu.alpha); the class of the cocycle is
measured by the coefficient a alone, which is invariant under adding
coboundaries.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import product

from .algebra import (
    Combination,
    _acc,
    _mu_scalar,
    as_scalar,
    eta0,
    lex_compare,
    point_str,
    vadd,
    vneg,
    vsub,
    witt_jacobi_symbolic_identity,
)
from .errors import (
    BoxTooSmallError,
    NotACocycleError,
    NotCubicOddError,
    OutsideBoxError,
    ParseError,
    RankMismatchError,
)
from .linalg import RationalEchelon
from .scalars import ONE, ZERO, Polynomial, Scalar, mu_poly, parse_scalar


def canonical_cocycle(alpha, beta) -> Scalar:
    """((mu.alpha)^3 - mu.alpha)/12 when beta = -alpha, else 0."""
    if any(a + b for a, b in zip(alpha, beta)):
        return ZERO
    return eta0(tuple(alpha))


def box_points(n: int, radius: int):
    """All lattice points of rank n with coordinates in [-radius, radius]."""
    return [tuple(p) for p in product(range(-radius, radius + 1), repeat=n)]


def triples_with_sum(pts, total):
    """Triples (alpha, beta, kappa) of points of pts with sum total.

    alpha runs over pts in order, then beta; kappa is determined.
    """
    idx = set(pts)
    for alpha in pts:
        rest = vsub(total, alpha)
        for beta in pts:
            kappa = vsub(rest, beta)
            if kappa in idx:
                yield alpha, beta, kappa


def _record_point(n: int, point):
    """A lattice point read from a cochain record; ParseError unless rank n."""
    point = tuple(point)
    if len(point) != n:
        raise ParseError(f"point {list(point)} in a rank-{n} cochain record")
    return point


class OneCochain(Combination):
    """Finitely supported map from lattice points to Scalars."""

    __slots__ = ()

    def _basis_str(self, alpha):
        # the indicator function of the point
        return point_str("delta", alpha)

    value = Combination.coefficient

    def to_records(self):
        return [[list(alpha), str(value)]
                for alpha, value in sorted(self.terms.items())]

    @classmethod
    def from_records(cls, n, records):
        values = {}
        for alpha, text in records:
            alpha = _record_point(n, alpha)
            if alpha in values:
                raise ParseError(f"point {list(alpha)} listed twice in a cochain record")
            values[alpha] = parse_scalar(text)
        return cls(n, values)


class TwoCochain:
    """canonical multiple + coboundary part + finite skew deviation."""

    __slots__ = ("n", "canonical_multiple", "cob", "extra")

    def __init__(self, n: int, canonical_multiple=ZERO, cob=None, extra=None):
        self.n = n
        self.canonical_multiple = as_scalar(canonical_multiple)
        self.cob = cob if cob is not None else OneCochain(n)
        if self.cob.n != n:
            raise RankMismatchError(f"rank-{self.cob.n} coboundary in rank-{n} cochain")
        self.extra = {}
        if extra:
            for (alpha, beta), value in extra.items():
                self._put(tuple(alpha), tuple(beta), value)

    def _put(self, alpha, beta, value):
        value = as_scalar(value)
        if len(alpha) != self.n:
            raise RankMismatchError(f"pair {alpha}, {beta} in rank-{self.n} cochain")
        cmp = lex_compare(alpha, beta)
        if cmp == 0:
            if value:
                raise ValueError("skewness forces zero on diagonal pairs")
            return
        if cmp > 0:
            alpha, beta, value = beta, alpha, -value
        _acc(self.extra, (alpha, beta), value)

    def value(self, alpha, beta) -> Scalar:
        alpha, beta = tuple(alpha), tuple(beta)
        out = ZERO
        if self.canonical_multiple:
            c0 = canonical_cocycle(alpha, beta)
            if c0:
                out = out + self.canonical_multiple * c0
        if self.cob.terms:
            f = self.cob.value(vadd(alpha, beta))
            if f:
                out = out + _mu_scalar(vsub(beta, alpha)) * f
        if self.extra:
            cmp = lex_compare(alpha, beta)
            if cmp < 0:
                v = self.extra.get((alpha, beta))
                if v is not None:
                    out = out + v
            elif cmp > 0:
                v = self.extra.get((beta, alpha))
                if v is not None:
                    out = out - v
        return out

    def __add__(self, other):
        if self.n != other.n:
            raise RankMismatchError(f"rank {self.n} vs {other.n}")
        res = TwoCochain(self.n, self.canonical_multiple + other.canonical_multiple,
                         self.cob + other.cob, dict(self.extra))
        for (alpha, beta), value in other.extra.items():
            res._put(alpha, beta, value)
        return res

    def pair_sum_support(self):
        """Lattice sums s where theta can be nonzero on pairs with alpha+beta=s."""
        sums = set()
        if self.canonical_multiple:
            sums.add((0,) * self.n)
        sums.update(self.cob.terms)
        for alpha, beta in self.extra:
            sums.add(vadd(alpha, beta))
        return sums

    def to_records(self):
        return {
            "n": self.n,
            "canonical_multiple": str(self.canonical_multiple),
            "coboundary": self.cob.to_records(),
            "extra": [[list(a), list(b), str(v)]
                      for (a, b), v in sorted(self.extra.items())],
        }

    @classmethod
    def from_records(cls, data):
        n = int(data["n"])
        cm = parse_scalar(data.get("canonical_multiple", "0"))
        cob = OneCochain.from_records(n, data.get("coboundary", []))
        extra = {}
        for a, b, text in data.get("extra", []):
            a, b = _record_point(n, a), _record_point(n, b)
            if (a, b) in extra or (b, a) in extra:
                raise ParseError(f"pair {list(a)}, {list(b)} listed twice in extra")
            extra[(a, b)] = parse_scalar(text)
        return cls(n, cm, cob, extra)


def canonical_cochain(n: int, multiple=ONE) -> TwoCochain:
    return TwoCochain(n, multiple)


def coboundary(f: OneCochain) -> TwoCochain:
    """df(e_alpha, e_beta) = f([e_alpha, e_beta])."""
    return TwoCochain(f.n, ZERO, f)


def cocycle_residual(theta: TwoCochain, alpha, beta, kappa) -> Scalar:
    """theta(e_a,[e_k,e_b]) + theta(e_b,[e_a,e_k]) + theta(e_k,[e_b,e_a])."""
    alpha, beta, kappa = tuple(alpha), tuple(beta), tuple(kappa)
    out = ZERO
    for x, y, z in ((alpha, kappa, beta), (beta, alpha, kappa), (kappa, beta, alpha)):
        # [e_y, e_z] = mu.(z - y) e_{y+z}
        coef = _mu_scalar(vsub(z, y))
        if coef:
            val = theta.value(x, vadd(y, z))
            if val:
                out = out + coef * val
    return out


@cache
def canonical_cocycle_identity() -> bool:
    """(y-z)eta(x) + (z-x)eta(y) + (x-y)eta(z) = 0 at z = -x-y, expanded exactly.

    Here eta(t) = (t^3 - t)/12.  At a zero-sum triple (alpha, beta, kappa) the
    cocycle residual of C0 is this polynomial at x = mu.alpha, y = mu.beta;
    at any other triple every term of it vanishes, so C0 is a cocycle.
    Proved once per process.
    """
    x, y = Polynomial.var(1), Polynomial.var(2)
    z = -x - y

    def eta(t):
        return (t * t * t - t).scale(Fraction(1, 12))

    total = (y - z) * eta(x) + (z - x) * eta(y) + (x - y) * eta(z)
    return total.is_zero()


# skipped triples re-checked through cocycle_residual per check_cocycle_on_box
SAMPLE_SIZE = 16


def _extra_triples(theta: TwoCochain, pts):
    """(total, alpha, beta) of box triples where a residual term reads extra.

    The terms read theta(x, y+z) for (x, y, z) = (alpha, kappa, beta),
    (beta, alpha, kappa), (kappa, beta, alpha); for a stored pair read as
    theta(u, w), x = u and {y, z} = {a, w - a}.
    """
    idx = set(pts)
    out = set()
    for p, q in theta.extra:
        total = vadd(p, q)
        for u, w in ((p, q), (q, p)):
            if u not in idx:
                continue
            for a in pts:
                b = vsub(w, a)
                if b in idx:
                    # u in the alpha, beta and kappa slots
                    out.update(((total, u, a), (total, a, u), (total, a, b)))
    return out


def check_cocycle_on_box(theta: TwoCochain, box: int):
    """Raise NotACocycleError if some triple inside the box has residual != 0.

    The residual is linear in theta = cm*C0 + df + extra.  C0 is a cocycle
    (canonical_cocycle_identity) and so is df (witt_jacobi_symbolic_identity),
    so at every triple the residual of theta equals that of extra, which is
    zero wherever no residual term reads an extra pair.  The triples where
    one does, O(|extra| * |box|) of them, are evaluated one by one through
    cocycle_residual, in the order of the exhaustive scan: by total in sorted
    pair-sum support, then alpha, then beta in box_points order, which is lex
    order.  So the first failing triple and its residual are those the
    exhaustive scan finds.  A seeded sample of SAMPLE_SIZE skipped triples
    with total in the pair-sum support goes through cocycle_residual too, a
    cross-check of TwoCochain.value against the two identities.
    """
    if not (canonical_cocycle_identity() and witt_jacobi_symbolic_identity()):
        raise RuntimeError("a cocycle identity failed its symbolic expansion")
    pts = box_points(theta.n, box)
    touched = _extra_triples(theta, pts)
    for total, alpha, beta in sorted(touched):
        kappa = vsub(total, vadd(alpha, beta))
        res = cocycle_residual(theta, alpha, beta, kappa)
        if res:
            raise NotACocycleError((alpha, beta, kappa), str(res))

    idx = set(pts)
    totals = sorted(theta.pair_sum_support())
    rng = random.Random(f"{theta.n}:{box}")
    drawn = 0
    # a bounded number of draws: a draw whose kappa leaves the box is lost
    for _ in range(4 * SAMPLE_SIZE if totals else 0):
        total, alpha, beta = rng.choice(totals), rng.choice(pts), rng.choice(pts)
        kappa = vsub(total, vadd(alpha, beta))
        if kappa not in idx or (total, alpha, beta) in touched:
            continue
        res = cocycle_residual(theta, alpha, beta, kappa)
        if res:
            raise NotACocycleError((alpha, beta, kappa), str(res))
        drawn += 1
        if drawn == SAMPLE_SIZE:
            break


class EtaTable:
    """Diagonal values eta(mu.alpha) of a normalized cocycle, within a box."""

    __slots__ = ("n", "box", "values")

    def __init__(self, n: int, box: int, values=None):
        self.n = n
        self.box = box
        self.values = OneCochain(n, values).terms
        for alpha, value in self.values.items():
            neg = vneg(alpha)
            if neg in self.values and self.values[neg] != -value:
                raise ValueError(f"eta table is not odd at {alpha}")

    def in_box(self, alpha):
        return all(abs(c) <= self.box for c in alpha)

    def value(self, alpha) -> Scalar:
        alpha = tuple(alpha)
        if not self.in_box(alpha):
            raise OutsideBoxError(f"{alpha} outside radius {self.box}")
        return self.values.get(alpha, ZERO)


def normalize_cocycle(theta: TwoCochain, box: int):
    """Shift a cocycle into diagonal form; returns (EtaTable, shift OneCochain).

    Validates the cocycle condition on the box first (NotACocycleError), then
    subtracts the coboundary of g(alpha) = theta(0, alpha)/(mu.alpha).  The
    shifted cochain theta' needs no second certificate: it is diagonal on
    the box.  The shift clears theta'(0, gamma) at every lattice point gamma
    (each gamma where theta(0, gamma) can be nonzero is a candidate), and
    theta' has the residual of theta, which is zero on the box.  At the box
    triple (alpha, beta, 0) that residual is
        mu.beta * theta'(alpha, beta) - mu.alpha * theta'(beta, alpha)
            + mu.(beta - alpha) * theta'(0, alpha + beta)
        = mu.(alpha + beta) * theta'(alpha, beta),
    and mu is generic, so theta'(alpha, beta) = 0 unless beta = -alpha.
    """
    check_cocycle_on_box(theta, box)
    n = theta.n
    zero = (0,) * n

    shift_support = {}
    candidates = set(theta.cob.terms)
    candidates.update(q if p == zero else p for p, q in theta.extra if zero in (p, q))
    for gamma in candidates - {zero}:
        val = theta.value(zero, gamma)
        if val:
            shift_support[gamma] = val.div_form(gamma)
    shift = OneCochain(n, shift_support)

    shifted = TwoCochain(n, theta.canonical_multiple, theta.cob - shift,
                         dict(theta.extra))

    values = {}
    for alpha in box_points(n, box):
        val = shifted.value(alpha, vneg(alpha))
        if val:
            values[alpha] = val
    return EtaTable(n, box, values), shift


def recognize_eta(eta: EtaTable):
    """Exact fit eta(alpha) = a*(mu.alpha)^3 + b*(mu.alpha) over the box.

    Needs box >= 2 so the first-axis samples alpha = eps1, 2*eps1 pin (a, b);
    every box point is then checked against the fit (NotCubicOddError).
    """
    if eta.box < 2:
        raise BoxTooSmallError("recognize_eta needs box >= 2")
    eps = (1,) + (0,) * (eta.n - 1)
    two_eps = (2,) + (0,) * (eta.n - 1)
    eta1 = eta.value(eps)
    eta2 = eta.value(two_eps)
    sixth = Scalar.from_rational(Fraction(1, 6))
    a = ((eta2 - eta1 - eta1) * sixth).div_form(eps).div_form(eps).div_form(eps)
    b = (eta1 - a * (Scalar.mu_form(eps) ** 3)).div_form(eps)
    for alpha in box_points(eta.n, eta.box):
        x = Scalar(mu_poly(alpha))
        if eta.value(alpha) != a * x * x * x + b * x:
            raise NotCubicOddError(f"table value at {alpha} off the cubic fit")
    return a, b


def full_equation_residual(eta: EtaTable, alpha, beta) -> Scalar:
    """2x*eta(x) - 2y*eta(y) - (x-y)*eta(x+y) - (x+y)*eta(x-y) at lattice points."""
    alpha, beta = tuple(alpha), tuple(beta)
    x = Scalar(mu_poly(alpha))
    y = Scalar(mu_poly(beta))
    return (x * eta.value(alpha) * 2 - y * eta.value(beta) * 2
            - (x - y) * eta.value(vadd(alpha, beta))
            - (x + y) * eta.value(vsub(alpha, beta)))


class FunctionalEquationSolution:
    """Kernel of the diagonal system a_k*(5 - 2^(k+2) + 3^k) = 0, k <= bound."""

    def __init__(self, degree_bound: int):
        self.degree_bound = degree_bound
        self.diagonal = {k: 5 - 2 ** (k + 2) + 3 ** k
                         for k in range(degree_bound + 1)}
        self.kernel_exponents = [k for k, c in self.diagonal.items() if c == 0]
        self.dimension = len(self.kernel_exponents)
        self.basis = [f"x^{k}" for k in self.kernel_exponents]

    def __repr__(self):
        return (f"FunctionalEquationSolution(degree_bound={self.degree_bound}, "
                f"basis={self.basis})")


def solve_functional_equation(degree_bound: int) -> FunctionalEquationSolution:
    """Polynomial solutions of 5x*eta(x) - 4x*eta(2x) + x*eta(3x) = 0.

    Substituting eta(x) = sum a_k x^k decouples the equation into the diagonal
    conditions a_k*(5 - 2^(k+2) + 3^k) = 0; the factor vanishes exactly for
    k in {1, 3}, so the kernel is spanned by x and x^3 once degree_bound >= 3.
    """
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    return FunctionalEquationSolution(degree_bound)


class H2Report:
    def __init__(self, cocycle_space_dim, coboundary_space_dim, box,
                 degree_bound, equations):
        self.cocycle_space_dim = cocycle_space_dim
        self.coboundary_space_dim = coboundary_space_dim
        self.quotient_dim = cocycle_space_dim - coboundary_space_dim
        self.box = box
        self.degree_bound = degree_bound
        self.equations = equations

    def as_dict(self):
        return {
            "cocycle_space_dim": self.cocycle_space_dim,
            "coboundary_space_dim": self.coboundary_space_dim,
            "quotient_dim": self.quotient_dim,
            "box": self.box,
            "degree_bound": self.degree_bound,
            "equations": self.equations,
        }


def h2_rank_experiment(n: int, box: int, degree_bound: int = 10) -> H2Report:
    """Truncated rank computation behind the one-dimensionality of H^2.

    After normalization a cocycle is the diagonal ansatz
    theta(alpha, beta) = delta_{alpha,-beta} * eta(mu.alpha) with polynomial
    eta = sum_k a_k x^k, k <= degree_bound.  The linear system imposed on the
    a_k consists of the skewness conditions (even coefficients vanish) plus
    the cocycle condition on every zero-sum triple inside the box, expanded
    into one rational equation per mu-monomial.  The kernel dimension is the
    cocycle space dimension; the coboundary directions inside the ansatz are
    the multiples of x (shifts reach exactly those), and the quotient
    dimension is their difference.
    """
    if box < 2:
        raise BoxTooSmallError("h2_rank_experiment needs box >= 2")
    ncoef = degree_bound + 1
    ech = RationalEchelon(ncoef)
    equations = 0

    # skewness: eta must be odd
    for k in range(0, ncoef, 2):
        row = [Fraction(0)] * ncoef
        row[k] = Fraction(2)
        ech.add_row(row)
        equations += 1

    x_direction = [Fraction(0)] * ncoef
    if ncoef > 1:
        x_direction[1] = Fraction(1)

    pts = box_points(n, box)
    powers = {}

    def pows(point):
        cached = powers.get(point)
        if cached is None:
            base = mu_poly(point)
            cached = [Polynomial.const(1)]
            for _ in range(degree_bound):
                cached.append(cached[-1] * base)
            powers[point] = cached
        return cached

    max_rank = ncoef - 2 if degree_bound >= 3 else ncoef
    seen = set()
    for alpha, beta, kappa in triples_with_sum(pts, (0,) * n):
        key = tuple(sorted((alpha, beta, kappa)))
        if key in seen:
            continue
        seen.add(key)
        u = [mu_poly(vsub(beta, kappa)), mu_poly(vsub(kappa, alpha)),
             mu_poly(vsub(alpha, beta))]
        xs = [pows(alpha), pows(beta), pows(kappa)]
        per_mon = {}
        for k in range(ncoef):
            col = Polynomial()
            for i in range(3):
                col = col + u[i] * xs[i][k]
            for mon, coef in col.terms():
                row = per_mon.get(mon)
                if row is None:
                    row = [Fraction(0)] * ncoef
                    per_mon[mon] = row
                row[k] += coef
        for mon in sorted(per_mon, key=lambda m: (len(m), m)):
            row = per_mon[mon]
            if not any(row):
                continue
            assert sum(c * v for c, v in zip(row, x_direction)) == 0, \
                "x direction must solve every cocycle equation"
            equations += 1
            ech.add_row(row)
        if ech.rank >= max_rank:
            break

    cocycle_dim = ncoef - ech.rank
    cob_dim = 1 if ncoef > 1 else 0
    return H2Report(cocycle_dim, cob_dim, box, degree_bound, equations)
