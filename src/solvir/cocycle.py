"""2-cocycle calculus on the solenoidal Witt algebra.

A 2-cochain here is a skew function on pairs of lattice points.  Arbitrary
functions on Z^n x Z^n cannot be stored, so TwoCochain keeps a finite
parameterization with three parts, each exactly evaluable at every pair:

* a Scalar multiple of the canonical cocycle
      C0(alpha, beta) = ((mu.alpha)^3 - mu.alpha)/12 * delta_{alpha,-beta},
* the coboundary of a finitely supported 1-cochain f, i.e.
      (df)(alpha, beta) = mu.(beta - alpha) * f(alpha + beta),
* a finitely supported skew "extra" table, which stores each pair in both
  orientations: (alpha, beta) -> v and (beta, alpha) -> -v.

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

from .algebra import (
    GENERIC_TRIPLE,
    Combination,
    _acc,
    _mu_scalar,
    as_scalar,
    box_points,
    eta0,
    point_str,
    vadd,
    vneg,
    vsub,
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
from .scalars import ONE, ZERO, Scalar, mu_poly, parse_scalar


def canonical_cocycle(alpha, beta) -> Scalar:
    """((mu.alpha)^3 - mu.alpha)/12 when beta = -alpha, else 0."""
    if any(a + b for a, b in zip(alpha, beta)):
        return ZERO
    return eta0(tuple(alpha))


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


def _record_items(records, width: int, field: str):
    """The records of a cochain field; ParseError naming the field unless
    they are a list of lists of width items."""
    if type(records) is not list:
        raise ParseError(f"{field} is {records!r}, not a list of records")
    for record in records:
        if type(record) is not list or len(record) != width:
            raise ParseError(f"{field} record {record!r} is not a list "
                             f"of {width} items")
    return records


def _record_point(n: int, point, field: str):
    """A lattice point read from a cochain record; ParseError unless a list
    of n ints."""
    if type(point) is not list or any(type(c) is not int for c in point):
        raise ParseError(f"{field} point {point!r} is not a list of integers")
    if len(point) != n:
        raise ParseError(f"point {point} in a rank-{n} cochain record")
    return tuple(point)


def _record_value(text, field: str) -> Scalar:
    """A scalar read from a cochain record; ParseError unless a string."""
    if type(text) is not str:
        raise ParseError(f"{field} value {text!r} is not a string")
    return parse_scalar(text)


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
        for alpha, text in _record_items(records, 2, "coboundary"):
            alpha = _record_point(n, alpha, "coboundary")
            if alpha in values:
                raise ParseError(f"point {list(alpha)} listed twice in a cochain record")
            values[alpha] = _record_value(text, "coboundary")
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
        for (alpha, beta), value in (extra or {}).items():
            self._put(tuple(alpha), tuple(beta), value)

    def _put(self, alpha, beta, value):
        value = as_scalar(value)
        if len(alpha) != self.n or len(beta) != self.n:
            raise RankMismatchError(f"pair {alpha}, {beta} in rank-{self.n} cochain")
        if alpha == beta:
            if value:
                raise ValueError("skewness forces zero on diagonal pairs")
            return
        _acc(self.extra, (alpha, beta), value)
        _acc(self.extra, (beta, alpha), -value)

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
            v = self.extra.get((alpha, beta))
            if v is not None:
                out = out + v
        return out

    def __add__(self, other):
        if self.n != other.n:
            raise RankMismatchError(f"rank {self.n} vs {other.n}")
        res = TwoCochain(self.n, self.canonical_multiple + other.canonical_multiple,
                         self.cob + other.cob)
        res.extra = dict(self.extra)
        for pair, value in other.extra.items():
            _acc(res.extra, pair, value)
        return res

    def pair_sum_support(self):
        """Lattice sums s where theta can be nonzero on pairs with alpha+beta=s."""
        sums = {vadd(alpha, beta) for alpha, beta in self.extra}
        sums.update(self.cob.terms)
        if self.canonical_multiple:
            sums.add((0,) * self.n)
        return sums

    def to_records(self):
        return {
            "n": self.n,
            "canonical_multiple": str(self.canonical_multiple),
            "coboundary": self.cob.to_records(),
            "extra": [[list(a), list(b), str(v)]
                      for (a, b), v in sorted(self.extra.items()) if a < b],
        }

    @classmethod
    def from_records(cls, data):
        """The cochain of a records object; ParseError naming the field
        that is not of the shape to_records writes."""
        if type(data) is not dict:
            raise ParseError(f"a cochain is a JSON object, not {data!r}")
        unknown = sorted(set(data) - {"n", "canonical_multiple", "coboundary", "extra"})
        if unknown:
            raise ParseError(f"unknown cochain field {unknown[0]!r}")
        if "n" not in data:
            raise ParseError("the cochain has no field n")
        n = data["n"]
        if type(n) is not int:
            raise ParseError(f"n is {n!r}, not an integer")
        cm = _record_value(data.get("canonical_multiple", "0"), "canonical_multiple")
        cob = OneCochain.from_records(n, data.get("coboundary", []))
        extra = {}
        for a, b, text in _record_items(data.get("extra", []), 3, "extra"):
            a, b = _record_point(n, a, "extra"), _record_point(n, b, "extra")
            if (a, b) in extra or (b, a) in extra:
                raise ParseError(f"pair {list(a)}, {list(b)} listed twice in extra")
            extra[(a, b)] = _record_value(text, "extra")
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
    """cocycle_residual of C0 at (e_1, e_2, -e_1-e_2) is zero, expanded exactly.

    At a zero-sum triple (alpha, beta, kappa) the cocycle residual of C0 is
    one polynomial in x = mu.alpha, y = mu.beta (mu.kappa is -x-y); at any
    other triple every term of it vanishes.  At this rank-2 triple x and y
    are the independent mu_1, mu_2, so the residual there is the polynomial
    itself, and its vanishing makes C0 a cocycle.  Proved once per process.
    """
    return not cocycle_residual(canonical_cochain(2), (1, 0), (0, 1), (-1, -1))


@cache
def coboundary_cocycle_identity() -> bool:
    """cocycle_residual of d(delta_{(1,1,1)}) at the rank-3 units is zero,
    expanded exactly.

    The cocycle residual of a coboundary df at (alpha, beta, kappa) is
    f(alpha+beta+kappa) times one polynomial in x = mu.alpha, y = mu.beta,
    z = mu.kappa.  At GENERIC_TRIPLE, whose sum (1,1,1) carries the value 1
    of the indicator, x, y, z are independent, so the residual there is the
    polynomial itself, and its vanishing makes every df a cocycle.  Proved
    once per process.
    """
    f = OneCochain(3, {(1, 1, 1): ONE})
    return not cocycle_residual(coboundary(f), *GENERIC_TRIPLE)


# skipped triples re-checked through cocycle_residual per check_cocycle_on_box
SAMPLE_SIZE = 16


def _extra_triples(theta: TwoCochain, pts):
    """(total, alpha, beta) of box triples where a residual term reads extra.

    The terms read theta(x, y+z) for (x, y, z) = (alpha, kappa, beta),
    (beta, alpha, kappa), (kappa, beta, alpha); for a stored pair (u, w),
    either orientation, x = u and {y, z} = {a, w - a}.
    """
    idx = set(pts)
    out = set()
    for u, w in theta.extra:
        if u not in idx:
            continue
        total = vadd(u, w)
        for a in pts:
            b = vsub(w, a)
            if b in idx:
                # u in the alpha, beta and kappa slots
                out.update(((total, u, a), (total, a, u), (total, a, b)))
    return out


def check_cocycle_on_box(theta: TwoCochain, box: int):
    """Raise NotACocycleError if some triple inside the box has residual != 0.

    The residual is linear in theta = cm*C0 + df + extra.  C0 is a cocycle
    (canonical_cocycle_identity) and so is df (coboundary_cocycle_identity),
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
    if not (canonical_cocycle_identity() and coboundary_cocycle_identity()):
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

    def value(self, alpha) -> Scalar:
        alpha = tuple(alpha)
        if any(abs(c) > self.box for c in alpha):
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

    candidates = set(theta.cob.terms) | {q for p, q in theta.extra if p == zero}
    shift = OneCochain(n, {gamma: theta.value(zero, gamma).div_form(gamma)
                           for gamma in candidates - {zero}})

    shifted = theta + coboundary(-shift)

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
    b = (eta1 - a * (_mu_scalar(eps) ** 3)).div_form(eps)
    for alpha in box_points(eta.n, eta.box):
        x = _mu_scalar(alpha)
        if eta.value(alpha) != a * x * x * x + b * x:
            raise NotCubicOddError(f"table value at {alpha} off the cubic fit")
    return a, b


def full_equation_residual(eta: EtaTable, alpha, beta) -> Scalar:
    """2x*eta(x) - 2y*eta(y) - (x-y)*eta(x+y) - (x+y)*eta(x-y) at lattice points."""
    alpha, beta = tuple(alpha), tuple(beta)
    x, y = _mu_scalar(alpha), _mu_scalar(beta)
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
    def __init__(self, cocycle_space_dim, coboundary_space_dim):
        self.cocycle_space_dim = cocycle_space_dim
        self.coboundary_space_dim = coboundary_space_dim
        self.quotient_dim = cocycle_space_dim - coboundary_space_dim


def h2_rank_experiment(n: int, box: int, degree_bound: int = 10) -> H2Report:
    """Truncated rank computation behind the one-dimensionality of H^2.

    After normalization a cocycle is the diagonal ansatz
    theta(alpha, beta) = delta_{alpha,-beta} * eta(mu.alpha), and skewness
    makes eta odd, so eta = sum_k a_k x^k over the odd k <= degree_bound.
    The linear system on these a_k is the cocycle condition on every
    zero-sum triple inside the box, expanded into one rational equation per
    mu-monomial.  Its kernel dimension is the cocycle space dimension.  Two
    solutions are known: x, which spans the coboundaries inside the ansatz
    (shifts reach exactly its multiples), and x^3, the canonical cocycle.
    So the rank cannot pass (unknowns - known solutions), the scan stops
    there, and both solutions are then checked against every row kept.  The
    quotient dimension is the kernel dimension minus the coboundary one.
    """
    if box < 2:
        raise BoxTooSmallError("h2_rank_experiment needs box >= 2")
    ks = range(1, degree_bound + 1, 2)
    known = [[int(k == j) for k in ks] for j in (1, 3) if j in ks]
    ech = RationalEchelon(len(ks))
    powers = {}
    for alpha, beta, kappa in triples_with_sum(box_points(n, box), (0,) * n):
        u = [mu_poly(vsub(beta, kappa)), mu_poly(vsub(kappa, alpha)),
             mu_poly(vsub(alpha, beta))]
        xs = []
        for point in (alpha, beta, kappa):
            if point not in powers:
                base = mu_poly(point)
                powers[point] = [base ** k for k in ks]
            xs.append(powers[point])
        per_mon = {}
        for j in range(len(ks)):
            col = u[0] * xs[0][j] + u[1] * xs[1][j] + u[2] * xs[2][j]
            for mon, coef in col.terms():
                per_mon.setdefault(mon, [0] * len(ks))[j] += coef
        for row in per_mon.values():
            ech.add_row(row)
        if ech.rank >= len(ks) - len(known):
            break
    if not all(ech.in_row_space_kernel(v) for v in known):
        raise RuntimeError("a known solution fails the cocycle equations")
    return H2Report(len(ks) - ech.rank, 1 if ks else 0)
