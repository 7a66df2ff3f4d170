import itertools
import random
import re
from fractions import Fraction

import pytest

import solvir.cocycle as cocycle
from solvir.algebra import vadd, vneg, vsub
from solvir.cocycle import (
    EtaTable,
    OneCochain,
    TwoCochain,
    box_points,
    canonical_cochain,
    canonical_cocycle,
    canonical_cocycle_identity,
    check_cocycle_on_box,
    coboundary,
    coboundary_cocycle_identity,
    cocycle_residual,
    full_equation_residual,
    h2_rank_experiment,
    normalize_cocycle,
    recognize_eta,
    solve_functional_equation,
)
from solvir.errors import (
    BoxTooSmallError,
    NotACocycleError,
    NotCubicOddError,
    OutsideBoxError,
    ParseError,
    RankMismatchError,
)
from solvir.scalars import ONE, ZERO, Scalar, mu_poly


def mu(alpha):
    return Scalar.mu_form(alpha)


def eta0(alpha):
    x = mu(alpha)
    return (x ** 3 - x) * Scalar.from_rational(Fraction(1, 12))


def test_canonical_values():
    assert canonical_cocycle((2, -1), (-2, 1)) == eta0((2, -1))
    assert canonical_cocycle((1, 0), (0, 1)).is_zero()
    assert canonical_cocycle((0, 0), (0, 0)).is_zero()


def test_canonical_residual_exhaustive_small():
    theta = canonical_cochain(2)
    pts = box_points(2, 2)
    idx = set(pts)
    for alpha, beta in itertools.product(pts, repeat=2):
        kappa = vneg(vadd(alpha, beta))
        if kappa in idx:
            assert cocycle_residual(theta, alpha, beta, kappa).is_zero()
    # off the zero-sum locus every delta vanishes
    assert cocycle_residual(theta, (1, 0), (0, 1), (1, 1)).is_zero()


def _random_cochain(rng, n=2, box=3, size=4):
    support = {}
    for _ in range(size):
        alpha = tuple(rng.randint(-box, box) for _ in range(n))
        support[alpha] = Scalar.from_rational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return OneCochain(n, support)


def test_coboundary_values():
    # f = 1/2 on the origin gives df(alpha, beta) = mu.beta on alpha+beta=0
    f = OneCochain(2, {(0, 0): Fraction(1, 2)})
    df = coboundary(f)
    for alpha in box_points(2, 2):
        beta = vneg(alpha)
        assert df.value(alpha, beta) == Scalar(mu_poly(beta))
    assert df.value((1, 0), (0, 1)).is_zero()
    assert coboundary(OneCochain(2)).value((1, 2), (3, -1)).is_zero()


def test_coboundary_single_point_support():
    gamma = (1, -2)
    f = OneCochain(2, {gamma: Scalar.from_rational(3)})
    df = coboundary(f)
    for alpha in box_points(2, 2):
        beta = tuple(g - a for g, a in zip(gamma, alpha))
        expected = Scalar(mu_poly(tuple(b - a for a, b in zip(alpha, beta)))) * 3
        assert df.value(alpha, beta) == expected
        if any(x + y != g for x, y, g in zip(alpha, beta, gamma)):
            raise AssertionError("pair construction broken")


def test_coboundaries_are_cocycles_randomized():
    rng = random.Random(1234)
    for _ in range(50):
        f = _random_cochain(rng)
        df = coboundary(f)
        for _ in range(6):
            triple = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3)]
            assert cocycle_residual(df, *triple).is_zero()


def test_skew_storage():
    theta = TwoCochain(2, extra={((0, 1), (1, 0)): ONE})
    assert theta.value((0, 1), (1, 0)) == ONE
    assert theta.value((1, 0), (0, 1)) == -ONE
    assert theta.value((1, 0), (1, 0)).is_zero()
    with pytest.raises(ValueError):
        TwoCochain(2, extra={((1, 0), (1, 0)): ONE})


def test_two_cochain_ranks_checked():
    with pytest.raises(RankMismatchError):
        canonical_cochain(2) + canonical_cochain(3)
    with pytest.raises(RankMismatchError):
        TwoCochain(2, extra={((0, 1, 0), (1, 0, 0)): ONE})
    with pytest.raises(RankMismatchError):
        coboundary(OneCochain(3, {(1, 0, 0): 1})) + coboundary(OneCochain(2))


def test_pair_of_mixed_ranks_rejected():
    for pair in (((0, 1), (1, 0, 0)), ((1, 0, 0), (0, 1))):
        with pytest.raises(RankMismatchError):
            TwoCochain(2, extra={pair: ONE})


def test_sum_accumulates_the_right_extra_table():
    left = TwoCochain(2, ONE, extra={((0, 1), (1, 0)): mu((1, 1))})
    # the same pair in the opposite orientation: the extra parts cancel
    right = TwoCochain(2, ZERO, OneCochain(2, {(1, 1): 2}),
                       extra={((1, 0), (0, 1)): mu((1, 1))})
    total = left + right
    for alpha, beta in itertools.product(box_points(2, 2), repeat=2):
        assert total.value(alpha, beta) == (left.value(alpha, beta)
                                            + right.value(alpha, beta))
    assert total.to_records()["extra"] == []


def test_normalize_canonical():
    eta, shift = normalize_cocycle(canonical_cochain(2), 3)
    assert shift.is_zero()
    for alpha in box_points(2, 3):
        assert eta.value(alpha) == (eta0(alpha) if any(alpha) else ZERO)
    a, b = recognize_eta(eta)
    assert a == Scalar.from_rational(Fraction(1, 12))
    assert b == Scalar.from_rational(Fraction(-1, 12))


def test_normalize_canonical_plus_coboundary():
    rng = random.Random(42)
    for _ in range(5):
        f = _random_cochain(rng)
        theta = canonical_cochain(2) + coboundary(f)
        eta, shift = normalize_cocycle(theta, 3)
        a, _ = recognize_eta(eta)
        assert a == Scalar.from_rational(Fraction(1, 12))
        # the shift rebuilds f away from the origin
        for gamma, value in f.terms.items():
            if any(gamma):
                assert shift.value(gamma) == value


def test_normalize_pure_coboundary():
    rng = random.Random(7)
    f = _random_cochain(rng)
    f.terms[(0, 0)] = Scalar.from_rational(Fraction(2, 3))
    eta, _ = normalize_cocycle(coboundary(f), 3)
    a, b = recognize_eta(eta)
    assert a.is_zero()
    assert b == Scalar.from_rational(Fraction(-4, 3))  # -2 f(0)
    for alpha in box_points(2, 3):
        assert eta.value(alpha) == mu(alpha) * b if any(alpha) else True


def test_normalize_rejects_non_cocycle():
    theta = TwoCochain(2, extra={((0, 1), (1, 0)): ONE})
    with pytest.raises(NotACocycleError):
        normalize_cocycle(theta, 2)


def test_a_coefficient_is_coboundary_invariant():
    rng = random.Random(99)
    base = TwoCochain(2, Scalar.from_rational(3))
    eta_base, _ = normalize_cocycle(base, 3)
    a_base, _ = recognize_eta(eta_base)
    assert a_base == Scalar.from_rational(Fraction(1, 4))
    for _ in range(5):
        f = _random_cochain(rng)
        eta, _ = normalize_cocycle(base + coboundary(f), 3)
        a, _ = recognize_eta(eta)
        assert a == a_base


def test_eta_oddness_after_normalization():
    rng = random.Random(5)
    f = _random_cochain(rng)
    eta, _ = normalize_cocycle(canonical_cochain(2) + coboundary(f), 3)
    for alpha in box_points(2, 3):
        assert eta.value(vneg(alpha)) == -eta.value(alpha)


def test_recognize_eta_degenerate_tables():
    zero_table = EtaTable(2, 3)
    a, b = recognize_eta(zero_table)
    assert a.is_zero() and b.is_zero()
    linear = EtaTable(2, 3, {alpha: mu(alpha)
                             for alpha in box_points(2, 3) if any(alpha)})
    a, b = recognize_eta(linear)
    assert a.is_zero() and b == ONE
    with pytest.raises(BoxTooSmallError):
        recognize_eta(EtaTable(2, 1))


def test_recognize_eta_rejects_corrupt_table():
    values = {alpha: eta0(alpha) for alpha in box_points(2, 2) if any(alpha)}
    values[(1, 1)] = values[(1, 1)] + ONE
    values[(-1, -1)] = -values[(1, 1)]
    with pytest.raises(NotCubicOddError):
        recognize_eta(EtaTable(2, 2, values))


def test_full_equation_residual():
    eta, _ = normalize_cocycle(canonical_cochain(2), 4)
    for alpha in box_points(2, 2):
        for beta in box_points(2, 2):
            assert full_equation_residual(eta, alpha, beta).is_zero()
    linear = EtaTable(2, 4, {alpha: mu(alpha)
                             for alpha in box_points(2, 4) if any(alpha)})
    assert full_equation_residual(linear, (1, 0), (0, 1)).is_zero()
    # an even table violates oddness; store it on lex-positive points only
    quad = EtaTable(2, 4, {alpha: mu(alpha) ** 2
                           for alpha in box_points(2, 4)
                           if alpha > (0, 0)})
    assert not full_equation_residual(quad, (1, 0), (0, 1)).is_zero()
    with pytest.raises(OutsideBoxError):
        full_equation_residual(eta, (4, 0), (1, 0))


def test_solve_functional_equation():
    sol = solve_functional_equation(10)
    assert sol.kernel_exponents == [1, 3]
    assert sol.dimension == 2
    assert sol.diagonal[3] == 0
    assert sol.diagonal[4] == 22
    truncated = solve_functional_equation(1)
    assert truncated.kernel_exponents == [1]
    assert truncated.dimension == 1


def test_functional_equation_basis_members_satisfy_identity():
    for k in (1, 3):
        table = EtaTable(2, 4, {alpha: mu(alpha) ** k
                                for alpha in box_points(2, 4) if any(alpha)})
        for alpha in box_points(2, 2):
            for beta in box_points(2, 2):
                assert full_equation_residual(table, alpha, beta).is_zero()


def test_h2_rank_experiment():
    report = h2_rank_experiment(2, 3, degree_bound=10)
    assert report.cocycle_space_dim == 2
    assert report.coboundary_space_dim == 1
    assert report.quotient_dim == 1
    with pytest.raises(BoxTooSmallError):
        h2_rank_experiment(2, 1)


def test_h2_rank_small_box():
    report = h2_rank_experiment(2, 2, degree_bound=10)
    assert report.cocycle_space_dim == 2
    assert report.quotient_dim == 1


# (cocycle, coboundary, quotient) dimensions by degree bound: x spans the
# coboundaries from degree 1 on, and x^3 the quotient from degree 3 on
H2_DIMS = {0: (0, 0, 0), 1: (1, 1, 0), 2: (1, 1, 0), 3: (2, 1, 1), 10: (2, 1, 1)}


@pytest.mark.parametrize("n, radius, degree_bound", [
    (n, radius, degree_bound)
    for n, radius in [(1, 3), (2, 2), (2, 3), (3, 2)]
    for degree_bound in H2_DIMS] + [(3, 3, 10)])
def test_h2_dimensions_by_degree_bound(n, radius, degree_bound):
    report = h2_rank_experiment(n, radius, degree_bound=degree_bound)
    assert (report.cocycle_space_dim, report.coboundary_space_dim,
            report.quotient_dim) == H2_DIMS[degree_bound]


def test_check_cocycle_skip_is_sound():
    # check_cocycle_on_box evaluates only the triples where a residual term
    # reads an extra pair, and theta here has none; honest residuals on
    # seeded triples off the pair-sum support, and the box check, must pass
    rng = random.Random(31337)
    f = _random_cochain(rng)
    theta = canonical_cochain(2) + coboundary(f)
    support = theta.pair_sum_support()
    checked = 0
    while checked < 50:
        triple = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3)]
        total = tuple(sum(c) for c in zip(*triple))
        if total in support:
            continue
        assert cocycle_residual(theta, *triple).is_zero()
        checked += 1
    check_cocycle_on_box(theta, 2)


def _reference_check(theta, box):
    """The exhaustive scan check_cocycle_on_box replaced.

    Every box triple whose total lies in the pair-sum support goes through
    cocycle_residual, by total, then alpha, then beta; returns the first
    failing triple with its residual string, or None.
    """
    pts = box_points(theta.n, box)
    idx = set(pts)
    for total in sorted(theta.pair_sum_support()):
        for alpha, beta in itertools.product(pts, repeat=2):
            kappa = tuple(t - a - b for t, a, b in zip(total, alpha, beta))
            if kappa not in idx:
                continue
            res = cocycle_residual(theta, alpha, beta, kappa)
            if res:
                return (alpha, beta, kappa), str(res)
    return None


def _cochain_with_extra(rng, n, box):
    """cm*C0 + df + extra with extra drawn from four kinds.

    0: a patch of dg (g a point mass at s) on every pair with sum s inside
       twice the box, which covers every pair a box residual reads: a cocycle;
    1: that patch with one entry changed: not a cocycle;
    2: one to three random pairs near the box;
    3: one to three pairs with both points outside the box, never read as
       theta(x, .) with x in the box.
    """
    def point(radius):
        return tuple(rng.randint(-radius, radius) for _ in range(n))

    cm = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    cob = OneCochain(n, {point(box): Fraction(rng.randint(-4, 4) or 1,
                                              rng.randint(1, 3))
                         for _ in range(rng.randint(0, 3))})
    kind = rng.randrange(4)
    extra = {}
    if kind < 2:
        s = point(box)
        g = Scalar.from_rational(rng.randint(1, 3))
        wide = set(box_points(n, 2 * box))
        for p in sorted(wide):
            q = tuple(a - b for a, b in zip(s, p))
            if p < q and q in wide:
                extra[(p, q)] = mu(tuple(b - a for a, b in zip(p, q))) * g
        if kind == 1:
            key = rng.choice(sorted(extra))
            extra[key] = extra[key] + rng.choice([ONE, mu((1,) * n)])
    else:
        for _ in range(rng.randint(1, 3)):
            if kind == 2:
                p, q = point(box + 1), point(box + 1)
            else:
                p = (box + rng.randint(1, 2),) + point(box)[1:]
                q = (-box - rng.randint(1, 2),) + point(box)[1:]
            if p != q:
                extra[(p, q)] = Scalar.from_rational(rng.randint(1, 5))
    return kind, TwoCochain(n, cm, cob, extra)


def test_check_cocycle_on_box_matches_exhaustive_scan():
    # same pass/raise, triple and residual as the scan it replaced, on
    # seeded cochains with extra entries of every kind
    rng = random.Random(1)
    cases = [(2, box) for box in (1, 2, 1, 2, 3) * 8] + [(3, 1)] * 9 + [(3, 2)]
    seen = set()
    for n, box in cases:
        kind, theta = _cochain_with_extra(rng, n, box)
        expected = _reference_check(theta, box)
        try:
            check_cocycle_on_box(theta, box)
            got = None
        except NotACocycleError as exc:
            got = (exc.triple, exc.residual)
        assert got == expected, (n, box, kind)
        seen.add((kind, expected is None))
    assert {(0, True), (1, False), (2, False), (3, True)} <= seen


def _even_canonical(alpha, beta):
    """C0 with the even eta(t) = t^2, which fails the cocycle condition."""
    if any(a + b for a, b in zip(alpha, beta)):
        return ZERO
    return mu(alpha) ** 2


def test_canonical_identity_reads_a_wrong_canonical(fresh_identities, monkeypatch):
    monkeypatch.setattr(cocycle, "canonical_cocycle", _even_canonical)
    assert canonical_cocycle_identity() is False


def test_coboundary_identity_reads_a_wrong_coboundary(fresh_identities, monkeypatch):
    # the coboundary term (mu.(beta-alpha))^2 f(alpha+beta) in TwoCochain.value
    right = TwoCochain.value

    def squared(self, alpha, beta):
        w = mu(vsub(beta, alpha))
        return right(self, alpha, beta) + (w * w - w) * self.cob.value(vadd(alpha, beta))

    monkeypatch.setattr(TwoCochain, "value", squared)
    assert coboundary_cocycle_identity() is False


def test_check_cocycle_sample_catches_wrong_canonical(fresh_identities, monkeypatch):
    # the identities, computed by the true code first, let check_cocycle_on_box
    # through; with the even C0 in TwoCochain.value its seeded sample must raise
    assert canonical_cocycle_identity() and coboundary_cocycle_identity()
    monkeypatch.setattr(cocycle, "canonical_cocycle", _even_canonical)
    with pytest.raises(NotACocycleError):
        check_cocycle_on_box(canonical_cochain(2), 2)


def test_two_cochain_records_roundtrip():
    rng = random.Random(8)
    f = _random_cochain(rng)
    theta = TwoCochain(2, Scalar.from_rational(Fraction(5, 3)), f,
                       {((0, 1), (1, 0)): mu((1, 1))})
    data = theta.to_records()
    back = TwoCochain.from_records(data)
    for alpha in box_points(2, 2):
        for beta in box_points(2, 2):
            assert back.value(alpha, beta) == theta.value(alpha, beta)


def _reference_diagonal_check(theta, box):
    """Every off-diagonal box pair, alpha then beta; the first nonzero pair
    with its value, or None."""
    pts = box_points(theta.n, box)
    for alpha in pts:
        for beta in pts:
            if all(a + b == 0 for a, b in zip(alpha, beta)):
                continue
            val = theta.value(alpha, beta)
            if val:
                return (alpha, beta), str(val)
    return None


def test_normalized_cochain_is_diagonal_on_box():
    # normalize_cocycle certifies only the cocycle condition; on every
    # cochain it accepts, the shifted cochain must vanish at every
    # off-diagonal box pair and equal eta on the diagonal
    rng = random.Random(1)
    cases = [(2, box) for box in (1, 2, 1, 2, 3) * 8] + [(3, 1)] * 9 + [(3, 2)]
    accepted = set()
    for n, box in cases:
        kind, theta = _cochain_with_extra(rng, n, box)
        try:
            eta, shift = normalize_cocycle(theta, box)
        except NotACocycleError:
            continue
        shifted = theta + coboundary(-shift)
        assert _reference_diagonal_check(shifted, box) is None, (n, box, kind)
        for alpha in box_points(n, box):
            assert eta.value(alpha) == shifted.value(alpha, vneg(alpha))
        accepted.add(kind)
    assert accepted == {0, 1, 2, 3}


@pytest.mark.parametrize("data, message", [
    ({"n": 2, "coboundary": [[[1, 0], "2"], [[1, 0], "3"]]},
     "point [1, 0] listed twice"),
    ({"n": 2, "extra": [[[0, 1], [1, 0], "1"], [[0, 1], [1, 0], "2"]]},
     "pair [0, 1], [1, 0] listed twice"),
    ({"n": 2, "extra": [[[0, 1], [1, 0], "1"], [[1, 0], [0, 1], "-1"]]},
     "pair [1, 0], [0, 1] listed twice"),
])
def test_cochain_records_reject_repeats(data, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        TwoCochain.from_records(data)
