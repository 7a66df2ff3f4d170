import random

import pytest

import solvir.gvm as gvm
from solvir.algebra import (
    SolenoidalAlgebra,
    basis_element,
    box_points,
    central_element,
    vir_bracket,
)
from solvir.density import DensityParams, basis_vector, density_act, formal_params
from solvir.errors import NotFormalParamsError, RankMismatchError
from solvir.gvm import (
    GvmMonomial,
    GvmVector,
    base_vector,
    grade_of,
    gvm_act,
    level_weight_basis,
    quotient_dim_level1,
)
from solvir.linalg import rank_scalar_matrix
from solvir.scalars import A, B, ONE, Scalar, mu_poly

A3 = SolenoidalAlgebra(3)
A2 = SolenoidalAlgebra(2)
P = formal_params(1)


def test_grade_of():
    x = (A3.e(2, 5, -1) + A3.c().scale(3) + A3.e(0, 1, 1).scale(2)
         + A3.e(-1, 0, 0))
    grades = grade_of(x)
    assert sorted(grades) == [-1, 0, 2]
    assert grades[2] == A3.e(2, 5, -1)
    assert grades[0] == A3.c().scale(3) + A3.e(0, 1, 1).scale(2)
    assert grades[-1] == A3.e(-1, 0, 0)


def test_grade_respects_bracket():
    rng = random.Random(17)
    for _ in range(30):
        alpha = tuple(rng.randint(-2, 2) for _ in range(2))
        beta = tuple(rng.randint(-2, 2) for _ in range(2))
        br = vir_bracket(A2.e(alpha), A2.e(beta))
        grades = grade_of(br)
        for degree, part in grades.items():
            if part.support():
                assert degree == alpha[0] + beta[0]


def test_degree_zero_action_on_base():
    v = base_vector(2, (0,))
    out = gvm_act(A2.e(0, 3), v, P)
    expected = base_vector(2, (3,)).scale(A + B * Scalar.mu_form((0, 3)))
    assert out == expected


def test_positive_degree_annihilates_base():
    for gamma in (-2, 0, 1):
        assert gvm_act(A2.e(1, gamma), base_vector(2, (2,)), P).is_zero()
        assert gvm_act(A2.e(2, gamma), base_vector(2, (0,)), P).is_zero()


def test_central_acts_by_zero():
    v = gvm_act(A2.e(-1, 2), base_vector(2, (0,)), P)
    assert gvm_act(central_element(2), v, P).is_zero()


def test_raising_through_one_letter_word():
    # E((1,g')) on E((-1,g)).v_k: only the bracket route survives
    gp, g, kappa = 2, -1, (1,)
    low = gvm_act(A2.e(-1, g), base_vector(2, kappa), P)
    out = gvm_act(A2.e(1, gp), low, P)
    bracket = vir_bracket(A2.e(1, gp), A2.e(-1, g))
    direct = gvm_act(bracket, base_vector(2, kappa), P)
    assert out == direct
    coef = Scalar(mu_poly((-2, g - gp))) * (
        A + Scalar.mu_form((0,) + kappa) + B * Scalar.mu_form((0, g + gp)))
    assert out == base_vector(2, (kappa[0] + g + gp,)).scale(coef)


def test_degree_zero_matches_density_action_after_reindexing():
    # the degree-zero action on base vectors is the rank-1 density action
    # with every mu index shifted up by one
    p1 = formal_params(1)
    for gamma in (-2, 0, 3):
        for kappa in (-1, 0, 2):
            out = gvm_act(A2.e(0, gamma), base_vector(2, (kappa,)), p1)
            coef = out.coefficient(GvmMonomial(2, (), (kappa + gamma,)))
            dens = density_act(basis_element(1, (gamma,)),
                               basis_vector(1, (kappa,)), p1)
            dcoef = dens.coefficient((kappa + gamma,))
            assert coef.evaluate({"mu2": 5, "a": 2, "b": 3}) == \
                dcoef.evaluate({"mu1": 5, "a": 2, "b": 3})


def test_module_axiom_randomized():
    rng = random.Random(808)
    monos = [GvmMonomial(2, ((-1, 0),), (0,)),
             GvmMonomial(2, ((-1, -1), (-1, 2)), (1,)),
             GvmMonomial(2, ((-2, 1),), (-1,)),
             GvmMonomial(2, (), (2,))]
    for _ in range(30):
        alpha = (rng.randint(-2, 2), rng.randint(-2, 2))
        beta = (rng.randint(-2, 2), rng.randint(-2, 2))
        x, y = A2.e(alpha), A2.e(beta)
        v = GvmVector(2, {rng.choice(monos): ONE,
                          rng.choice(monos): Scalar.from_rational(rng.randint(1, 4))})
        lhs = gvm_act(x, gvm_act(y, v, P), P) - gvm_act(y, gvm_act(x, v, P), P)
        rhs = gvm_act(vir_bracket(x, y), v, P)
        assert lhs == rhs, (alpha, beta)


def test_weight_bookkeeping():
    rng = random.Random(99)
    for _ in range(20):
        alpha = (rng.randint(-2, 2), rng.randint(-2, 2))
        start = GvmMonomial(2, ((-1, rng.randint(-2, 2)),), (rng.randint(-2, 2),))
        out = gvm_act(A2.e(alpha), GvmVector(2, {start: ONE}), P)
        expected_level = start.level() - alpha[0]
        expected_shift = start.mu_shift()[0] + alpha[1]
        for mono in out.terms:
            assert mono.level() == expected_level
            assert mono.mu_shift() == (expected_shift,)


def test_monomial_constructor_reads_letters():
    with pytest.raises(ValueError, match="degree >= 0"):
        GvmMonomial(2, [(0, 1)])
    with pytest.raises(RankMismatchError):
        GvmMonomial(2, [(-1, 0, 0)])
    m = GvmMonomial(3, [(-1, 2, 0), (-2, -1, 1), (-1, -3, 4)], (1, 1))
    permuted = GvmMonomial(3, [(-1, -3, 4), (-1, 2, 0), (-2, -1, 1)], (1, 1))
    assert m == permuted and hash(m) == hash(permuted)
    assert m.word == ((-2, -1, 1), (-1, -3, 4), (-1, 2, 0))
    assert m.level() == 4
    assert m.mu_shift() == (-1, 6)


def test_unchecked_words_are_the_validated_ones():
    """gvm_act builds its result monomials unchecked: each must be the
    monomial the validating constructor makes from its word and base."""
    v = GvmVector(2, {mono: ONE for mono in level_weight_basis(2, 2, (1,), 2)})
    x = A2.e(1, -1) + A2.e(0, 2) + A2.e(-1, 1) + A2.e(-2, 0) + A2.d()
    out = gvm_act(x, v, P)
    assert len(out.terms) > len(v.terms)
    for mono in out.terms:
        checked = GvmMonomial(2, mono.word, mono.base)
        assert checked == mono and hash(checked) == hash(mono)


@pytest.mark.parametrize("kappa", [(0, 5), ()])
def test_kappa_of_wrong_length_raises(kappa):
    with pytest.raises(RankMismatchError, match="kappa"):
        quotient_dim_level1(2, kappa, P, [1, 2])
    with pytest.raises(RankMismatchError, match="kappa"):
        level_weight_basis(2, 1, kappa, 1)
    with pytest.raises(RankMismatchError, match="kappa"):
        quotient_dim_level1(3, kappa[:1], formal_params(2), [1])


def test_level_weight_basis_level_one():
    basis = level_weight_basis(2, 1, (0,), 3)
    assert len(basis) == 7
    gammas = sorted(m.word[0][1] for m in basis)
    assert gammas == list(range(-3, 4))
    for m in basis:
        assert m.level() == 1
        assert m.mu_shift() == (0,)
    shifted = level_weight_basis(2, 1, (2,), 3)
    assert len(shifted) == 7


def test_level_weight_basis_level_two_oracle():
    # brute oracle: words (-2, g) with |g| <= 1, plus normal-ordered pairs
    # (-1, g1)(-1, g2); bases adjust to meet the total shift
    basis = level_weight_basis(2, 2, (0,), 1)
    singles = list(range(-1, 2))
    ordered_pairs = [(g1, g2) for g1 in singles for g2 in singles if g1 <= g2]
    assert len(basis) == len(singles) + len(ordered_pairs) == 3 + 6
    for m in basis:
        assert m.level() == 2
        assert m.mu_shift() == (0,)


def test_quotient_rank_requires_formal_params():
    numeric = DensityParams(1, Scalar.from_rational(1), Scalar.from_rational(0))
    with pytest.raises(NotFormalParamsError):
        quotient_dim_level1(2, (0,), numeric, [1, 2])


def test_quotient_rank_nonzero_single_entry():
    report = quotient_dim_level1(2, (5,), P, [1])
    assert report.boxes[0]["rank"] >= 1


def test_quotient_rank_monotone_and_stabilized():
    # the exact level-one rank is 3 for formal parameters: the pairing rows
    # span the moment functionals of degrees 0, 1, 2 and nothing else, which
    # meets the double-factorial ceiling 1*3 at level one
    for kappa in [(0,), (1,), (-1,)]:
        report = quotient_dim_level1(2, kappa, P, range(1, 6))
        ranks = [entry["rank"] for entry in report.boxes]
        assert all(x <= y for x, y in zip(ranks, ranks[1:]))
        assert report.stabilized
        assert ranks[-1] == 3
        assert all(r <= 3 for r in ranks)
    assert report.bound_string() == "1*3"


def test_quotient_rank_that_grows_is_not_stabilized():
    """Radius 0 ranks 1 and radius 1 ranks 3: the last two ranks differ, so
    the table has not stabilized."""
    report = quotient_dim_level1(2, (0,), P, [0, 1])
    assert [entry["rank"] for entry in report.boxes] == [1, 3]
    assert report.stabilized is False


def test_pairing_entry_closed_form():
    # the raising E((1,g')) on E((-1,g)).v_{k-g} has the single coefficient
    #   (-2 mu1 + mu2 (g - g')) (a + mu2 (k - g) + b mu2 (g + g')),
    # which is x y + (x z + mu2 y) g + mu2 z g^2 with g-free x, y, z: every
    # pairing row lies in the span of 1, g, g^2, so the level-one rank is at
    # most 3 at any radius
    mu1, mu2 = Scalar.mu_form((1, 0)), Scalar.mu_form((0, 1))
    for kappa in [(0,), (1,), (-1,)]:
        k = kappa[0]
        for box in (1, 2):
            columns = level_weight_basis(2, 1, kappa, box)
            assert [m.word[0][1] for m in columns] == list(range(-box, box + 1))
            for gp in range(-box, box + 1):
                raiser = A2.e(1, gp)
                target = GvmMonomial(2, (), (k + gp,))
                x = mu1 * -2 - mu2 * gp
                y = A + mu2 * k + B * mu2 * gp
                z = (B - ONE) * mu2
                for mono in columns:
                    g = mono.word[0][1]
                    entry = (Scalar.mu_form((-2, g - gp))
                             * (A + Scalar.mu_form((0, k - g))
                                + B * Scalar.mu_form((0, g + gp))))
                    assert entry == x * y + (x * z + mu2 * y) * g + mu2 * z * (g * g)
                    image = gvm_act(raiser, GvmVector(2, {mono: ONE}), P)
                    assert set(image.terms) == {target}
                    assert image.coefficient(target) == entry, (kappa, gp, g)


def test_report_shape():
    report = quotient_dim_level1(2, (0,), P, [2, 3])
    data = report.as_dict()
    assert data["n"] == 2
    assert data["kappa"] == [0]
    assert {"radius", "rows", "cols", "rank"} <= set(data["boxes"][0])
    assert data["bound"] == "1*3"


def test_one_build_for_all_radii(monkeypatch):
    """Radii 1..8 build the 17 x 17 matrix of radius 8 once: one gvm_act
    per entry and one staged elimination."""
    calls = {"act": 0, "rank": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gvm, "gvm_act", counted("act", gvm.gvm_act))
    monkeypatch.setattr(gvm, "rank_scalar_matrix",
                        counted("rank", gvm.rank_scalar_matrix))
    report = quotient_dim_level1(2, (0,), P, range(1, 9))
    assert calls == {"act": 17 ** 2, "rank": 1}
    assert [e["rows"] for e in report.boxes] == [2 * r + 1 for r in range(1, 9)]


def per_radius_ranks(n, kappa, p, radii):
    """Independent oracle: a fresh matrix per radius, rows and columns in
    box order, each ranked alone."""
    ranks = []
    for radius in radii:
        columns = level_weight_basis(n, 1, kappa, radius)
        matrix = []
        for gamma_r in box_points(n - 1, radius):
            target = GvmMonomial(n, (), tuple(k + g for k, g in zip(kappa, gamma_r)))
            matrix.append([gvm_act(basis_element(n, (1,) + gamma_r),
                                   GvmVector(n, {mono: ONE}), p).coefficient(target)
                           for mono in columns])
        ranks.append(rank_scalar_matrix(matrix))
    return ranks


@pytest.mark.parametrize("n,kappa,radii", [(2, (1,), [1, 2, 3, 4]),
                                           (2, (-2,), [2, 3]),
                                           (3, (0, 1), [1, 2])])
def test_shell_order_ranks_match_per_radius_builds(n, kappa, radii):
    p = formal_params(n - 1)
    report = quotient_dim_level1(n, kappa, p, radii)
    assert [e["rank"] for e in report.boxes] == per_radius_ranks(n, kappa, p, radii)


def test_unsorted_repeated_and_empty_radii():
    report = quotient_dim_level1(2, (0,), P, [3, 1, 3])
    assert report.as_dict() == {
        "n": 2, "kappa": [0], "bound": "1*3", "stabilized": True,
        "boxes": [{"radius": 1, "rows": 3, "cols": 3, "rank": 3},
                  {"radius": 3, "rows": 7, "cols": 7, "rank": 3},
                  {"radius": 3, "rows": 7, "cols": 7, "rank": 3}]}
    assert quotient_dim_level1(2, (0,), P, []).as_dict() == {
        "n": 2, "kappa": [0], "bound": "1*3", "stabilized": False, "boxes": []}
    with pytest.raises(ValueError, match="negative"):
        quotient_dim_level1(2, (0,), P, [2, -1])


def test_raising_image_off_target_raises(monkeypatch):
    """The check on each image is a RuntimeError, so python -O keeps it."""
    def stray(x, v, p):
        return base_vector(2, (99,))

    monkeypatch.setattr(gvm, "gvm_act", stray)
    with pytest.raises(RuntimeError, match="off the expected base vector"):
        quotient_dim_level1(2, (0,), P, [1])


def test_repeated_action_leaves_earlier_results_intact():
    """Straightenings share their dicts within a call; no call may alter a
    result handed out before, nor its input."""
    terms = {mono: Scalar.from_rational(k + 1)
             for k, mono in enumerate(level_weight_basis(2, 2, (1,), 1))}
    v = GvmVector(2, dict(terms))
    x = A2.e(1, 1) + A2.e(2, -1).scale(3) + A2.e(0, 2) + A2.e(-1, 0)
    first = gvm_act(x, v, P)
    snapshot = dict(first.terms)
    second = gvm_act(x, v, P)
    assert second == first
    assert first.terms == snapshot
    assert v.terms == terms
