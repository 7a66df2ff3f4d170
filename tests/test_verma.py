import functools
import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

import solvir.verma as verma
from solvir.algebra import (
    SolenoidalAlgebra,
    central_element,
    eta0,
    vadd,
    vir_bracket,
    vsub,
)
from solvir.density import DensityParams, formal_params
from solvir.errors import NonHomogeneousError
from solvir.gvm import DEGREE_ZERO, GvmMonomial, GvmVector, gvm_act, level_weight_basis
from solvir.scalars import CCHARGE, LAMBDA, ONE, ZERO, Scalar, mu_poly
from solvir.verma import (
    PBWMonomial,
    TruncationBox,
    VermaVector,
    is_singular_within_box,
    pbw_enumerate,
    singular_residuals,
    straighten,
    vacuum,
    verma_act,
    weight_space_dim_truncated,
)

A1 = SolenoidalAlgebra(1)
A2 = SolenoidalAlgebra(2)
S0 = Scalar.from_rational(0)


def mu(alpha):
    return Scalar(mu_poly(alpha))


def partition_count(k, max_part=None):
    """Independent oracle: partitions of k with parts <= max_part."""
    if max_part is None:
        max_part = k
    if k == 0:
        return 1
    if k < 0 or max_part == 0:
        return 0
    return partition_count(k - max_part, max_part) + partition_count(k, max_part - 1)


def brute_enumerate(n, shift, box):
    """Independent oracle: filter all multisets from the in-box generator set."""
    gens = [p for p in itertools.product(range(-box.N, box.N + 1), repeat=n)
            if p < (0,) * n]
    found = set()
    for length in range(box.L + 1):
        for combo in itertools.combinations_with_replacement(gens, length):
            if tuple(sum(c) for c in zip(*combo)) == shift or (not combo and not any(shift)):
                found.add(tuple(sorted(combo)))
    return found


def unpruned_enumerate(n, shift, box):
    """Reference: the depth-first search with its dead-branch tests inline."""
    gens = sorted(p for p in itertools.product(range(-box.N, box.N + 1), repeat=n)
                  if p < (0,) * n)
    out = []

    def dfs(start, remaining, word):
        if not any(remaining):
            out.append(word)
            return
        if len(word) >= box.L:
            return
        if remaining > (0,) * n:
            return
        rem = box.L - len(word)
        if any(abs(c) > rem * box.N for c in remaining):
            return
        if remaining[0] > 0:
            return
        for idx in range(start, len(gens)):
            g = gens[idx]
            if remaining[0] == 0 and g[0] < 0:
                continue
            dfs(idx, vsub(remaining, g), word + (g,))

    dfs(0, tuple(shift), ())
    return out


@functools.cache
def box_partitions(k, parts, largest):
    """Independent oracle: partitions of k into at most parts parts, none
    above largest; split on whether a part equals largest."""
    if k == 0:
        return 1
    if k < 0 or parts == 0 or largest == 0:
        return 0
    return box_partitions(k, parts, largest - 1) \
        + box_partitions(k - largest, parts - 1, largest)


def reach_bound(shift, N):
    """The letter bound that pbw_enumerate documents, from its formula."""
    most = 0
    for c in shift:
        most += max(0, N * most - c)
    return most


def rank2_dim_by_table(shift, N, L):
    """Independent count: fold the generators one at a time into tables, one
    per word length, of partial sum -> multisets.  Every letter has first
    coordinate <= 0, so every partial sum of a word of the shift has first
    coordinate in [shift[0], 0]."""
    gens = [g for g in itertools.product(range(-N, N + 1), repeat=2)
            if g < (0, 0) and g[0] >= shift[0]]
    tables = [{} for _ in range(L + 1)]
    tables[0][0, 0] = 1
    for g in gens:
        # any multiplicity of g: extend in order of increasing length
        for length in range(L):
            longer = tables[length + 1]
            for s, ways in tables[length].items():
                t = (s[0] + g[0], s[1] + g[1])
                if t[0] >= shift[0]:
                    longer[t] = longer.get(t, 0) + ways
    return sum(table.get(tuple(shift), 0) for table in tables)


def test_pbw_enumerate_vacuum():
    out = pbw_enumerate(2, (0, 0), TruncationBox(2, 3))
    assert [m.word for m in out] == [()]


def test_pbw_enumerate_rank1_level2():
    out = pbw_enumerate(1, (-2,), TruncationBox(2, 2))
    words = sorted(m.word for m in out)
    assert words == [((-2,),), ((-1,), (-1,))]


def test_pbw_enumerate_rank2_example():
    box = TruncationBox(2, 3)
    out = pbw_enumerate(2, (-1, 0), box)
    words = {m.word for m in out}
    expected_members = {
        ((-1, 0),),
        tuple(sorted(((0, -1), (-1, 1)))),
        tuple(sorted(((0, -2), (-1, 2)))),
        tuple(sorted(((0, -1), (0, -1), (-1, 2)))),
    }
    assert expected_members <= words
    assert len(words) == 4
    assert words == brute_enumerate(2, (-1, 0), box)


def test_pbw_enumerate_matches_bruteforce():
    for shift, box in [((-2, 1), TruncationBox(2, 3)), ((-1, -1), TruncationBox(2, 2)),
                       ((0, -3), TruncationBox(3, 4))]:
        ours = {m.word for m in pbw_enumerate(2, shift, box)}
        assert ours == brute_enumerate(2, shift, box)


def test_pbw_enumerate_refuses_past_max_pairs_before_any_word(monkeypatch):
    """The root count bounds the listing: p(5) = 7 words are listed under a
    limit of 7 and refused under 6, and a level-70 space of 4 087 968 words
    is refused before one PBWMonomial is built."""
    monkeypatch.setattr(verma, "MAX_PAIRS", 7)
    assert len(pbw_enumerate(1, (-5,), TruncationBox(5, 5))) == 7
    monkeypatch.setattr(verma, "MAX_PAIRS", 6)
    with pytest.raises(ValueError, match="holds 7 words, more than 6"):
        pbw_enumerate(1, (-5,), TruncationBox(5, 5))
    monkeypatch.undo()

    def built(*args, **kwargs):
        raise AssertionError("a word was built")

    monkeypatch.setattr(PBWMonomial, "_normal", built)
    with pytest.raises(ValueError, match="holds 4087968 words, more than 1000000"):
        pbw_enumerate(1, (-70,), TruncationBox(70, 70))


def test_pruned_enumeration_matches_unpruned_search():
    """Same words in the same order, empty slices included."""
    rng = random.Random(4711)
    cases = [(1, (0,), TruncationBox(1, 1)), (2, (0, 0), TruncationBox(2, 3)),
             # no in-box word: targets out of coordinate reach, one needing
             # too long a word, and one whose rest no letter of first
             # coordinate 0 can reach
             (2, (-1, 9), TruncationBox(2, 3)), (2, (0, -5), TruncationBox(2, 2)),
             (1, (-5,), TruncationBox(1, 4)), (3, (0, -1, 5), TruncationBox(1, 4))]
    for n, N, L, deepest in [(1, 5, 8, 7), (2, 2, 4, 2), (2, 3, 5, 2),
                             (3, 1, 3, 2), (3, 2, 3, 2)]:
        for _ in range(6):
            head = rng.randint(-deepest, 0)
            rest = [rng.randint(-2 * N, 2 * N) for _ in range(n - 1)]
            shift = (head, *rest)
            if shift <= (0,) * n:
                cases.append((n, shift, TruncationBox(N, L)))
    empty = 0
    for n, shift, box in cases:
        expected = unpruned_enumerate(n, shift, box)
        assert [m.word for m in pbw_enumerate(n, shift, box)] == expected, \
            (n, shift, box)
        empty += not expected
    assert empty >= 4


def test_rank2_dims_at_shift_minus3_match_independent_count():
    expected = [2, 43, 187, 626, 1823, 4836, 11880]
    table = [rank2_dim_by_table((-3, 0), N, 2 * N + 1) for N in range(1, 8)]
    assert table == expected
    assert [weight_space_dim_truncated(2, (-3, 0), TruncationBox(N, 2 * N + 1))
            for N in range(1, 8)] == expected


def test_rank1_dimensions_are_partition_numbers():
    expected = [1, 1, 2, 3, 5, 7, 11]
    for k in range(7):
        dim = weight_space_dim_truncated(1, (-k,), TruncationBox(max(k, 1), max(k, 1)))
        assert dim == expected[k]
        assert dim == partition_count(k)


@pytest.mark.parametrize("n, N, shifts", [
    (1, 1, [(0,), (-1,), (-3,)]),
    (1, 2, [(-1,), (-4,), (-5,)]),
    (2, 1, [(-1, 0), (-2, 0), (-2, 1), (-1, -2), (0, -3), (-2, -2), (-1, 3)]),
    (2, 2, [(-1, 0), (-2, 0), (-2, 1), (0, -2), (-1, -1), (-1, 5)]),
    (3, 1, [(-1, 0, 0), (0, -1, 0), (-1, 0, -1), (0, 0, -2), (-1, 1, 0),
            (0, -1, 2)]),
])
def test_pbw_count_matches_multiset_sums_on_both_sides_of_reach(n, N, shifts):
    """Sum every sorted multiset of box letters with at most
    reach(shift) + 1 letters: the dimension at each L from 1 to
    reach(shift) + 1 is the number of them summing to the shift with at most
    L letters.  Below reach(shift) the letter budget binds the count, from
    there on it cannot; no multiset at the shift outgrows the bound, and
    (-1, 3), (-1, 5) and (0, -1, 2) hold no word at all."""
    reach = {shift: reach_bound(shift, N) for shift in shifts}
    longest = max(reach.values()) + 1
    gens = [p for p in itertools.product(range(-N, N + 1), repeat=n) if p < (0,) * n]
    by_length = {shift: [0] * (longest + 1) for shift in shifts}
    for length in range(longest + 1):
        for combo in itertools.combinations_with_replacement(gens, length):
            total = tuple(map(sum, zip(*combo))) if combo else (0,) * n
            if total in by_length:
                by_length[total][length] += 1
    for shift in shifts:
        counts = by_length[shift]
        assert not any(counts[reach[shift] + 1:]), shift
        for L in range(1, reach[shift] + 2):
            assert weight_space_dim_truncated(n, shift, TruncationBox(N, L)) \
                == sum(counts[:L + 1]), (shift, L)
    assert any(any(by_length[shift]) for shift in shifts)


def test_rank1_dimensions_are_box_partitions_up_to_length_30():
    """At rank 1 the words at level k in box (N, L) are the partitions of k
    into at most L parts of size at most N; reach(-k) = k, so L < k counts
    under the letter budget and L >= k without it."""
    cases = [(30, 30, 15), (30, 30, 29), (30, 30, 30)]
    for k in range(31):
        for N in (1, 3, 8):
            for L in {1, max(k // 2, 1), max(k - 1, 1), max(k, 1), k + 1, 30}:
                cases.append((k, N, L))
    for k, N, L in cases:
        assert weight_space_dim_truncated(1, (-k,), TruncationBox(N, L)) \
            == box_partitions(k, L, N), (k, N, L)
    assert box_partitions(30, 30, 30) == 5604


def test_max_pairs_refusal_counts_under_the_letter_budget():
    """The count that MAX_PAIRS bounds keeps the letter budget at every
    letter: level 100 in box (100, 2) holds the 51 partitions of 100 into at
    most 2 parts, though p(100) = 190 569 292 is past MAX_PAIRS."""
    assert weight_space_dim_truncated(1, (-100,), TruncationBox(100, 2)) == 51


def test_positive_annihilates_vacuum():
    for alpha in [(1, 0), (0, 1), (2, -3), (0, 2)]:
        assert verma_act(A2.e(alpha), vacuum(2)).is_zero()


def test_euler_eigenvalue():
    gamma = (-1, 2)
    v = verma_act(A2.e(gamma), vacuum(2))
    out = verma_act(A2.d(), v)
    assert out == v.scale(LAMBDA + mu(gamma))


def test_central_acts_by_c():
    v = verma_act(A1.e((-2,)), vacuum(1))
    assert verma_act(central_element(1), v) == v.scale(CCHARGE)


def test_rank1_bracket_consistency():
    # E(1).E(-1).vac must match the bracket route since E(1).vac = 0
    v = verma_act(A1.e((-1,)), vacuum(1))
    direct = verma_act(A1.e((1,)), v)
    via_bracket = verma_act(vir_bracket(A1.e((1,)), A1.e((-1,))), vacuum(1))
    assert direct == via_bracket
    x = mu((1,))
    twelfth = Scalar.from_rational(Fraction(1, 12))
    expected_coef = (LAMBDA * x * -2) + (x ** 3 - x) * twelfth * CCHARGE
    assert direct == vacuum(1).scale(expected_coef)
    # classical cross-check at mu1 = 1: the central part drops and the
    # eigenvalue matches 2h under h = -lambda
    val = expected_coef.evaluate({"mu1": 1, "lambda": -3, "c": 7})
    assert val == 6


def test_verma_act_reads_the_bracket(request):
    # straighten takes [E(1,0), E(-1,0)] from the bracket table, so a wrong
    # Witt coefficient changes E(1,0).E(-1,0).vac
    def raised():
        return verma_act(A2.e(1, 0), verma_act(A2.e(-1, 0), vacuum(2)))

    x, central = mu((1, 0)), eta0((1, 0)) * CCHARGE
    assert raised() == vacuum(2).scale(central + LAMBDA * x * -2)
    request.getfixturevalue("squared_bracket")
    assert raised() == vacuum(2).scale(central + LAMBDA * x * x * 4)


def test_module_axiom_randomized():
    rng = random.Random(314)
    box = TruncationBox(2, 3)
    monos = pbw_enumerate(2, (-1, 0), box) + pbw_enumerate(2, (0, -2), box)
    for _ in range(25):
        alpha = tuple(rng.randint(-2, 2) for _ in range(2))
        beta = tuple(rng.randint(-2, 2) for _ in range(2))
        x, y = A2.e(alpha), A2.e(beta)
        v = VermaVector(2, {rng.choice(monos): ONE,
                            rng.choice(monos): Scalar.from_rational(rng.randint(1, 3))})
        lhs = verma_act(x, verma_act(y, v)) - verma_act(y, verma_act(x, v))
        rhs = verma_act(vir_bracket(x, y), v)
        assert lhs == rhs, (alpha, beta)


def test_weight_compatibility():
    rng = random.Random(2718)
    box = TruncationBox(2, 3)
    for _ in range(20):
        gamma = tuple(rng.randint(-2, 2) for _ in range(2))
        base = rng.choice(pbw_enumerate(2, (-1, -1), TruncationBox(2, 2)))
        v = VermaVector(2, {base: ONE})
        out = verma_act(A2.e(gamma), v)
        if out.is_zero():
            continue
        assert out.weight_shift() == tuple(a + b for a, b in zip((-1, -1), gamma))


def test_pbw_word_order_is_canonical():
    word = [(-1, 2), (-2, 0), (-1, -3)]
    monos = {PBWMonomial(2, tuple(perm)) for perm in itertools.permutations(word)}
    assert len(monos) == 1
    assert PBWMonomial(2, word).word == tuple(sorted(tuple(p) for p in word))


def test_unchecked_words_are_the_validated_ones():
    """pbw_enumerate and verma_act build their words unchecked: each must
    be the word the validating constructor makes, and the public
    constructor still refuses a word that is not lex-negative."""
    monos = pbw_enumerate(2, (-2, 1), TruncationBox(2, 4))
    out = verma_act(A2.e(1, -1) + A2.e(0, 0) + A2.e(-1, 2),
                    VermaVector(2, {m: ONE for m in monos}))
    for mono in monos + list(out.terms):
        checked = PBWMonomial(2, mono.word)
        assert checked.word == mono.word and hash(checked) == hash(mono)
    with pytest.raises(ValueError):
        PBWMonomial(2, [(-1, 0), (0, 1)])


def test_each_vector_refuses_the_other_modules_monomial():
    """A module vector takes only its own module's monomials, so no action
    can drop a base vector or read one that is not there."""
    gvm_mono = GvmMonomial(2, [(-1, 0)], (0,))
    with pytest.raises(TypeError, match="GvmMonomial"):
        VermaVector(2, {gvm_mono: ONE})
    with pytest.raises(TypeError, match="PBWMonomial"):
        GvmVector(2, {PBWMonomial(2, [(-1, 0)]): ONE})
    with pytest.raises(TypeError):
        VermaVector(2, {(-1, 0): ONE})
    assert PBWMonomial(2, [(-1, 0)]) != gvm_mono
    with pytest.raises(ValueError, match="takes no base"):
        PBWMonomial(2, [(-1, 0)], (0,))


def test_straightening_determinism_across_application_orders():
    # applying the generators of a fixed multiset in the two opposite orders
    # differs exactly by the bracket correction
    a, b = (-2,), (-1,)
    ab = verma_act(A1.e(a), verma_act(A1.e(b), vacuum(1)))
    ba = verma_act(A1.e(b), verma_act(A1.e(a), vacuum(1)))
    assert ab - ba == verma_act(vir_bracket(A1.e(a), A1.e(b)), vacuum(1))


def test_monotone_growth_and_family_bound():
    dims = []
    for N in range(1, 7):
        box = TruncationBox(N, 2 * N + 1)
        dim = weight_space_dim_truncated(2, (-1, 0), box)
        dims.append(dim)
        assert dim >= N
        # the exhibited family E((0,-k)) E((-1,k)) vac, 1 <= k <= N
        members = {m.word for m in pbw_enumerate(2, (-1, 0), box)}
        for k in range(1, N + 1):
            assert tuple(sorted(((0, -k), (-1, k)))) in members
    assert all(x < y for x, y in zip(dims, dims[1:]))


def test_monotone_in_box_dimensions():
    base = weight_space_dim_truncated(2, (-2, 0), TruncationBox(2, 3))
    assert weight_space_dim_truncated(2, (-2, 0), TruncationBox(3, 3)) >= base
    assert weight_space_dim_truncated(2, (-2, 0), TruncationBox(2, 5)) >= base


def test_vacuum_is_singular():
    # every raising pushes the vacuum out of the support, so the residual
    # map is empty and the certificate holds vacuously
    res = singular_residuals(vacuum(2), TruncationBox(2, 3))
    assert all(r.is_zero() for r in res.values())
    assert is_singular_within_box(vacuum(2), TruncationBox(2, 3))


def test_level_one_not_singular_for_generic_lambda():
    v = verma_act(A1.e((-1,)), vacuum(1))
    res = singular_residuals(v, TruncationBox(3, 3))
    x = mu((1,))
    central = (x ** 3 - x) * Scalar.from_rational(Fraction(1, 12)) * CCHARGE
    assert res[(1,)] == vacuum(1).scale(LAMBDA * x * -2 + central)
    assert not is_singular_within_box(v, TruncationBox(3, 3))
    # with the central charge specialized away the coefficient is -2*mu1*lambda
    res0 = singular_residuals(verma_act(A1.e((-1,)), vacuum(1), c=S0),
                              TruncationBox(3, 3), c=S0)
    assert res0[(1,)] == vacuum(1).scale(LAMBDA * x * -2)


def test_level_one_singular_in_m00():
    # classical fact: the level-one vector is singular at lambda = c = 0
    v = verma_act(A1.e((-1,)), vacuum(1), lam=S0, c=S0)
    assert is_singular_within_box(v, TruncationBox(4, 4), lam=S0, c=S0)


def test_singular_requires_homogeneous():
    v = (verma_act(A1.e((-1,)), vacuum(1))
         + verma_act(A1.e((-2,)), vacuum(1)))
    with pytest.raises(NonHomogeneousError):
        singular_residuals(v, TruncationBox(2, 2))


def test_pbw_monomial_str():
    m = PBWMonomial(2, [(-1, 2), (0, -1)])
    assert str(m) == "e[-1,2]*e[0,-1]*vac" or str(m) == "e[0,-1]*e[-1,2]*vac"
    assert str(PBWMonomial(2)) == "vac"


def unmemoized_straighten(alpha, word, base, ceiling, act, c):
    """Reference: the rewriting of verma.straighten without its memo."""
    if alpha < ceiling:
        if not word or alpha >= word[-1]:
            return {(word + (alpha,), base): ONE}
    else:
        out = act(alpha, word, base)
        if out is not None:
            return out

    def acc(out, key, value):
        total = out.get(key, ZERO) + value
        if total:
            out[key] = total
        else:
            out.pop(key, None)

    top, rest = word[-1], word[:-1]
    out = {}
    for (w2, b2), c2 in unmemoized_straighten(alpha, rest, base, ceiling, act,
                                              c).items():
        for key, c3 in unmemoized_straighten(top, w2, b2, ceiling, act, c).items():
            acc(out, key, c2 * c3)
    merged = vadd(alpha, top)
    bracket = mu(vsub(top, alpha))
    if bracket:
        for key, c4 in unmemoized_straighten(merged, rest, base, ceiling, act,
                                             c).items():
            acc(out, key, bracket * c4)
    if not any(merged):
        acc(out, (rest, base), eta0(alpha) * c)
    return out


def verma_hook(lam):
    """The zero-part action of M(lam, c) in rank 2, as verma_act has it."""
    def act(alpha, word, base):
        if alpha == (0, 0):
            eig = lam + mu(tuple(map(sum, zip((0, 0), *word))))
            return {(word, base): eig} if eig else {}
        return None if word else {}
    return act


def gvm_hook(p):
    """The coefficient-module action of the rank-2 GVM, as gvm_act has it."""
    def act(alpha, word, base):
        if word:
            return None
        if alpha[0]:
            return {}
        coef = (p.a + Scalar.mu_form((0,) + base)
                + p.b * Scalar.mu_form((0,) + alpha[1:]))
        return {((), vadd(base, alpha[1:])): coef} if coef else {}
    return act


@pytest.mark.parametrize("lam, c", [(LAMBDA, CCHARGE),
                                    (Scalar.from_rational(Fraction(3, 2)),
                                     Scalar.from_rational(-2))])
def test_memoized_straighten_matches_unmemoized_on_verma_words(lam, c):
    rng = random.Random(2024)
    letters = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (-2, 1)]
    act = verma_hook(lam)
    for length in (8, 10, 12):
        word = tuple(sorted(rng.choice(letters) for _ in range(length)))
        for alpha in [(0, 0), (0, 1), (1, 0), (1, -1), rng.choice(letters)]:
            expected = unmemoized_straighten(alpha, word, None, (0, 0), act, c)
            assert straighten(alpha, word, None, (0, 0), act, c, {}) == expected, \
                (alpha, word)


@pytest.mark.parametrize("kappa", [0, 1])
def test_memoized_straighten_matches_unmemoized_on_gvm_words(kappa):
    act = gvm_hook(formal_params(1))
    for mono in level_weight_basis(2, 2, (kappa,), 2):
        for alpha in [(1, 0), (1, -2), (2, 1), (0, 1), (0, 0), (-1, 2)]:
            expected = unmemoized_straighten(alpha, mono.word, mono.base, DEGREE_ZERO,
                                             act, ZERO)
            assert straighten(alpha, mono.word, mono.base, DEGREE_ZERO, act, ZERO,
                              {}) == expected, (alpha, mono)


def test_repeated_action_leaves_earlier_results_intact():
    """Straightenings share their dicts within a call; no call may alter a
    result handed out before, nor its input."""
    rng = random.Random(55)
    word = PBWMonomial(2, [rng.choice([(-1, -1), (-1, 0), (-1, 1), (0, -1)])
                           for _ in range(10)])
    v = VermaVector(2, {word: ONE, PBWMonomial(2, word.word[1:]): ONE})
    x = A2.e(1, 0) + A2.e(0, 1).scale(2) + A2.d()
    first = verma_act(x, v)
    snapshot = dict(first.terms)
    second = verma_act(x, v)
    assert second == first
    assert first.terms == snapshot
    assert v.terms == {word: ONE, PBWMonomial(2, word.word[1:]): ONE}


# --- the straightening memo lives as long as the vector acted on ----------

P1 = formal_params(1)
P1_RATIONAL = DensityParams(1, Scalar.from_rational(2), Scalar.from_rational(-1))


def fresh(v):
    """A copy of v that owns and refers to no memo."""
    return v.__class__(v.n, dict(v.terms))


def verma_start():
    rng = random.Random(77)
    letters = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (-2, 1)]
    return VermaVector(2, {PBWMonomial(2, [rng.choice(letters) for _ in range(k)]):
                           Scalar.from_rational(k) for k in (3, 4, 5)})


def gvm_start():
    return GvmVector(2, {mono: Scalar.from_rational(k + 1) for k, mono
                         in enumerate(level_weight_basis(2, 2, (1,), 1))})


VERMA_XS = [A2.e(1, 0), A2.e(0, 1) + A2.d(), A2.e(1, -1).scale(2) + A2.e(-1, 1),
            central_element(2) + A2.e(2, 0)]
GVM_XS = [A2.e(1, 1), A2.e(0, 2) + A2.e(-1, 0), A2.e(2, -1).scale(3),
          central_element(2) + A2.e(1, 0)]


@pytest.mark.parametrize("start, xs, act", [
    (verma_start, VERMA_XS, verma_act),
    (gvm_start, GVM_XS, lambda x, v: gvm_act(x, v, P1)),
], ids=["verma", "gvm"])
def test_shared_memo_gives_the_fresh_results(start, xs, act):
    """A vector owning a memo after several actions, and the vectors computed
    from it, act as fresh copies do: x.v, y.(x.v) and [x, y].v."""
    v = start()
    for x in xs:
        xv = act(x, v)
        assert xv == act(x, fresh(v))
        assert xv._memo() is v._memo
        for y in xs:
            assert act(y, xv) == act(y, fresh(xv)), (x, y)
            assert act(vir_bracket(x, y), v) == act(vir_bracket(x, y), fresh(v))


@pytest.mark.parametrize("start, xs, modules", [
    (verma_start, VERMA_XS, [lambda x, v: verma_act(x, v, LAMBDA, CCHARGE),
                             lambda x, v: verma_act(x, v, ZERO, ZERO)]),
    (gvm_start, GVM_XS, [lambda x, v: gvm_act(x, v, P1),
                         lambda x, v: gvm_act(x, v, P1_RATIONAL)]),
], ids=["verma", "gvm"])
def test_memo_is_keyed_by_its_module(start, xs, modules):
    """Negative control: one vector acted on in one module and then in
    another must not reuse the first module's rewritings."""
    v = start()
    for x in xs:
        for act in modules + modules[::-1]:
            assert act(x, v) == act(x, fresh(v)), x
            xv = act(x, v)
            for other in modules:
                assert other(x, xv) == other(x, fresh(xv)), x


@pytest.mark.parametrize("start, x, act", [
    (verma_start, A2.e(1, 0), verma_act),
    (gvm_start, A2.e(1, 1), lambda x, v: gvm_act(x, v, P1)),
], ids=["verma", "gvm"])
def test_memo_dies_with_its_owner(start, x, act):
    """Returned vectors refer to the memo weakly: once the vector that owns
    it is gone, the memo is freed although results computed from it live."""
    v = start()
    xv = act(x, v)
    xxv = act(x, xv)
    memo = weakref.ref(v._memo)
    assert xxv._memo() is v._memo
    del v
    gc.collect()
    assert memo() is None
    assert xv._memo() is None and not xv.is_zero()
    # the orphan starts a memo of its own
    assert act(x, xv) == xxv
    assert xv._memo.__class__ is not weakref.ref
