"""The permutation-orbit scan engine against honest triple-by-triple loops.

Every exhaustive scan evaluates one triple per multiset where the bracket
table is skew on its pairs, and one per rotation orbit elsewhere; these
tests break the bracket or the canonical cocycle so that the scans fail,
and compare counts and ordered failure lists with loops written here that
evaluate every triple, or every rotation orbit.  The scans read their pair
terms through per-scan memos, pinned here by call counts.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import solvir.algebra as algebra
import solvir.cocycle as cocycle
import solvir.verification as ver
from solvir.algebra import (
    CENTRAL,
    basis_element,
    box_points,
    bracket_is_skew,
    jacobi_residual,
    vadd,
)
from solvir.cocycle import TwoCochain, canonical_cochain, cocycle_residual
from solvir.scalars import ONE, ZERO, Polynomial, Scalar
from solvir.verification import (
    run_suite,
    scan_triples,
    suite_cocycle,
    suite_cocycle_input,
    suite_jacobi,
)


def _honest(triples, residual):
    count, failures = 0, []
    for a, b, k in triples:
        count += 1
        if residual(a, b, k):
            failures.append([list(a), list(b), list(k)])
    return count, failures


def _triples_with_sum(pts, total):
    """Every (alpha, beta, kappa) of pts with sum total, alpha running over
    pts in order, then beta."""
    idx = set(pts)
    for alpha, beta in itertools.product(pts, repeat=2):
        kappa = tuple(t - a - b for t, a, b in zip(total, alpha, beta))
        if kappa in idx:
            yield alpha, beta, kappa


def _box_triples(n, box, zero_sum):
    pts = box_points(n, box)
    if zero_sum:
        return _triples_with_sum(pts, (0,) * n)
    return itertools.product(pts, repeat=3)


def _honest_jacobi(n, box, zero_sum):
    return _honest(_box_triples(n, box, zero_sum), lambda a, b, k: jacobi_residual(
        basis_element(n, a), basis_element(n, b), basis_element(n, k)))


def _honest_cocycle(n, box, zero_sum):
    theta = canonical_cochain(n)
    return _honest(_box_triples(n, box, zero_sum),
                   lambda a, b, k: cocycle_residual(theta, a, b, k))


@pytest.fixture
def wrong_canonical(fresh_identities, monkeypatch):
    """C0 with the even eta(t) = t^2, which fails the cocycle condition."""
    def even(alpha, beta):
        if any(a + b for a, b in zip(alpha, beta)):
            return ZERO
        return Scalar.mu_form(alpha) ** 2

    monkeypatch.setattr(cocycle, "canonical_cocycle", even)


@pytest.mark.parametrize("scan, n, box, zero_sum", [
    ("jacobi_full_scan", 1, 3, False),
    ("jacobi_full_scan", 2, 1, False),
    ("jacobi_zero_sum_scan", 2, 2, True),
    ("jacobi_zero_sum_scan", 3, 1, True),
])
def test_jacobi_scans_match_honest_loop_on_wrong_bracket(wrong_bracket, scan, n,
                                                         box, zero_sum):
    result = getattr(ver, scan)(n, box)
    count, failures = result
    assert (count, failures) == _honest_jacobi(n, box, zero_sum)
    assert failures and result.evaluated < count


@pytest.mark.parametrize("scan, n, box, zero_sum", [
    ("cocycle_full_scan", 1, 3, False),
    ("cocycle_full_scan", 2, 1, False),
    ("cocycle_zero_sum_scan", 2, 2, True),
    ("cocycle_zero_sum_scan", 3, 1, True),
])
def test_cocycle_scans_match_honest_loop_on_wrong_canonical(wrong_canonical, scan,
                                                            n, box, zero_sum):
    _check_cocycle_scan(scan, n, box, zero_sum)


@pytest.mark.parametrize("scan, n, box, zero_sum", [
    ("cocycle_full_scan", 2, 2, False),
    ("cocycle_zero_sum_scan", 3, 1, True),
])
def test_cocycle_scans_match_honest_loop_on_wrong_bracket(wrong_bracket, scan,
                                                          n, box, zero_sum):
    # C0 is the bracket's central coefficient, so a wrong one fails the scans
    _check_cocycle_scan(scan, n, box, zero_sum)


@pytest.mark.parametrize("scan", ["jacobi_full_scan", "cocycle_full_scan"])
def test_full_scans_read_the_bracket(squared_bracket, scan):
    # negative control: each scanned residual is summed from the bracket's
    # products, so a squared Witt coefficient fails both scans
    count, failures = getattr(ver, scan)(2, 1)
    assert count == 9 ** 3 and failures


def _check_cocycle_scan(scan, n, box, zero_sum):
    result = getattr(ver, scan)(n, box)
    count, failures = result
    assert (count, failures) == _honest_cocycle(n, box, zero_sum)
    assert failures and result.evaluated < count


def test_honest_scans_pass_and_count_orbits():
    # 7 points: one residual per multiset a <= b <= k, C(7 + 2, 3) of them
    result = ver.jacobi_full_scan(1, 3)
    assert result == (343, [])
    assert result.evaluated == 84
    assert ver.cocycle_zero_sum_scan(2, 2) == _honest_cocycle(2, 2, True)


@pytest.mark.parametrize("kind", ["jacobi", "cocycle"])
@pytest.mark.parametrize("n, box, zero_sum", [
    (1, 2, False), (2, 1, False), (2, 2, False), (3, 1, True)])
def test_memoized_scans_match_honest_loop(kind, n, box, zero_sum):
    scan = getattr(ver, f"{kind}_{'zero_sum' if zero_sum else 'full'}_scan")
    honest = _honest_jacobi if kind == "jacobi" else _honest_cocycle
    assert scan(n, box) == honest(n, box, zero_sum)


@pytest.mark.parametrize("kind", ["jacobi", "cocycle"])
def test_memoized_residuals_equal_plain_ones(squared_bracket, kind):
    """Under a bracket that is no Lie bracket the residuals are nonzero; the
    memoized one equals the plain one exactly at every box triple."""
    n, pts = 2, box_points(2, 1)
    theta = canonical_cochain(n)
    if kind == "jacobi":
        memoized = ver._jacobi_residual(n, pts, None)

        def plain(a, b, k):
            return jacobi_residual(*(basis_element(n, p) for p in (a, b, k)))
    else:
        memoized = ver._cocycle_residual(n, pts, None)

        def plain(a, b, k):
            return cocycle_residual(theta, a, b, k)
    values = [(memoized(*t), plain(*t)) for t in itertools.product(pts, repeat=3)]
    assert all(m == p for m, p in values)
    assert any(p for _, p in values)


def _count_calls(monkeypatch, fn, key, *targets):
    """A Counter of key(*args) over the calls of fn, set as each
    (owner, name) of targets."""
    calls = Counter()

    def counted(*args):
        calls[key(*args)] += 1
        return fn(*args)

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted)
    return calls


def _point(x):
    [p] = x.terms
    return p


def test_jacobi_scans_bracket_each_ordered_pair_once(monkeypatch):
    calls = _count_calls(monkeypatch, algebra.vir_bracket,
                         lambda u, v: (_point(u), _point(v)),
                         (algebra, "vir_bracket"), (ver, "vir_bracket"))
    # the full scan's memo serves its seeded re-check too
    ver.jacobi_full_scan(2, 2)
    assert set(calls.values()) == {1} and len(calls) <= 25 ** 2
    # one ordered inner pair and the lattice sum fix the triple, so a
    # lattice-sum scan, which has no memo, brackets each pair once outside
    # its re-check; only (0, 0, 0) reads the pair (0, 0), three times
    monkeypatch.setattr(algebra, "SAMPLE", 0)
    calls.clear()
    ver.jacobi_zero_sum_scan(3, 1)
    zero = (0, 0, 0)
    assert calls.pop((zero, zero)) == 3 and set(calls.values()) == {1}


def test_cocycle_scans_read_each_cochain_value_once(monkeypatch):
    calls = _count_calls(monkeypatch, TwoCochain.value,
                         lambda theta, a, b: (a, b),
                         (TwoCochain, "value"))
    for scan, box in (("cocycle_full_scan", 2), ("cocycle_zero_sum_scan", 3)):
        getattr(ver, scan)(2, box)
        assert set(calls.values()) == {1}, scan
        calls.clear()
    # the input scan keeps one memo across its lattice sums
    theta = TwoCochain(2, 1, None, {((1, 0), (0, 1)): ONE})
    suite_cocycle_input(theta, 2)
    assert set(calls.values()) == {1}


def _rotation_orbit_loop(triples, residual):
    """(count, failures, evaluated) of one residual per rotation orbit, at
    its least rotation, every triple of a failing orbit listed."""
    count, evaluated, failed, failures = 0, 0, set(), []
    for t in triples:
        count += 1
        least = min(t, t[1:] + t[:1], t[2:] + t[:2])
        if t == least:
            evaluated += 1
            if residual(*t):
                failed.add(t)
        if least in failed:
            failures.append([list(p) for p in t])
    return count, failures, evaluated


@pytest.mark.parametrize("scan, n, box, zero_sum", [
    ("jacobi_full_scan", 2, 1, False),
    ("jacobi_zero_sum_scan", 3, 1, True),
    ("cocycle_full_scan", 2, 1, False),
    ("cocycle_zero_sum_scan", 2, 2, True),
])
def test_non_skew_bracket_falls_back_to_rotation_orbits(squared_bracket, scan, n,
                                                        box, zero_sum):
    # no pair of distinct points is skew under a squared Witt coefficient,
    # so the engine evaluates exactly the triples of the rotation-orbit rule
    if scan.startswith("jacobi"):
        def residual(a, b, k):
            return jacobi_residual(*(basis_element(n, p) for p in (a, b, k)))
    else:
        theta = canonical_cochain(n)

        def residual(a, b, k):
            return cocycle_residual(theta, a, b, k)
    result = getattr(ver, scan)(n, box)
    expected = _rotation_orbit_loop(_box_triples(n, box, zero_sum), residual)
    assert (*result, result.evaluated) == expected
    assert expected[1]


def test_non_cyclic_residual_fails_cross_check_on_rotation_fallback(squared_bracket):
    pts = box_points(1, 2)

    def not_cyclic(a, b, k):
        return (a, b, k) != min((a, b, k), (b, k, a), (k, a, b))

    with pytest.raises(RuntimeError, match="differs from that at its rotation"):
        scan_triples(pts, None, not_cyclic, "test")


def _cube_witt(terms, ka, kb):
    """The Witt coefficient cubed: skew, but not a Lie bracket."""
    return {key: base if key == CENTRAL else base ** 3 for key, base in terms.items()}


# [E(P), E(Q)] = (mu2 - mu1) E(1, 1): content 1 and no central term
P, Q = (1, 0), (0, 1)
# changes to [E(P), E(Q)] alone, each leaving its two orientations apart
# in one thing only
ONE_DIFFERENCE = {
    "denominator": lambda terms: {key: c * Scalar.from_rational(Fraction(1, 2))
                                  for key, c in terms.items()},
    "forms": lambda terms: {key: c.div_form(P) for key, c in terms.items()},
    "extra_key": lambda terms: {**terms, CENTRAL: ONE},
}


def _everywhere(p, q):
    return True


# the first three keep the ids they had as (bracket, skew off the diagonal)
@pytest.mark.parametrize("table, skew", [
    pytest.param(None, _everywhere, id="None-True"),
    pytest.param("squared_bracket", lambda p, q: p == q, id="squared_bracket-False"),
    # its quintic center is skew, not a cocycle
    pytest.param("wrong_bracket", _everywhere, id="wrong_bracket-True"),
    pytest.param("cubed_witt", _everywhere, id="cubed_witt"),
    *(pytest.param(name, lambda p, q: {p, q} != {P, Q}, id=name)
      for name in ONE_DIFFERENCE),
])
def test_skew_check_reads_the_table(request, patch_bracket, table, skew):
    if table in ONE_DIFFERENCE:
        change = ONE_DIFFERENCE[table]
        patch_bracket(lambda terms, ka, kb: change(terms) if (ka, kb) == (P, Q) else terms)
        fwd, rev = algebra._basis_bracket_terms(P, Q), algebra._basis_bracket_terms(Q, P)
        [(key, b)] = rev
        (fkey, a), *extra = fwd
        assert fkey == key and a.num.t == {m: -c for m, c in b.num.t.items()}
        differs = {"denominator": a.num.d != b.num.d, "forms": a.forms != b.forms,
                   "extra_key": bool(extra)}
        assert [name for name, differ in differs.items() if differ] == [table]
    elif table == "cubed_witt":
        patch_bracket(_cube_witt)
    elif table:
        request.getfixturevalue(table)
    pts = box_points(2, 2)
    assert all(bracket_is_skew(p, q) == skew(p, q) for p in pts for q in pts)


def test_skew_check_negates_nothing(monkeypatch):
    pts = box_points(2, 2)
    for p in pts:
        for q in pts:
            bracket_is_skew(p, q)  # fills the table
    calls = Counter()
    for cls in (Scalar, Polynomial):
        def counted(x, neg=cls.__neg__, name=cls.__name__):
            calls[name] += 1
            return neg(x)
        monkeypatch.setattr(cls, "__neg__", counted)
    assert -ONE == Scalar.from_rational(-1) and calls == {"Scalar": 1, "Polynomial": 1}
    calls.clear()
    assert all(bracket_is_skew(p, q) for p in pts for q in pts)
    assert not calls


@pytest.mark.parametrize("scan, n, box, zero_sum", [
    ("jacobi_full_scan", 1, 2, False),
    ("jacobi_zero_sum_scan", 2, 1, True),
])
def test_scans_ask_skew_only_of_distinct_triples(monkeypatch, scan, n, box, zero_sum):
    """A repeated point makes one rotation class, so only the pairs of three
    distinct points decide anything, and only they are asked about."""
    asked = Counter()

    def skew(p, q):
        asked[p, q] += 1
        return bracket_is_skew(p, q)
    monkeypatch.setattr(ver, "bracket_is_skew", skew)
    getattr(ver, scan)(n, box)
    pts = box_points(n, box)

    def third_points(p, q):
        if not zero_sum:
            return set(pts) - {p, q}
        return {tuple(-x - y for x, y in zip(p, q))} & set(pts) - {p, q}
    assert asked and set(asked.values()) == {1}  # memoized per scan
    assert all(p < q and third_points(p, q) for p, q in asked)


def _seeded_triples(rng, n, box, zero_sum, count=12):
    pts = box_points(n, box)
    idx = set(pts)
    out = []
    while len(out) < count:
        a, b, k = (rng.choice(pts) for _ in range(3))
        if zero_sum:
            k = tuple(-x - y for x, y in zip(a, b))
        if k in idx:
            out.append((a, b, k))
    return out


def _sign(perm):
    return -1 if sum(perm[j] > perm[i] for i in range(3) for j in range(i)) % 2 else 1


@pytest.mark.parametrize("cubed", [False, True], ids=["true_bracket", "cubed_witt"])
@pytest.mark.parametrize("n, box, zero_sum", [(2, 2, False), (3, 2, True)])
def test_residuals_alternate_on_box_triples(patch_bracket, cubed, n, box, zero_sum):
    """Both scanned residuals change sign under a transposition, exactly,
    under any skew bracket: here the true one and one whose Witt
    coefficient is cubed, skew but not a Lie bracket."""
    if cubed:
        patch_bracket(_cube_witt)
    rng = random.Random(f"{n}:{box}:{zero_sum}")
    triples = [tuple(sorted(t)) for t in _seeded_triples(rng, n, box, zero_sum)]
    # a cochain that is no cocycle: C0 plus values at every pair the
    # residuals of these triples read
    extra = {(x, vadd(y, z)): rng.randint(1, 9)
             for t in triples for x, y, z in itertools.permutations(t)
             if x != vadd(y, z)}
    theta = TwoCochain(n, 1, None, extra)
    seen = {"jacobi": False, "cocycle": False}
    for s in triples:
        j0 = jacobi_residual(*(basis_element(n, p) for p in s))
        c0 = cocycle_residual(theta, *s)
        seen["jacobi"] |= bool(j0)
        seen["cocycle"] |= bool(c0)
        for perm in itertools.permutations(range(3)):
            t = tuple(s[i] for i in perm)
            sign = _sign(perm)
            assert jacobi_residual(*(basis_element(n, p) for p in t)) \
                == (j0 if sign > 0 else -j0)
            assert cocycle_residual(theta, *t) == (c0 if sign > 0 else -c0)
    assert seen == {"jacobi": cubed, "cocycle": True}


def test_input_file_scan_matches_honest_loop():
    # non-cocycle inputs: the reported triple is the first one of the
    # honest scan by sorted lattice sum, then alpha, then beta
    rng = random.Random(6)
    n, box = 2, 2
    pts = box_points(n, box)
    failing_seen = 0
    for _ in range(6):
        extra = {}
        for _ in range(rng.randint(1, 3)):
            p = tuple(rng.randint(-2, 2) for _ in range(n))
            q = tuple(rng.randint(-2, 2) for _ in range(n))
            if p != q:
                extra[(p, q)] = Scalar.from_rational(rng.randint(1, 5))
        theta = TwoCochain(n, Fraction(1, 2), None, extra)
        count, first = 0, None
        for total in sorted(theta.pair_sum_support() | {(0,) * n}):
            c, failures = _honest(_triples_with_sum(pts, total),
                                  lambda a, b, k: cocycle_residual(theta, a, b, k))
            count += c
            if first is None and failures:
                first = failures[0]
        [record] = suite_cocycle_input(theta, box)
        details = record["details"]
        assert details["triples_checked"] == count
        assert details["failing_triple"] == first
        assert details["evaluated"] < count
        failing_seen += first is not None
    assert failing_seen


def test_non_cyclic_residual_fails_cross_check():
    pts = box_points(1, 2)

    def not_cyclic(a, b, k):
        # zero at the least rotation only
        return (a, b, k) != min((a, b, k), (b, k, a), (k, a, b))

    with pytest.raises(RuntimeError, match="differs from that at its rotation"):
        scan_triples(pts, None, not_cyclic, "test")


def test_cross_check_sample_is_seeded_by_tag():
    # the re-checked triples depend on the tag alone, never on global state
    pts = box_points(1, 2)

    def rechecked(tag):
        calls = []

        def residual(a, b, k):
            calls.append((a, b, k))
            return ZERO

        result = scan_triples(pts, None, residual, tag)
        return calls[result.evaluated:]

    state = random.getstate()
    try:
        random.seed(1)
        first = rechecked("t")
        random.seed(2)
        assert rechecked("t") == first
    finally:
        random.setstate(state)
    assert rechecked("u") != first
    assert len(first) == algebra.SAMPLE


def test_sample_zero_turns_off_both_rechecks(monkeypatch):
    # the scan evaluates its representatives only, and the box check, with
    # no extra pair to read, evaluates nothing
    monkeypatch.setattr(algebra, "SAMPLE", 0)
    calls = []

    def residual(*triple, **kw):
        calls.append(triple)
        return ZERO

    result = scan_triples(box_points(1, 2), None, residual, "t")
    assert len(calls) == result.evaluated
    assert cocycle.canonical_cocycle_identity()
    assert cocycle.coboundary_cocycle_identity()
    calls.clear()
    monkeypatch.setattr(cocycle, "cocycle_residual", residual)
    cocycle.check_cocycle_on_box(canonical_cochain(2), 2)
    assert calls == []


def test_out_of_order_triples_rejected():
    pts = box_points(1, 1)
    with pytest.raises(ValueError, match="arrives after"):
        scan_triples(pts[::-1], None, lambda a, b, k: ZERO, "test")
    with pytest.raises(ValueError, match="arrives after"):
        scan_triples(pts + pts[-1:], (0,), lambda a, b, k: ZERO, "test")


def _without_evaluated(checks):
    return [{**c, "details": {k: v for k, v in c["details"].items()
                              if k != "evaluated"}} for c in checks]


@pytest.mark.parametrize("suite, n, box", [
    (suite_jacobi, 2, 1),
    (suite_jacobi, 3, 2),      # zero-sum path with its sampled cross-check
    (suite_cocycle, 2, 2),
])
def test_random_checks_keep_their_bytes(monkeypatch, suite, n, box):
    # the engine draws its sample from its own Random, never from the
    # suite's, so every seeded check reads as with honest scans
    monkeypatch.setattr(ver, "TRIALS", 8)
    kwargs = {"normalize_trials": 1} if suite is suite_cocycle else {}
    engine = suite(n, box, 5, **kwargs)
    for name, honest in (("jacobi_full_scan", _honest_jacobi),
                         ("jacobi_zero_sum_scan", _honest_jacobi),
                         ("cocycle_full_scan", _honest_cocycle),
                         ("cocycle_zero_sum_scan", _honest_cocycle)):
        zero_sum = "zero_sum" in name
        monkeypatch.setattr(ver, name, lambda n, box, honest=honest, z=zero_sum:
                            ver.ScanResult(*honest(n, box, z), 0))
    assert _without_evaluated(engine) == _without_evaluated(suite(n, box, 5, **kwargs))


def _case_split_records(monkeypatch, n, box):
    """The pair_support_lemma and zero_sum_exhaustive records of
    suite_cocycle, whose box is past FULL_SCAN_LIMIT triples.  No normalize
    trials: normalize_cocycle raises under a broken C0."""
    assert len(box_points(n, box)) ** 3 > ver.FULL_SCAN_LIMIT
    monkeypatch.setattr(ver, "TRIALS", 1)
    checks = {c["id"]: c for c in suite_cocycle(n, box, 0, normalize_trials=0)}
    return (checks[f"cocycle/n={n}/pair_support_lemma"],
            checks[f"cocycle/n={n}/zero_sum_exhaustive"])


def test_cocycle_case_split_passes_on_every_zero_sum_triple(monkeypatch):
    lemma, scan = _case_split_records(monkeypatch, 3, 2)
    pts = box_points(3, 2)
    zero_sum = sum(1 for a, b in itertools.product(pts, repeat=2)
                   if all(abs(x + y) <= 2 for x, y in zip(a, b)))
    assert lemma["status"] == "pass" and scan["status"] == "pass"
    assert lemma["details"]["pairs_checked"] == len(pts) ** 2 == 15625
    assert scan["details"]["triples_checked"] == zero_sum == 6859
    assert scan["details"]["evaluated"] < zero_sum


def test_cocycle_case_split_fails_on_wrong_canonical(monkeypatch, wrong_canonical):
    _, scan = _case_split_records(monkeypatch, 3, 2)
    assert scan["status"] == "fail" and scan["details"]["failures"]


def test_cocycle_case_split_lemma_reads_the_bracket(monkeypatch, patch_bracket):
    """The pair-support lemma reads C0 from the bracket: a skew central term
    at (e_1, e_2), whose sum is nonzero, fails it."""
    e1, e2 = (1, 0, 0), (0, 1, 0)

    def skew_at_e1_e2(terms, ka, kb):
        if (ka, kb) in ((e1, e2), (e2, e1)):
            terms[CENTRAL] = Scalar.from_rational(1 if ka == e1 else -1)
        return terms

    patch_bracket(skew_at_e1_e2)
    lemma, _ = _case_split_records(monkeypatch, 3, 2)
    assert lemma["status"] == "fail"


def test_coboundary_random_residuals_read_the_bracket(monkeypatch, squared_bracket):
    """Under a squared Witt coefficient df is no cocycle, so the seeded
    coboundary trials fail; the record counts failing trials.  Neither
    normalize_cocycle nor h2_rank_experiment runs: both raise under a wrong
    residual."""
    monkeypatch.setattr(cocycle, "h2_rank_experiment", lambda *a, **k: SimpleNamespace(
        cocycle_space_dim=0, coboundary_space_dim=0, quotient_dim=1))
    checks = {c["id"]: c for c in suite_cocycle(2, 2, 0, normalize_trials=0)}
    record = checks["cocycle/n=2/coboundary_random_residuals"]
    assert record["status"] == "fail"
    assert record["details"] == {"trials": ver.TRIALS, "failures": 19}


def test_trials_check_runs_the_trials_it_reports():
    calls = []
    record = ver._trials_check("t", 7, lambda: calls.append(1) or len(calls) % 2)
    assert len(calls) == 7
    assert record == {"id": "t", "status": "fail",
                      "details": {"trials": 7, "failures": 4}}


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        run_suite("bogus")


def test_cocycle_suite_passes_at_rank_one_radius_two():
    """At rank 1 the H^2 rank experiment needs radius 3 to pin the kernel;
    the suite runs it there, so a radius-2 run has no false failure."""
    checks = run_suite("cocycle", n=1, box=2, seed=0)
    assert [c["id"] for c in checks if c["status"] != "pass"] == []
    h2 = next(c for c in checks if c["id"] == "cocycle/n=1/h2_quotient_dim")
    assert h2["details"] == {"cocycle_space_dim": 2, "coboundary_space_dim": 1,
                             "quotient_dim": 1}
