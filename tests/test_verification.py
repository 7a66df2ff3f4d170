"""The cyclic-orbit scan engine against honest triple-by-triple loops.

Every exhaustive scan evaluates one triple per rotation orbit; these tests
break the bracket or the canonical cocycle so that the scans fail, and
compare counts and ordered failure lists with loops written here that
evaluate every triple.
"""

import itertools
import random
from fractions import Fraction

import pytest

import solvir.algebra as algebra
import solvir.cocycle as cocycle
import solvir.verification as ver
from solvir.algebra import CENTRAL, basis_element, jacobi_residual
from solvir.cocycle import (
    TwoCochain,
    box_points,
    canonical_cochain,
    cocycle_residual,
    triples_with_sum,
)
from solvir.scalars import ZERO, Scalar
from solvir.verification import run_suite, scan_triples, suite_cocycle, suite_jacobi


def _honest(triples, residual):
    count, failures = 0, []
    for a, b, k in triples:
        count += 1
        if residual(a, b, k):
            failures.append([list(a), list(b), list(k)])
    return count, failures


def _box_triples(n, box, zero_sum):
    pts = box_points(n, box)
    if zero_sum:
        return triples_with_sum(pts, (0,) * n)
    return itertools.product(pts, repeat=3)


def _honest_jacobi(n, box, zero_sum):
    return _honest(_box_triples(n, box, zero_sum), lambda a, b, k: jacobi_residual(
        basis_element(n, a), basis_element(n, b), basis_element(n, k)))


def _honest_cocycle(n, box, zero_sum):
    theta = canonical_cochain(n)
    return _honest(_box_triples(n, box, zero_sum),
                   lambda a, b, k: cocycle_residual(theta, a, b, k))


@pytest.fixture
def wrong_bracket(fresh_identities, monkeypatch):
    """Central term eta(t) = t^5: skew, but not a cocycle."""
    right = algebra._basis_bracket_terms

    def terms(ka, kb):
        out = dict(right(ka, kb))
        if not any(a + b for a, b in zip(ka, kb)) and any(ka):
            out[CENTRAL] = Scalar.mu_form(ka) ** 5
        return out

    monkeypatch.setattr(algebra, "_basis_bracket_terms", terms)


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
    result = getattr(ver, scan)(n, box)
    count, failures = result
    assert (count, failures) == _honest_cocycle(n, box, zero_sum)
    assert failures and result.evaluated < count


def test_honest_scans_pass_and_count_orbits():
    # 7 points: (343 - 7) / 3 orbits of size three and 7 fixed triples
    result = ver.jacobi_full_scan(1, 3)
    assert result == (343, [])
    assert result.evaluated == 112 + 7
    assert ver.cocycle_zero_sum_scan(2, 2) == _honest_cocycle(2, 2, True)


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
            c, failures = _honest(triples_with_sum(pts, total),
                                  lambda a, b, k: cocycle_residual(theta, a, b, k))
            count += c
            if first is None and failures:
                first = failures[0]
        [record] = suite_cocycle(n, box, seed=0, theta_input=theta)
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
        scan_triples(itertools.product(pts, repeat=3), not_cyclic, "test")


def test_cross_check_sample_is_seeded_by_tag():
    # the re-checked triples depend on the tag alone, never on global state
    pts = box_points(1, 2)

    def rechecked(tag):
        calls = []

        def residual(a, b, k):
            calls.append((a, b, k))
            return ZERO

        result = scan_triples(itertools.product(pts, repeat=3), residual, tag)
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
    assert len(first) == ver.ORBIT_SAMPLE


def test_out_of_order_triples_rejected():
    pts = box_points(1, 1)
    triples = list(itertools.product(pts, repeat=3))
    with pytest.raises(ValueError, match="arrives after"):
        scan_triples(reversed(triples), lambda a, b, k: ZERO, "test")
    with pytest.raises(ValueError, match="arrives after"):
        scan_triples(triples + triples[-1:], lambda a, b, k: ZERO, "test")


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
    kwargs = {"trials": 8}
    if suite is suite_cocycle:
        kwargs["normalize_trials"] = 1
    engine = suite(n, box, 5, **kwargs)
    for name, honest in (("jacobi_full_scan", _honest_jacobi),
                         ("jacobi_zero_sum_scan", _honest_jacobi),
                         ("cocycle_full_scan", _honest_cocycle),
                         ("cocycle_zero_sum_scan", _honest_cocycle)):
        zero_sum = "zero_sum" in name
        monkeypatch.setattr(ver, name, lambda n, box, honest=honest, z=zero_sum:
                            ver.ScanResult(*honest(n, box, z), 0))
    assert _without_evaluated(engine) == _without_evaluated(suite(n, box, 5, **kwargs))


def _case_split_records(n, box):
    """The pair_support_lemma and zero_sum_exhaustive records of
    suite_cocycle, whose box is past FULL_SCAN_LIMIT triples.  No normalize
    trials: normalize_cocycle raises under a broken C0."""
    assert len(box_points(n, box)) ** 3 > ver.FULL_SCAN_LIMIT
    checks = {c["id"]: c for c in suite_cocycle(n, box, 0, trials=1,
                                                normalize_trials=0)}
    return (checks[f"cocycle/n={n}/pair_support_lemma"],
            checks[f"cocycle/n={n}/zero_sum_exhaustive"])


def test_cocycle_case_split_passes_on_every_zero_sum_triple():
    lemma, scan = _case_split_records(3, 2)
    pts = box_points(3, 2)
    zero_sum = sum(1 for a, b in itertools.product(pts, repeat=2)
                   if all(abs(x + y) <= 2 for x, y in zip(a, b)))
    assert lemma["status"] == "pass" and scan["status"] == "pass"
    assert lemma["details"]["pairs_checked"] == len(pts) ** 2 == 15625
    assert scan["details"]["triples_checked"] == zero_sum == 6859
    assert scan["details"]["evaluated"] < zero_sum


def test_cocycle_case_split_fails_on_wrong_canonical(wrong_canonical):
    _, scan = _case_split_records(3, 2)
    assert scan["status"] == "fail" and scan["details"]["failures"]


def test_cocycle_suite_passes_at_rank_one_radius_two():
    """At rank 1 the H^2 rank experiment needs radius 3 to pin the kernel;
    the suite runs it there, so a radius-2 run has no false failure."""
    checks = run_suite("cocycle", 1, 2, 0)
    assert [c["id"] for c in checks if c["status"] != "pass"] == []
    h2 = next(c for c in checks if c["id"] == "cocycle/n=1/h2_quotient_dim")
    assert h2["details"] == {"cocycle_space_dim": 2, "coboundary_space_dim": 1,
                             "quotient_dim": 1}
