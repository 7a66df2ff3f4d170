"""Verification suites behind the command line driver.

Each suite returns a list of check records {"id", "status", "details"};
records are deterministic functions of (parameters, seed): no timing data,
no unordered iteration.  Randomized trials draw from Python's Mersenne
Twister (random.Random) seeded from the configuration, which is stable
across platforms and runs.

Every exhaustive triple scan runs in scan_triples.  Both residuals are
cyclic sums, and alternating where the bracket table is skew, which the
scan checks pair by pair: one residual per multiset, or per rotation
class off skew pairs, and a seeded re-check of other triples.  Both sums are
of pair terms, inner brackets [e_y, e_z] or cochain values theta(e_x,
e_{y+z}), which a scan meets many times: it reads each through a memo that
lives as long as the scan, wherever pairs repeat.
Past the raw triple count the suites split cases exactly: at a nonzero
lattice sum the residual is one polynomial in x = mu.alpha, y = mu.beta,
z = mu.kappa, verified once by expanding the residual at
algebra.GENERIC_TRIPLE, where x, y, z are independent; only the zero-sum
triples are scanned, and seeded triples re-check the rest.  The density
module axiom takes the case split at every size: one identity covers every
basis triple, and seeded basis triples re-check it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache, partial

# each suite imports the layers it runs, so `verify <suite>` loads only those
from .algebra import (
    _mu_scalar,
    basis_element,
    box_points,
    box_size,
    bracket_is_skew,
    central_element,
    check_pairs,
    euler_element,
    jacobi_residual,
    sample_triples,
    sorted_triples,
    vir_bracket,
    vir_i_cocycle_coefficients,
    witt_jacobi_symbolic_identity,
)
from .scalars import ONE, ZERO, Scalar

FULL_SCAN_LIMIT = 200_000
# the seeded trials of each randomized jacobi and cocycle check
TRIALS = 60
# the seeded trials of each randomized verma and gvm check
MODULE_TRIALS = 25


def check(check_id: str, ok: bool, **details) -> dict:
    return {"id": check_id, "status": "pass" if ok else "fail",
            "details": details}


def _trials_check(check_id, trials, failing):
    """The record of trials calls of failing(); a true result is a failure."""
    bad = sum(1 for _ in range(trials) if failing())
    return check(check_id, bad == 0, trials=trials, failures=bad)


def _partition_counts(kmax):
    """The partition numbers p(0), ..., p(kmax)."""
    counts = [1] + [0] * kmax
    for part in range(1, kmax + 1):
        for k in range(part, kmax + 1):
            counts[k] += counts[k - part]
    return counts


def _random_point(rng, n, box):
    return tuple(rng.randint(-box, box) for _ in range(n))


def _random_element(rng, n, box):
    out = basis_element(n, _random_point(rng, n, box)).scale(rng.randint(1, 4))
    for _ in range(rng.randint(0, 2)):
        out = out + basis_element(n, _random_point(rng, n, box)).scale(
            rng.randint(-4, 4))
    if rng.random() < 0.3:
        out = out + central_element(n).scale(rng.randint(-3, 3))
    return out


def _sampled_triples_check(check_id, rng, n, box, trials, residual):
    """The record of trials random box triples re-checked by residual(a, b, k);
    a nonzero residual is a failure."""
    failures = []
    for _ in range(trials):
        triple = [_random_point(rng, n, box) for _ in range(3)]
        if residual(*triple):
            failures.append([list(p) for p in triple])
    return check(check_id, not failures, trials=trials, failures=failures[:5])


# --------------------------------------------------------------------------
# jacobi suite
# --------------------------------------------------------------------------


class ScanResult(tuple):
    """(count, failures) of a triple scan; .evaluated counts residual calls."""

    def __new__(cls, count, failures, evaluated):
        self = super().__new__(cls, (count, failures))
        self.evaluated = evaluated
        return self


def scan_triples(pts, total, residual, tag) -> ScanResult:
    """Every triple of points of pts, of sum total unless it is None, with a
    nonzero residual, in increasing order; ValueError unless pts is sorted
    without repeats.

    residual, a cyclic sum, is alternating on a multiset a < b < k whose
    pairs pass bracket_is_skew (memoized per scan): there it is evaluated at
    the sorted triple only, elsewhere at each rotation class's least triple.
    A multiset with a repeated point has one rotation class, holding every
    permutation, so its sorted triple is evaluated whatever the table says,
    and the skew test is asked only about points of distinct triples.
    Triples it did not evaluate, drawn by algebra.sample_triples from tag,
    are re-checked through residual; a disagreement raises RuntimeError.
    """
    for p, q in zip(pts, pts[1:]):
        if q <= p:
            raise ValueError(f"point {q} arrives after {p}")
    skew = cache(bracket_is_skew)

    def rep(t):
        """The evaluated triple that vouches for t."""
        a, b, k = s = tuple(sorted(t))
        if a == b or b == k or (skew(a, b) and skew(a, k) and skew(b, k)):
            return s
        return min(t, t[1:] + t[:1], t[2:] + t[:2])

    failed, failures = set(), []
    count = evaluated = 0
    for s in sorted_triples(pts, total):
        a, b, k = s
        if a < b < k:
            count += 6
            # a is least, so (a, k, b) leads the other rotation class
            ts = (s,) if skew(a, b) and skew(a, k) and skew(b, k) else (s, (a, k, b))
        else:
            count += 1 if a == k else 3
            ts = (s,)
        for t in ts:
            evaluated += 1
            if residual(*t):
                failed.add(t)
                failures += {u for u in itertools.permutations(t) if rep(u) == t}
    failures.sort()
    for t in sample_triples(pts, None if total is None else [total],
                            lambda _, t: t == rep(t), tag):
        if bool(residual(*t)) != ((r := rep(t)) in failed):
            raise RuntimeError(f"residual at {t} differs from that at its "
                               f"rotation or permutation {r}")
    return ScanResult(count, [list(map(list, t)) for t in failures], evaluated)


def _jacobi_residual(n, pts, total):
    els = {p: basis_element(n, p) for p in pts}
    if total is not None:
        # one ordered inner pair and the sum fix the triple: no pair repeats
        return lambda a, b, k: jacobi_residual(els[a], els[b], els[k])
    memo = {}  # (id(u), id(v)) -> [u, v]; els keeps u and v alive, so no id repeats

    def bracket(u, v):
        key = id(u), id(v)
        out = memo.get(key)
        if out is None:
            out = memo[key] = vir_bracket(u, v)
        return out

    return lambda a, b, k: jacobi_residual(els[a], els[b], els[k], bracket)


def _cocycle_residual(n, pts, total):
    from .cocycle import canonical_cochain, cocycle_residual

    theta = canonical_cochain(n)
    # theta's pairs repeat at one lattice sum too
    return partial(cocycle_residual, theta, value=cache(theta.value))


def _box_scan(residual_of, n, box, zero_sum):
    """Scan the box triples, or those of sum 0, for residual_of(n, pts, total)."""
    check_pairs(box_size(n, box) ** 2, f"the rank-{n} scan of radius {box}")
    pts = box_points(n, box)
    total = (0,) * n if zero_sum else None
    return scan_triples(pts, total, residual_of(n, pts, total), f"{n}:{box}:{zero_sum}")


def jacobi_full_scan(n: int, box: int):
    return _box_scan(_jacobi_residual, n, box, False)


def jacobi_zero_sum_scan(n: int, box: int):
    return _box_scan(_jacobi_residual, n, box, True)


def cocycle_full_scan(n: int, box: int):
    return _box_scan(_cocycle_residual, n, box, False)


def cocycle_zero_sum_scan(n: int, box: int):
    return _box_scan(_cocycle_residual, n, box, True)


def _scan_check(check_id, result):
    count, failures = result
    return check(check_id, not failures, triples_checked=count,
                 evaluated=result.evaluated, method="permutation_orbit_enumeration",
                 failures=failures[:5])


def suite_jacobi(n: int, box: int, seed: int):
    rng = random.Random(seed)
    checks = []
    total = box_size(n, box) ** 3

    if total <= FULL_SCAN_LIMIT:
        checks.append(_scan_check(f"jacobi/n={n}/exhaustive",
                                  jacobi_full_scan(n, box)))
    else:
        checks.append(check(f"jacobi/n={n}/nonzero_sum_identity",
                            witt_jacobi_symbolic_identity(),
                            method="symbolic_expansion",
                            covers=f"all {total} triples with nonzero lattice sum"))
        checks.append(_scan_check(f"jacobi/n={n}/zero_sum_exhaustive",
                                  jacobi_zero_sum_scan(n, box)))
        checks.append(_sampled_triples_check(
            f"jacobi/n={n}/sampled_cross_check", rng, n, box, TRIALS,
            lambda *triple: jacobi_residual(*(basis_element(n, p) for p in triple))))

    checks.append(_trials_check(
        f"jacobi/n={n}/random_general_elements", TRIALS,
        lambda: jacobi_residual(*(_random_element(rng, n, box) for _ in range(3)))))

    def antisymmetry():
        x, y = _random_element(rng, n, box), _random_element(rng, n, box)
        return vir_bracket(x, y) + vir_bracket(y, x)
    checks.append(_trials_check(f"jacobi/n={n}/antisymmetry_random", TRIALS,
                                antisymmetry))

    ok = True
    twelfth = Scalar.from_rational(Fraction(1, 12))
    for axis in range(1, n + 1):
        a, b = vir_i_cocycle_coefficients(n, axis)
        eps = tuple(1 if j == axis - 1 else 0 for j in range(n))
        ok = ok and (a == _mu_scalar(eps) * twelfth
                     and b == -(ONE.div_form(eps) * twelfth))
    checks.append(check(f"jacobi/n={n}/axis_subalgebra_cocycle", ok, axes=n))
    return checks


# --------------------------------------------------------------------------
# cocycle suite
# --------------------------------------------------------------------------


def _random_cochain(rng, n, box):
    from .cocycle import OneCochain

    return OneCochain(n, {_random_point(rng, n, box): Fraction(
        rng.randint(-5, 5) or 1, rng.randint(1, 4)) for _ in range(4)})


def suite_cocycle_input(theta, box: int):
    """The check of theta, a cocycle.TwoCochain, by one scan per lattice sum
    of its pair-sum support and 0, which hold every triple where its
    residual can be nonzero."""
    from .cocycle import cocycle_residual

    n = theta.n
    # permutations keep the lattice sum: one engine scan per sum
    totals = sorted(theta.pair_sum_support() | {(0,) * n})
    check_pairs(len(totals) * box_size(n, box) ** 2,
                f"the rank-{n} input scan of radius {box}")
    pts = box_points(n, box)
    residual = partial(cocycle_residual, theta, value=cache(theta.value))
    results = [scan_triples(pts, total, residual, f"input:{n}:{box}:{total}")
               for total in totals]
    failing = next((failures[0] for _, failures in results if failures), None)
    return [check("cocycle/input_file_residual", failing is None,
                  triples_checked=sum(r[0] for r in results),
                  evaluated=sum(r.evaluated for r in results),
                  method="permutation_orbit_enumeration",
                  failing_triple=failing)]


def suite_cocycle(n: int, box: int, seed: int, normalize_trials: int = 5):
    """The checks of the canonical cocycle, of coboundaries and of H^2 in the
    rank-n box; suite_cocycle_input checks a given cochain."""
    from .cocycle import (
        canonical_cochain,
        canonical_cocycle,
        canonical_cocycle_identity,
        coboundary,
        coboundary_cocycle_identity,
        cocycle_residual,
        h2_rank_experiment,
        normalize_cocycle,
        recognize_eta,
        solve_functional_equation,
    )

    rng = random.Random(seed)
    checks = []

    total = box_size(n, box) ** 3
    if total <= FULL_SCAN_LIMIT:
        checks.append(_scan_check(f"cocycle/n={n}/exhaustive",
                                  cocycle_full_scan(n, box)))
    else:
        # the scan refuses a box past MAX_PAIRS before the lemma walks its pairs
        scan = cocycle_zero_sum_scan(n, box)
        pts = box_points(n, box)
        support_ok = all(
            canonical_cocycle(a, b).is_zero()
            for a, b in itertools.product(pts, repeat=2) if any(
                x + y for x, y in zip(a, b)))
        checks.append(check(f"cocycle/n={n}/pair_support_lemma", support_ok,
                            pairs_checked=len(pts) ** 2,
                            covers=f"all {total} triples with nonzero lattice sum"))
        checks.append(_scan_check(f"cocycle/n={n}/zero_sum_exhaustive", scan))

    theta = canonical_cochain(n)

    def residuals():
        df = coboundary(_random_cochain(rng, n, box))
        triples = [[_random_point(rng, n, box) for _ in range(3)] for _ in range(4)]
        return any(cocycle_residual(df, *t) or cocycle_residual(theta, *t)
                   for t in triples)
    checks.append(_trials_check(f"cocycle/n={n}/coboundary_random_residuals",
                                TRIALS, residuals))

    # the identities check_cocycle_on_box rests on inside normalize_cocycle
    checks.append(check("cocycle/canonical_cocycle_identity",
                        canonical_cocycle_identity(), method="symbolic_expansion",
                        covers="cocycle residual of C0 at every triple"))
    checks.append(check("cocycle/witt_jacobi_symbolic_identity",
                        coboundary_cocycle_identity(),
                        method="symbolic_expansion",
                        covers="cocycle residual of every df at every triple"))
    results = []
    for _ in range(normalize_trials):
        f = _random_cochain(rng, n, box)
        eta, _shift = normalize_cocycle(canonical_cochain(n) + coboundary(f), box)
        eta0_tab, _shift = normalize_cocycle(coboundary(f), box)
        ok_here = (recognize_eta(eta)[0] == Scalar.from_rational(Fraction(1, 12))
                   and recognize_eta(eta0_tab)[0].is_zero())
        results.append("1/12,0" if ok_here else "mismatch")
    checks.append(check(f"cocycle/n={n}/normalize_recognize",
                        "mismatch" not in results, trials=normalize_trials,
                        outcomes=results))

    sol = solve_functional_equation(10)
    checks.append(check("cocycle/functional_equation_deg10",
                        sol.kernel_exponents == [1, 3] and sol.dimension == 2,
                        kernel=sol.kernel_exponents,
                        diagonal_k3=sol.diagonal[3], diagonal_k4=sol.diagonal[4]))

    # at rank 1 and radius 2 every zero-sum triple repeats a point or permutes
    # (x, 0, -x), so those equations cannot pin the kernel; radius 3 can
    h2 = h2_rank_experiment(n, max(box, 3), degree_bound=10)
    checks.append(check(f"cocycle/n={n}/h2_quotient_dim", h2.quotient_dim == 1,
                        cocycle_space_dim=h2.cocycle_space_dim,
                        coboundary_space_dim=h2.coboundary_space_dim,
                        quotient_dim=h2.quotient_dim))
    return checks


# --------------------------------------------------------------------------
# density suite
# --------------------------------------------------------------------------


def suite_density(n: int, box: int, seed: int, trials: int = 100,
                  spec=None):
    from .density import (
        DensityParams,
        basis_vector,
        classify_density,
        density_axiom_residual,
        density_axiom_symbolic_identity,
        duality_check,
        formal_params,
        lattice_params,
        submodule_invariance_check,
        IRREDUCIBLE,
        REDUCIBLE_CODIM_ONE,
        REDUCIBLE_TRIVIAL_SUB,
    )

    check_pairs(box_size(n, box) ** 2, f"the rank-{n} density suite of radius {box}")
    rng = random.Random(seed)
    p = formal_params(n)
    checks = []

    checks.append(check(f"density/n={n}/axiom_basis_identity",
                        density_axiom_symbolic_identity(),
                        method="symbolic_expansion",
                        covers="axiom residual of every basis triple "
                               "(E(alpha), E(beta), v_kappa), every rank and (a, b)"))
    # its own generator, so the trials below draw as they did without it
    checks.append(_sampled_triples_check(
        f"density/n={n}/axiom_sampled_cross_check",
        random.Random(f"density:{n}:{box}:{seed}"), n, box, trials,
        lambda alpha, beta, kappa: density_axiom_residual(
            basis_element(n, alpha), basis_element(n, beta),
            basis_vector(n, kappa), p)))

    def axiom():
        x = _random_element(rng, n, box)
        y = _random_element(rng, n, box)
        v = basis_vector(n, _random_point(rng, n, box)).scale(rng.randint(1, 3))
        v = v + basis_vector(n, _random_point(rng, n, box))
        return density_axiom_residual(x, y, v, p)
    checks.append(_trials_check(f"density/n={n}/axiom_random_pairs", trials, axiom))

    ok = all(vir_bracket(euler_element(n), basis_element(n, beta))
             == basis_element(n, beta).scale(_mu_scalar(beta))
             for beta in box_points(n, min(box, 2)))
    checks.append(check(f"density/n={n}/weight_property", ok))

    cls_ok = all(classify_density(params).case == case for params, case in (
        (p, IRREDUCIBLE), (DensityParams(n, ZERO, ZERO), REDUCIBLE_TRIVIAL_SUB),
        (lattice_params(n, (1,) + (0,) * (n - 1), 1), REDUCIBLE_CODIM_ONE),
        (DensityParams(n, Scalar.from_rational(Fraction(1, 2)), ZERO), IRREDUCIBLE)))
    checks.append(check(f"density/n={n}/classification_trichotomy", cls_ok))

    r00 = submodule_invariance_check(DensityParams(n, ZERO, ZERO), box)
    r01 = submodule_invariance_check(DensityParams(n, ZERO, ONE), box)
    checks.append(check(f"density/n={n}/submodule_cases", r00.ok and r01.ok,
                        box=box,
                        trivial_sub=[list(c) for c in r00.checks],
                        codim_one=[list(c) for c in r01.checks]))

    grid = box_points(n, box)
    bad = sum(1 for alpha, gamma in itertools.product(grid, repeat=2)
              if duality_check(p, alpha, gamma))
    details = {"pairs_checked": len(grid) ** 2, "failures": bad}
    if spec:
        res = duality_check(p, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,))
        assignment = dict(spec)
        assignment.setdefault("a", Fraction(1, 2))
        assignment.setdefault("b", Fraction(1, 3))
        for i in range(1, n + 1):
            assignment.setdefault(f"mu{i}", Fraction(i * i + 1))
        spot = res.evaluate(assignment)
        details["numeric_spot_check"] = str(spot)
        bad += 0 if spot == 0 else 1
    checks.append(check(f"density/n={n}/duality_residuals", bad == 0, **details))
    return checks


# --------------------------------------------------------------------------
# verma suite
# --------------------------------------------------------------------------


def _module_axiom_check(check_id, rng, vectors, act):
    """MODULE_TRIALS seeded trials of x.(y.v) - y.(x.v) == [x, y].v for
    basis elements x, y of radius 2 and v drawn from vectors, under act(x, v)."""
    n = vectors[0].n

    def failing():
        x = basis_element(n, _random_point(rng, n, 2))
        y = basis_element(n, _random_point(rng, n, 2))
        v = rng.choice(vectors)
        return act(x, act(y, v)) - act(y, act(x, v)) != act(vir_bracket(x, y), v)
    return _trials_check(check_id, MODULE_TRIALS, failing)


def suite_verma(seed: int, kmax: int = 5, nmax: int = 4):
    """Fixed rank-1 and rank-2 checks; the command's --n and --box do not apply."""
    from .verma import (
        TruncationBox,
        VermaVector,
        is_singular_within_box,
        pbw_enumerate,
        vacuum,
        verma_act,
        weight_space_dim_truncated,
    )

    rng = random.Random(seed)
    checks = []

    dims = [weight_space_dim_truncated(1, (-k,), TruncationBox(max(k, 1), max(k, 1)))
            for k in range(kmax + 1)]
    checks.append(check("verma/rank1_partition_dimensions",
                        dims == _partition_counts(kmax),
                        dims=dims, kmax=kmax))

    growth = []
    ok_growth = True
    for N in range(1, nmax + 1):
        tb = TruncationBox(N, 2 * N + 1)
        members = {m.word for m in pbw_enumerate(2, (-1, 0), tb)}
        dim = len(members)
        family = all(tuple(sorted(((0, -k), (-1, k)))) in members
                     for k in range(1, N + 1))
        ok_growth = ok_growth and dim >= N and family
        growth.append({"N": N, "L": 2 * N + 1, "dim": dim})
    ok_growth = ok_growth and all(
        a["dim"] < b["dim"] for a, b in zip(growth, growth[1:]))
    checks.append(check("verma/rank2_weight_growth", ok_growth, table=growth))

    v = verma_act(basis_element(1, (-1,)), vacuum(1), lam=ZERO, c=ZERO)
    ok_singular = is_singular_within_box(v, TruncationBox(4, 4), lam=ZERO, c=ZERO)
    ok_singular = ok_singular and is_singular_within_box(
        vacuum(2), TruncationBox(2, 2))
    generic = verma_act(basis_element(1, (-1,)), vacuum(1))
    ok_singular = ok_singular and not is_singular_within_box(
        generic, TruncationBox(3, 3))
    checks.append(check("verma/singular_vectors", ok_singular))

    monos = pbw_enumerate(2, (-1, 0), TruncationBox(2, 3)) \
        + pbw_enumerate(2, (0, -2), TruncationBox(2, 2))
    checks.append(_module_axiom_check(
        "verma/module_axiom_random", rng,
        [VermaVector(2, {mono: ONE}) for mono in monos], verma_act))
    return checks


# --------------------------------------------------------------------------
# gvm suite
# --------------------------------------------------------------------------


def suite_gvm(n: int, seed: int, boxes):
    """The gvm checks; empty boxes stand for the radii 1 to 4."""
    from .density import formal_params
    from .gvm import grade_of, gvm_act, quotient_dim_level1, GvmMonomial, GvmVector

    if n < 2:
        raise ValueError("the gvm suite needs --n >= 2")
    rng = random.Random(seed)
    checks = []
    p = formal_params(n - 1)

    def off_grade():
        alpha = _random_point(rng, n, 2)
        beta = _random_point(rng, n, 2)
        br = vir_bracket(basis_element(n, alpha), basis_element(n, beta))
        return any(part.support() and degree != alpha[0] + beta[0]
                   for degree, part in grade_of(br).items())
    checks.append(_trials_check(f"gvm/n={n}/grading_respects_bracket",
                                MODULE_TRIALS, off_grade))

    monos = [GvmMonomial(n, ((-1,) + (0,) * (n - 1),), (0,) * (n - 1)),
             GvmMonomial(n, ((-1, -1) + (0,) * (n - 2),), (1,) + (0,) * (n - 2)),
             GvmMonomial(n, (), (0,) * (n - 1))]
    checks.append(_module_axiom_check(
        f"gvm/n={n}/module_axiom_random", rng,
        [GvmVector(n, {mono: ONE}) for mono in monos],
        lambda x, v: gvm_act(x, v, p)))

    tables = []
    ok_ranks = True
    for k in (0, 1, -1):
        kappa = (k,) * (n - 1)
        report = quotient_dim_level1(n, kappa, p, boxes or [1, 2, 3, 4])
        ranks = [entry["rank"] for entry in report.boxes]
        monotone = all(x <= y for x, y in zip(ranks, ranks[1:]))
        ceiling = all(r <= 3 for r in ranks)
        ok_ranks = ok_ranks and monotone and report.stabilized and ceiling
        tables.append({"kappa": list(kappa), "ranks": ranks,
                       "stabilized": report.stabilized})
    checks.append(check(f"gvm/n={n}/level1_quotient_ranks", ok_ranks,
                        tables=tables, rank_ceiling="1*3"))
    return checks


def suite_all(n: int, box: int, seed: int, spec):
    """Every suite, each at radius at most 2 and with fewer trials."""
    return (suite_jacobi(n, min(box, 2), seed)
            + suite_cocycle(n, min(box, 2), seed, normalize_trials=3)
            + suite_density(n, min(box, 2), seed, trials=40, spec=spec)
            + suite_verma(seed, kmax=4, nmax=3)
            + suite_gvm(n, seed, boxes=[1, 2, 3]))


def run_suite(name: str, **settings):
    """The checks of suite_<name> run on settings, the config keys that
    cli.SUITES lists for it; the suite is read at call time, so a rebinding
    of it is what runs."""
    suite = globals().get(f"suite_{name}")
    if suite is None:
        raise ValueError(f"unknown suite {name!r}")
    return suite(**settings)
