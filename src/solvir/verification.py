"""Verification suites behind the command line driver.

Each suite returns a list of check records {"id", "status", "details"};
records are deterministic functions of (parameters, seed): no timing data,
no unordered iteration.  Randomized trials draw from Python's Mersenne
Twister (random.Random) seeded from the configuration, which is stable
across platforms and runs.

Exhaustive bracket scans use an exact case split when the raw triple count
is out of reach: for basis triples whose lattice sum s is nonzero the
residual is a universal polynomial identity in x = mu.alpha, y = mu.beta,
z = mu.kappa (no central term can appear), verified once by symbolic
expansion; the remaining zero-sum triples are scanned one by one through the
actual residual operation.  A seeded random sample of skipped triples is
re-checked through the honest path as a cross-check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .algebra import (
    basis_element,
    central_element,
    euler_element,
    jacobi_residual,
    vir_bracket,
    vir_i_cocycle_coefficients,
    witt_jacobi_symbolic_identity,
)
from .cocycle import (
    box_points,
    canonical_cochain,
    canonical_cocycle,
    coboundary,
    cocycle_residual,
    h2_rank_experiment,
    normalize_cocycle,
    recognize_eta,
    solve_functional_equation,
    triples_with_sum,
    OneCochain,
    TwoCochain,
)
from .density import (
    DensityParams,
    basis_vector,
    classify_density,
    density_axiom_residual,
    duality_check,
    formal_params,
    lattice_params,
    submodule_invariance_check,
    IRREDUCIBLE,
    REDUCIBLE_CODIM_ONE,
    REDUCIBLE_TRIVIAL_SUB,
)
from .gvm import grade_of, gvm_act, quotient_dim_level1, GvmMonomial, GvmVector
from .scalars import ONE, ZERO, Scalar, mu_poly
from .verma import (
    TruncationBox,
    VermaVector,
    is_singular_within_box,
    pbw_enumerate,
    vacuum,
    verma_act,
    weight_space_dim_truncated,
)

FULL_SCAN_LIMIT = 200_000


def check(check_id: str, ok: bool, **details) -> dict:
    return {"id": check_id, "status": "pass" if ok else "fail",
            "details": details}


def _partition_count(k, max_part=None):
    if max_part is None:
        max_part = k
    if k == 0:
        return 1
    if k < 0 or max_part == 0:
        return 0
    return _partition_count(k - max_part, max_part) + _partition_count(k, max_part - 1)


def _random_point(rng, n, box):
    return tuple(rng.randint(-box, box) for _ in range(n))


def _random_element(rng, n, box, allow_central=True):
    out = basis_element(n, _random_point(rng, n, box)).scale(rng.randint(1, 4))
    for _ in range(rng.randint(0, 2)):
        out = out + basis_element(n, _random_point(rng, n, box)).scale(
            rng.randint(-4, 4))
    if allow_central and rng.random() < 0.3:
        out = out + central_element(n).scale(rng.randint(-3, 3))
    return out


# --------------------------------------------------------------------------
# jacobi suite
# --------------------------------------------------------------------------


def jacobi_full_scan(n: int, box: int):
    pts = box_points(n, box)
    els = {p: basis_element(n, p) for p in pts}
    failures = []
    count = 0
    for a, b, k in itertools.product(pts, repeat=3):
        count += 1
        if jacobi_residual(els[a], els[b], els[k]):
            failures.append([list(a), list(b), list(k)])
    return count, failures


def jacobi_zero_sum_scan(n: int, box: int):
    pts = box_points(n, box)
    els = {p: basis_element(n, p) for p in pts}
    failures = []
    count = 0
    for a, b, k in triples_with_sum(pts, (0,) * n):
        count += 1
        if jacobi_residual(els[a], els[b], els[k]):
            failures.append([list(a), list(b), list(k)])
    return count, failures


def suite_jacobi(n: int, box: int, seed: int, trials: int = 60):
    rng = random.Random(seed)
    checks = []
    total = len(box_points(n, box)) ** 3

    if total <= FULL_SCAN_LIMIT:
        count, failures = jacobi_full_scan(n, box)
        checks.append(check(f"jacobi/n={n}/exhaustive", not failures,
                            triples_checked=count, method="full_enumeration",
                            failures=failures[:5]))
    else:
        ok_sym = witt_jacobi_symbolic_identity()
        checks.append(check(f"jacobi/n={n}/nonzero_sum_identity", ok_sym,
                            method="symbolic_expansion",
                            covers=f"all {total} triples with nonzero lattice sum"))
        count, failures = jacobi_zero_sum_scan(n, box)
        checks.append(check(f"jacobi/n={n}/zero_sum_exhaustive", not failures,
                            triples_checked=count, method="zero_sum_enumeration",
                            failures=failures[:5]))
        sample_fail = []
        for _ in range(trials):
            triple = [_random_point(rng, n, box) for _ in range(3)]
            if jacobi_residual(*(basis_element(n, p) for p in triple)):
                sample_fail.append([list(p) for p in triple])
        checks.append(check(f"jacobi/n={n}/sampled_cross_check", not sample_fail,
                            trials=trials, failures=sample_fail[:5]))

    bad = 0
    for _ in range(trials):
        x, y, z = (_random_element(rng, n, box) for _ in range(3))
        if jacobi_residual(x, y, z):
            bad += 1
    checks.append(check(f"jacobi/n={n}/random_general_elements", bad == 0,
                        trials=trials, failures=bad))

    bad = 0
    for _ in range(trials):
        x, y = _random_element(rng, n, box), _random_element(rng, n, box)
        if vir_bracket(x, y) + vir_bracket(y, x):
            bad += 1
    checks.append(check(f"jacobi/n={n}/antisymmetry_random", bad == 0,
                        trials=trials, failures=bad))

    ok = True
    for axis in range(1, n + 1):
        a, _b = vir_i_cocycle_coefficients(n, axis)
        eps = tuple(1 if j == axis - 1 else 0 for j in range(n))
        twelfth = Scalar.from_rational(Fraction(1, 12))
        if a != Scalar.mu_form(eps) * twelfth or a.is_zero():
            ok = False
        if _b != -(ONE.div_form(eps) * twelfth):
            ok = False
    checks.append(check(f"jacobi/n={n}/axis_subalgebra_cocycle", ok, axes=n))
    return checks


# --------------------------------------------------------------------------
# cocycle suite
# --------------------------------------------------------------------------


def cocycle_full_scan(n: int, box: int):
    theta = canonical_cochain(n)
    pts = box_points(n, box)
    failures = []
    count = 0
    for a, b, k in itertools.product(pts, repeat=3):
        count += 1
        if cocycle_residual(theta, a, b, k):
            failures.append([list(a), list(b), list(k)])
    return count, failures


def cocycle_zero_sum_scan(n: int, box: int):
    theta = canonical_cochain(n)
    pts = box_points(n, box)
    failures = []
    count = 0
    for a, b, k in triples_with_sum(pts, (0,) * n):
        count += 1
        if cocycle_residual(theta, a, b, k):
            failures.append([list(a), list(b), list(k)])
    return count, failures


def _random_cochain(rng, n, box, size=4):
    support = {}
    for _ in range(size):
        point = _random_point(rng, n, box)
        support[point] = Scalar.from_rational(
            Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
    return OneCochain(n, support)


def suite_cocycle(n: int, box: int, seed: int, trials: int = 60,
                  normalize_trials: int = 5, theta_input: TwoCochain | None = None):
    rng = random.Random(seed)
    checks = []

    if theta_input is not None:
        pts = box_points(n, box)
        failing = None
        count = 0
        for total in sorted(theta_input.pair_sum_support() | {(0,) * n}):
            for a, b, k in triples_with_sum(pts, total):
                count += 1
                if cocycle_residual(theta_input, a, b, k) and failing is None:
                    failing = [list(a), list(b), list(k)]
        checks.append(check("cocycle/input_file_residual", failing is None,
                            triples_checked=count, failing_triple=failing))
        return checks

    total = len(box_points(n, box)) ** 3
    if total <= FULL_SCAN_LIMIT:
        count, failures = cocycle_full_scan(n, box)
        checks.append(check(f"cocycle/n={n}/exhaustive", not failures,
                            triples_checked=count, method="full_enumeration",
                            failures=failures[:5]))
    else:
        pts = box_points(n, box)
        support_ok = all(
            canonical_cocycle(a, b).is_zero()
            for a, b in itertools.product(pts, repeat=2) if any(
                x + y for x, y in zip(a, b)))
        checks.append(check(f"cocycle/n={n}/pair_support_lemma", support_ok,
                            pairs_checked=len(pts) ** 2,
                            covers=f"all {total} triples with nonzero lattice sum"))
        count, failures = cocycle_zero_sum_scan(n, box)
        checks.append(check(f"cocycle/n={n}/zero_sum_exhaustive", not failures,
                            triples_checked=count, failures=failures[:5]))

    theta = canonical_cochain(n)
    bad = 0
    for _ in range(trials):
        f = _random_cochain(rng, n, box)
        df = coboundary(f)
        for _ in range(4):
            triple = [_random_point(rng, n, box) for _ in range(3)]
            if cocycle_residual(df, *triple) or cocycle_residual(theta, *triple):
                bad += 1
    checks.append(check(f"cocycle/n={n}/coboundary_random_residuals", bad == 0,
                        trials=trials, failures=bad))

    results = []
    ok_norm = True
    for _ in range(normalize_trials):
        f = _random_cochain(rng, n, box)
        eta, _shift = normalize_cocycle(canonical_cochain(n) + coboundary(f), box)
        a, _ = recognize_eta(eta)
        ok_here = a == Scalar.from_rational(Fraction(1, 12))
        eta0_tab, _ = normalize_cocycle(coboundary(f), box)
        a0, _ = recognize_eta(eta0_tab)
        ok_here = ok_here and a0.is_zero()
        ok_norm = ok_norm and ok_here
        results.append("1/12,0" if ok_here else "mismatch")
    checks.append(check(f"cocycle/n={n}/normalize_recognize", ok_norm,
                        trials=normalize_trials, outcomes=results))

    sol = solve_functional_equation(10)
    checks.append(check("cocycle/functional_equation_deg10",
                        sol.kernel_exponents == [1, 3] and sol.dimension == 2,
                        kernel=sol.kernel_exponents,
                        diagonal_k3=sol.diagonal[3], diagonal_k4=sol.diagonal[4]))

    h2 = h2_rank_experiment(n, max(box, 2), degree_bound=10)
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
    rng = random.Random(seed)
    p = formal_params(n)
    checks = []

    pts = box_points(n, min(box, 2))
    targets = [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,)]
    bad = 0
    count = 0
    for a, b in itertools.product(pts, repeat=2):
        for kappa in targets:
            count += 1
            if density_axiom_residual(basis_element(n, a), basis_element(n, b),
                                      basis_vector(n, kappa), p):
                bad += 1
    checks.append(check(f"density/n={n}/axiom_exhaustive_basis_pairs", bad == 0,
                        pairs_checked=count, failures=bad))

    bad = 0
    for _ in range(trials):
        x = _random_element(rng, n, box)
        y = _random_element(rng, n, box)
        v = basis_vector(n, _random_point(rng, n, box)).scale(rng.randint(1, 3))
        v = v + basis_vector(n, _random_point(rng, n, box))
        if density_axiom_residual(x, y, v, p):
            bad += 1
    checks.append(check(f"density/n={n}/axiom_random_pairs", bad == 0,
                        trials=trials, failures=bad))

    ok = True
    for beta in box_points(n, min(box, 2)):
        out = vir_bracket(euler_element(n), basis_element(n, beta))
        expected = basis_element(n, beta).scale(Scalar(mu_poly(beta)))
        ok = ok and out == expected
    checks.append(check(f"density/n={n}/weight_property", ok))

    cls_ok = (classify_density(p).case == IRREDUCIBLE
              and classify_density(DensityParams(n, ZERO, ZERO)).case
              == REDUCIBLE_TRIVIAL_SUB
              and classify_density(lattice_params(n, (1,) + (0,) * (n - 1), 1)).case
              == REDUCIBLE_CODIM_ONE
              and classify_density(
                  DensityParams(n, Scalar.from_rational(Fraction(1, 2)), ZERO)).case
              == IRREDUCIBLE)
    checks.append(check(f"density/n={n}/classification_trichotomy", cls_ok))

    r00 = submodule_invariance_check(DensityParams(n, ZERO, ZERO), box)
    r01 = submodule_invariance_check(DensityParams(n, ZERO, ONE), box)
    checks.append(check(f"density/n={n}/submodule_cases", r00.ok and r01.ok,
                        box=box,
                        trivial_sub=[list(c) for c in r00.checks],
                        codim_one=[list(c) for c in r01.checks]))

    bad = 0
    count = 0
    for alpha in box_points(n, box):
        for gamma in box_points(n, box):
            count += 1
            if duality_check(p, alpha, gamma):
                bad += 1
    details = {"pairs_checked": count, "failures": bad}
    if spec:
        res = duality_check(p, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,))
        assignment = dict(spec)
        assignment.setdefault("a", Fraction(1, 2))
        assignment.setdefault("b", Fraction(1, 3))
        for i in range(1, n + 1):
            assignment.setdefault(f"mu{i}", Fraction(i * i + 1))
        details["numeric_spot_check"] = str(res.evaluate(assignment))
        bad += 0 if res.evaluate(assignment) == 0 else 1
    checks.append(check(f"density/n={n}/duality_residuals", bad == 0, **details))
    return checks


# --------------------------------------------------------------------------
# verma suite
# --------------------------------------------------------------------------


def suite_verma(n: int, box: int, seed: int, kmax: int = 5, nmax: int = 4,
                trials: int = 25):
    rng = random.Random(seed)
    checks = []
    S0 = Scalar.from_rational(0)

    dims = []
    ok_partitions = True
    for k in range(kmax + 1):
        dim = weight_space_dim_truncated(1, (-k,),
                                         TruncationBox(max(k, 1), max(k, 1)))
        dims.append(dim)
        ok_partitions = ok_partitions and dim == _partition_count(k)
    checks.append(check("verma/rank1_partition_dimensions", ok_partitions,
                        dims=dims, kmax=kmax))

    growth = []
    ok_growth = True
    for N in range(1, nmax + 1):
        tb = TruncationBox(N, 2 * N + 1)
        dim = weight_space_dim_truncated(2, (-1, 0), tb)
        members = {m.word for m in pbw_enumerate(2, (-1, 0), tb)}
        family = all(tuple(sorted(((0, -k), (-1, k)))) in members
                     for k in range(1, N + 1))
        ok_growth = ok_growth and dim >= N and family
        growth.append({"N": N, "L": 2 * N + 1, "dim": dim})
    ok_growth = ok_growth and all(
        a["dim"] < b["dim"] for a, b in zip(growth, growth[1:]))
    checks.append(check("verma/rank2_weight_growth", ok_growth, table=growth))

    v = verma_act(basis_element(1, (-1,)), vacuum(1), lam=S0, c=S0)
    ok_singular = is_singular_within_box(v, TruncationBox(4, 4), lam=S0, c=S0)
    ok_singular = ok_singular and is_singular_within_box(
        vacuum(2), TruncationBox(2, 2))
    generic = verma_act(basis_element(1, (-1,)), vacuum(1))
    ok_singular = ok_singular and not is_singular_within_box(
        generic, TruncationBox(3, 3))
    checks.append(check("verma/singular_vectors", ok_singular))

    monos = pbw_enumerate(2, (-1, 0), TruncationBox(2, 3)) \
        + pbw_enumerate(2, (0, -2), TruncationBox(2, 2))
    bad = 0
    for _ in range(trials):
        alpha = _random_point(rng, 2, 2)
        beta = _random_point(rng, 2, 2)
        x, y = basis_element(2, alpha), basis_element(2, beta)
        v = VermaVector(2, {rng.choice(monos): ONE})
        lhs = verma_act(x, verma_act(y, v)) - verma_act(y, verma_act(x, v))
        if lhs != verma_act(vir_bracket(x, y), v):
            bad += 1
    checks.append(check("verma/module_axiom_random", bad == 0,
                        trials=trials, failures=bad))
    return checks


# --------------------------------------------------------------------------
# gvm suite
# --------------------------------------------------------------------------


def suite_gvm(n: int, seed: int, boxes=(1, 2, 3, 4), trials: int = 25,
              kappas=((0,), (1,), (-1,))):
    if n < 2:
        n = 2
    rng = random.Random(seed)
    checks = []
    p = formal_params(n - 1)

    bad = 0
    for _ in range(trials):
        alpha = _random_point(rng, n, 2)
        beta = _random_point(rng, n, 2)
        br = vir_bracket(basis_element(n, alpha), basis_element(n, beta))
        for degree, part in grade_of(br).items():
            if part.support() and degree != alpha[0] + beta[0]:
                bad += 1
    checks.append(check(f"gvm/n={n}/grading_respects_bracket", bad == 0,
                        trials=trials, failures=bad))

    monos = [GvmMonomial(n, ((1, (0,) * (n - 1)),), (0,) * (n - 1)),
             GvmMonomial(n, ((1, (-1,) + (0,) * (n - 2)),), (1,) + (0,) * (n - 2)),
             GvmMonomial(n, (), (0,) * (n - 1))]
    bad = 0
    for _ in range(trials):
        alpha = _random_point(rng, n, 2)
        beta = _random_point(rng, n, 2)
        x, y = basis_element(n, alpha), basis_element(n, beta)
        v = GvmVector(n, {rng.choice(monos): ONE})
        lhs = gvm_act(x, gvm_act(y, v, p), p) - gvm_act(y, gvm_act(x, v, p), p)
        if lhs != gvm_act(vir_bracket(x, y), v, p):
            bad += 1
    checks.append(check(f"gvm/n={n}/module_axiom_random", bad == 0,
                        trials=trials, failures=bad))

    tables = []
    ok_ranks = True
    for kappa in kappas:
        kappa = tuple(kappa) if len(kappa) == n - 1 else (kappa[0],) * (n - 1)
        report = quotient_dim_level1(n, kappa, formal_params(n - 1), boxes)
        ranks = [entry["rank"] for entry in report.boxes]
        monotone = all(x <= y for x, y in zip(ranks, ranks[1:]))
        ceiling = all(r <= 3 for r in ranks)
        ok_ranks = ok_ranks and monotone and report.stabilized and ceiling
        tables.append({"kappa": list(kappa), "ranks": ranks,
                       "stabilized": report.stabilized})
    checks.append(check(f"gvm/n={n}/level1_quotient_ranks", ok_ranks,
                        tables=tables, rank_ceiling="1*3"))
    return checks


def run_suite(name: str, n: int, box: int, seed: int, boxes=None, spec=None,
              theta_input=None):
    """Dispatch a named suite; 'all' concatenates every suite."""
    boxes = list(boxes) if boxes else [1, 2, 3, 4]
    if name == "jacobi":
        return suite_jacobi(n, box, seed)
    if name == "cocycle":
        return suite_cocycle(n, box, seed, theta_input=theta_input)
    if name == "density":
        return suite_density(n, box, seed, spec=spec)
    if name == "verma":
        return suite_verma(n, box, seed)
    if name == "gvm":
        return suite_gvm(n, seed, boxes=boxes)
    if name == "all":
        checks = []
        checks += suite_jacobi(n, min(box, 2), seed)
        checks += suite_cocycle(n, min(box, 2), seed, normalize_trials=3)
        checks += suite_density(n, min(box, 2), seed, trials=40, spec=spec)
        checks += suite_verma(n, box, seed, kmax=4, nmax=3)
        checks += suite_gvm(n, seed, boxes=[1, 2, 3])
        return checks
    raise ValueError(f"unknown suite {name!r}")
