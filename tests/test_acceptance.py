"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every assertion is exact; there are no numeric tolerances anywhere.
Criterion 8 checks the level-one rank ceiling 1*3 of the generalized Verma
module: every pairing rank at radii 1..8 is at most the ceiling and equals
it, because each pairing entry has degree 2 in the column index (so the rank
is at most 3) and the radius-1 matrix is already nonsingular.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from solvir.algebra import (
    basis_element,
    jacobi_residual,
    vir_i_cocycle_coefficients,
)
from solvir.cocycle import (
    OneCochain,
    box_points,
    canonical_cochain,
    coboundary,
    h2_rank_experiment,
    normalize_cocycle,
    recognize_eta,
    solve_functional_equation,
)
from solvir.density import (
    DensityParams,
    IRREDUCIBLE,
    REDUCIBLE_CODIM_ONE,
    REDUCIBLE_TRIVIAL_SUB,
    basis_vector,
    classify_density,
    density_act,
    density_axiom_residual,
    duality_check,
    formal_params,
    lattice_params,
    submodule_invariance_check,
)
from solvir.gvm import quotient_dim_level1
from solvir.scalars import ONE, ZERO, Scalar
from solvir.verification import (
    cocycle_full_scan,
    cocycle_zero_sum_scan,
    jacobi_full_scan,
    jacobi_zero_sum_scan,
    witt_jacobi_symbolic_identity,
)
from solvir.verma import (
    TruncationBox,
    is_singular_within_box,
    pbw_enumerate,
    vacuum,
    verma_act,
    weight_space_dim_truncated,
)

S0 = Scalar.from_rational(0)


def announce(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    return ok


def partition_count(k, max_part=None):
    if max_part is None:
        max_part = k
    if k == 0:
        return 1
    if k < 0 or max_part == 0:
        return 0
    return partition_count(k - max_part, max_part) + partition_count(k, max_part - 1)


def test_criterion_01_jacobi_suite():
    start = time.time()
    ok = True
    counts = {}
    for n in (1, 2):
        count, failures = jacobi_full_scan(n, 3)
        ok = ok and not failures
        counts[n] = count
    # n = 3: exact case split, full enumeration is out of runtime reach
    ok = ok and witt_jacobi_symbolic_identity()
    count3, failures3 = jacobi_zero_sum_scan(3, 3)
    ok = ok and not failures3
    counts[3] = count3
    rng = random.Random(4242)
    for _ in range(200):
        triple = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
        ok = ok and jacobi_residual(*(basis_element(3, p) for p in triple)).is_zero()
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    assert announce(1, f"jacobi residual zero on boxes, n=1..3 "
                       f"(triples {counts}, {elapsed:.1f}s)", ok)


def test_criterion_02_cocycle_condition():
    ok = True
    counts = {}
    for n in (1, 2):
        count, failures = cocycle_full_scan(n, 3)
        ok = ok and not failures
        counts[n] = count
    from solvir.cocycle import canonical_cocycle

    pts = box_points(3, 3)
    support_ok = all(canonical_cocycle(a, b).is_zero()
                     for a, b in itertools.product(pts, repeat=2)
                     if any(x + y for x, y in zip(a, b)))
    ok = ok and support_ok
    count3, failures3 = cocycle_zero_sum_scan(3, 3)
    ok = ok and not failures3
    counts[3] = count3
    assert announce(2, f"canonical cocycle condition on boxes, n=1..3 "
                       f"(triples {counts})", ok)


def test_criterion_03_functional_equation():
    sol = solve_functional_equation(10)
    ok = sol.kernel_exponents == [1, 3] and sol.dimension == 2
    ok = ok and sol.diagonal[1] == 0 and sol.diagonal[3] == 0
    ok = ok and all(sol.diagonal[k] != 0 for k in range(11) if k not in (1, 3))
    ok = ok and sol.diagonal[3] == 5 - 32 + 27 and sol.diagonal[4] == 22
    assert announce(3, "functional equation kernel is span{x, x^3}", ok)


def test_criterion_04_cocycle_normalization():
    rng = random.Random(20240)
    ok = True
    twelfth = Scalar.from_rational(Fraction(1, 12))
    for _ in range(25):
        support = {}
        for _ in range(rng.randint(2, 5)):
            point = (rng.randint(-3, 3), rng.randint(-3, 3))
            support[point] = Scalar.from_rational(
                Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4)))
        f = OneCochain(2, support)
        eta, _ = normalize_cocycle(canonical_cochain(2) + coboundary(f), 3)
        a, _ = recognize_eta(eta)
        ok = ok and a == twelfth
        eta0, _ = normalize_cocycle(coboundary(f), 3)
        a0, _ = recognize_eta(eta0)
        ok = ok and a0.is_zero()
    h2 = h2_rank_experiment(2, 3, degree_bound=10)
    ok = ok and h2.quotient_dim == 1
    assert announce(4, "normalization recovers a = 1/12 (25 seeded cochains); "
                       "H2 quotient dim 1", ok)


def test_criterion_05_density_modules():
    p = formal_params(2)
    ok = True
    pts = box_points(2, 2)
    for alpha, beta in itertools.product(pts, repeat=2):
        x, y = basis_element(2, alpha), basis_element(2, beta)
        for kappa in ((0, 0), (1, -1)):
            ok = ok and density_axiom_residual(
                x, y, basis_vector(2, kappa), p).is_zero()
    rng = random.Random(515)
    for _ in range(100):
        x = basis_element(2, (rng.randint(-3, 3), rng.randint(-3, 3)))
        y = basis_element(2, (rng.randint(-3, 3), rng.randint(-3, 3)))
        x = x.scale(rng.randint(1, 4))
        v = basis_vector(2, (rng.randint(-3, 3), rng.randint(-3, 3)))
        ok = ok and density_axiom_residual(x, y, v, p).is_zero()
    ok = ok and classify_density(p).case == IRREDUCIBLE
    ok = ok and classify_density(DensityParams(2, ZERO, ZERO)).case \
        == REDUCIBLE_TRIVIAL_SUB
    ok = ok and classify_density(lattice_params(2, (2, -1), 1)).case \
        == REDUCIBLE_CODIM_ONE
    shifted00 = DensityParams(2, ZERO, ZERO)
    for alpha in box_points(2, 3):
        ok = ok and density_act(basis_element(2, alpha),
                                basis_vector(2, (0, 0)), shifted00).is_zero()
    shifted01 = DensityParams(2, ZERO, ONE)
    for alpha in box_points(2, 3):
        if not any(alpha):
            continue
        image = density_act(basis_element(2, alpha),
                            basis_vector(2, tuple(-c for c in alpha)), shifted01)
        ok = ok and image.coefficient((0, 0)).is_zero()
    ok = ok and submodule_invariance_check(shifted00, 3).ok
    ok = ok and submodule_invariance_check(shifted01, 3).ok
    for alpha in box_points(2, 3):
        for gamma in box_points(2, 3):
            ok = ok and duality_check(p, alpha, gamma).is_zero()
    assert announce(5, "density module axioms, trichotomy, submodules, duality", ok)


def test_criterion_06_verma_rank1_oracle():
    expected = [1, 1, 2, 3, 5, 7, 11]
    ok = True
    for k in range(7):
        dim = weight_space_dim_truncated(
            1, (-k,), TruncationBox(max(k, 1), max(k, 1)))
        ok = ok and dim == expected[k] == partition_count(k)
    v = verma_act(basis_element(1, (-1,)), vacuum(1), lam=S0, c=S0)
    ok = ok and is_singular_within_box(v, TruncationBox(5, 5), lam=S0, c=S0)
    assert announce(6, "rank-1 dims match partition numbers p(0..6); "
                       "level-one vector singular in M(0,0)", ok)


def test_criterion_07_infinite_dimensionality_evidence():
    start = time.time()
    dims = []
    ok = True
    for N in range(1, 7):
        box = TruncationBox(N, 2 * N + 1)
        dim = weight_space_dim_truncated(2, (-1, 0), box)
        dims.append(dim)
        ok = ok and dim >= N
        members = {m.word for m in pbw_enumerate(2, (-1, 0), box)}
        for k in range(1, N + 1):
            ok = ok and tuple(sorted(((0, -k), (-1, k)))) in members
    ok = ok and all(x < y for x, y in zip(dims, dims[1:]))
    elapsed = time.time() - start
    ok = ok and elapsed < 120
    assert announce(7, f"rank-2 weight dims strictly increase {dims} "
                       f"({elapsed:.1f}s)", ok)


@pytest.fixture(scope="module")
def gvm_rank_reports():
    """The criterion-8 rank reports, built once per run, and the build's seconds."""
    start = time.time()
    p = formal_params(1)
    reports = {kappa: quotient_dim_level1(2, kappa, p, range(1, 9))
               for kappa in ((0,), (1,), (-1,))}
    return reports, time.time() - start


def test_criterion_08_gvm_rank_monotone_stabilized(gvm_rank_reports):
    reports, build_s = gvm_rank_reports
    start = time.time()
    ok = True
    summary = {}
    for kappa, report in reports.items():
        ranks = [entry["rank"] for entry in report.boxes]
        summary[kappa[0]] = ranks
        ok = ok and all(x <= y for x, y in zip(ranks, ranks[1:]))
        ok = ok and report.stabilized
        stable_at = next(i for i in range(1, len(ranks))
                         if ranks[i] == ranks[i - 1])
        ok = ok and report.boxes[stable_at]["radius"] <= 8
    elapsed = build_s + time.time() - start
    ok = ok and elapsed < 600
    assert announce(8, f"gvm level-1 ranks monotone and stabilized by box 8 "
                       f"{summary} ({elapsed:.0f}s)", ok)


def test_criterion_08_gvm_rank_strict_bound(gvm_rank_reports):
    reports, _ = gvm_rank_reports
    ok = True
    for kappa, report in reports.items():
        ok = ok and report.bound_string() == "1*3"
        ceiling = math.prod(int(f) for f in report.bound_string().split("*"))
        ok = ok and [entry["radius"] for entry in report.boxes] == list(range(1, 9))
        ranks = [entry["rank"] for entry in report.boxes]
        ok = ok and all(r <= ceiling for r in ranks)
        ok = ok and all(r == ceiling for r in ranks)
    assert announce(8, "gvm level-1 ranks at radii 1..8 are at most the 1*3 "
                       "ceiling and attain it at every radius", ok)


def test_criterion_09_subalgebra_cocycle():
    twelfth = Scalar.from_rational(Fraction(1, 12))
    ok = True
    for n in (1, 2, 3):
        for axis in range(1, n + 1):
            a, b = vir_i_cocycle_coefficients(n, axis)
            eps = tuple(1 if j == axis - 1 else 0 for j in range(n))
            ok = ok and a == Scalar.mu_form(eps) * twelfth
            ok = ok and b == -(ONE.div_form(eps) * twelfth)
            ok = ok and not a.is_zero()
    assert announce(9, "axis subalgebras carry (mu_i/12, -1/(12 mu_i))", ok)


def test_criterion_10_determinism(tmp_path, solvir_env):
    outputs = []
    for tag, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{tag}.json"
        result = subprocess.run(
            [sys.executable, "-m", "solvir.cli", "verify", "all",
             "--seed", "42", "--jobs", jobs, "--out", str(out)],
            capture_output=True, text=True, env=solvir_env)
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    ok = ok and json.loads(outputs[0])["status"] == "pass"
    assert announce(10, "verify all --seed 42 byte-identical across runs "
                        "and jobs settings", ok)
