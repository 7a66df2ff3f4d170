"""Mutation table: how many wrong programs the tier-1 tests catch.

Each mutant is one text edit of one file of the repository.  For each, the
script copies the repository (without .git and caches) to a temporary
directory, applies the edit there and runs the tier-1 tests with ``-x``.
The unmutated copy runs first, and must pass.  A mutant is

* killed when the tests fail, with the first failing test recorded;
* equivalent when they pass and its reason starts with "equivalent:", which
  then says why no test can tell it from the real program;
* survived when they pass otherwise: a gap in the tests.

    python3 tools/mutants.py > mutants.json

writes the JSON record of every mutant to stdout and one progress line per
mutant to stderr.  It exits 2 if the unmutated copy fails its tests, 1 if
any mutant survived or an equivalent one was killed, 0 otherwise.  The
working tree is never edited.  tests/test_mutants.py checks, without running
a mutant, that each old text occurs exactly once in its file.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

# (id, file, old text, new text, reason)
MUTANTS = [
    # density
    ("act_coefficient_no_b", "src/solvir/density.py",
     "return _mu_scalar(beta) + p.a + _mu_scalar(alpha) * p.b",
     "return _mu_scalar(beta) + p.a",
     "T(a, b) loses its b term"),
    ("classify_swapped_cases", "src/solvir/density.py",
     "case = REDUCIBLE_TRIVIAL_SUB if b == 0 else REDUCIBLE_CODIM_ONE",
     "case = REDUCIBLE_TRIVIAL_SUB if b == 1 else REDUCIBLE_CODIM_ONE",
     "the two reducible cases swap"),
    ("classify_narrowed_cases", "src/solvir/density.py",
     "if gamma is None or b not in (0, 1):",
     "if gamma is None or b not in (0,):",
     "b = 1 is called irreducible"),
    ("classify_no_b_test", "src/solvir/density.py",
     "if gamma is None or b not in (0, 1):",
     "if gamma is None:",
     "every lattice value of a is called reducible, T(0, 1/2) included"),
    ("submodule_edge_unshifted", "src/solvir/density.py",
     "return bool(act_coefficient(vsub(target, kappa), kappa, shifted))",
     "return bool(act_coefficient(vsub(target, kappa), kappa, p))",
     "the submodule edges read T(mu.gamma, b) in place of T(0, b)"),
    ("duality_plus_a", "src/solvir/density.py",
     "DensityParams(p.n, -p.a, ONE - p.b)",
     "DensityParams(p.n, p.a, ONE - p.b)",
     "the dual is matched against T(a, 1-b)"),
    ("lattice_point_no_denominator_test", "src/solvir/density.py",
     "if a.forms or a.num.d != 1:",
     "if a.forms:",
     "equivalent: mu_form(gamma) has denominator 1, so the closing "
     "mu_form(gamma) == a rejects every a with a denominator"),
    # verma
    ("straighten_central_flipped", "src/solvir/verma.py",
     "_acc(out, (rest, base), bracket * c)",
     "_acc(out, (rest, base), -bracket * c)",
     "C acts by -c in a commutator"),
    ("straighten_central_dropped", "src/solvir/verma.py",
     "_acc(out, (rest, base), bracket * c)",
     "pass",
     "the central term of a commutator is lost"),
    ("singular_residuals_empty", "src/solvir/verma.py",
     "for gamma in box_points(v.n, box.N):",
     "for gamma in ():",
     "singular_residuals tests no raising, so every vector is singular"),
    ("pbw_reach_looser", "src/solvir/verma.py",
     "if c > box.N * most:",
     "if c > box.N * most + 1:",
     "equivalent: a looser dead-target bound only lets the count walk "
     "targets that then reach no word"),
    # gvm
    ("gvm_act_wrong_zero_part", "src/solvir/gvm.py",
     "coef = act_coefficient(alpha, (0,) + base, p)",
     "coef = act_coefficient(alpha, (1,) + base, p)",
     "degree zero acts at the weight (1, base) in place of (0, base)"),
    ("quotient_stabilized_by_length", "src/solvir/gvm.py",
     "stabilized = len(ranks) >= 2 and ranks[-1] == ranks[-2]",
     "stabilized = len(ranks) >= 2",
     "a rank table that still grows reads stabilized"),
    # algebra
    ("sample_none", "src/solvir/algebra.py",
     "SAMPLE = 16",
     "SAMPLE = 0",
     "the seeded re-checks draw no triple"),
    ("eta0_plus_x", "src/solvir/algebra.py",
     "return Scalar(((x * x * x) - x).scale(Fraction(1, 12)))",
     "return Scalar(((x * x * x) + x).scale(Fraction(1, 12)))",
     "the normalized central coefficient is (x^3 + x)/12"),
    ("bracket_is_skew_always", "src/solvir/algebra.py",
     "fwd, rev = _basis_bracket_terms(ka, kb), _basis_bracket_terms(kb, ka)",
     "return True",
     "every pair reads skew, so scans evaluate one triple per multiset"),
    ("cubic_odd_fit_wrong_a", "src/solvir/algebra.py",
     "a = (f2 - f1 - f1) * Scalar.from_rational(Fraction(1, 6))",
     "a = (f2 - f1) * Scalar.from_rational(Fraction(1, 6))",
     "the cubic coefficient of the fit is (f(2) - f(1))/6"),
    # cocycle
    ("recognize_eta_no_point_check", "src/solvir/cocycle.py",
     "if eta.value(alpha) != a * x * x * x + b * x:",
     "if False:",
     "a table off the cubic fit is recognized"),
    ("check_on_box_one_triple", "src/solvir/cocycle.py",
     "for total, alpha, beta in sorted(touched)), sample):",
     "for total, alpha, beta in sorted(touched)[:1]), sample):",
     "check_cocycle_on_box reads one touched triple"),
    ("normalize_shift_sign", "src/solvir/cocycle.py",
     "{gamma: theta.value(zero, gamma).div_form(gamma)",
     "{gamma: -theta.value(zero, gamma).div_form(gamma)",
     "normalize_cocycle returns the negative of its shift"),
    ("normalize_coboundary_sign", "src/solvir/cocycle.py",
     "shifted = theta + coboundary(-shift)",
     "shifted = theta + coboundary(shift)",
     "equivalent: only the diagonal of the shifted cochain is read, and there "
     "d(shift)(alpha, -alpha) reads shift at 0, where it has no entry"),
    ("h2_stops_one_rank_early", "src/solvir/cocycle.py",
     "if ech.rank >= len(ks) - len(known):",
     "if ech.rank >= len(ks) - len(known) - 1:",
     "the H^2 rank scan stops one rank short of its bound"),
    # verification
    ("scan_failures_representatives", "src/solvir/verification.py",
     "failures += {u for u in itertools.permutations(t) if rep(u) == t}",
     "failures.append(t)",
     "a scan lists only the evaluated triple of each failing class"),
    ("scan_triple_count", "src/solvir/verification.py",
     "count += 6",
     "count += 5",
     "a scan miscounts the triples of a distinct multiset"),
    ("trials_check_count", "src/solvir/verification.py",
     "bad = sum(1 for _ in range(trials) if failing())",
     "bad = sum(1 for _ in range(trials - 1) if failing())",
     "a trials check runs one trial fewer than it reports"),
    ("suite_all_drops_verma", "src/solvir/verification.py",
     "            + suite_verma(seed, kmax=4, nmax=3)\n",
     "",
     "verify all runs no verma check"),
    # linalg, scalars
    ("bareiss_divides_by_pivot", "src/solvir/linalg.py",
     "((piv, row[j]), (neg, top[j]))).exact_div(prev)",
     "((piv, row[j]), (neg, top[j]))).exact_div(piv)",
     "Bareiss divides by the current pivot, not the previous one"),
    ("common_denominator_once_per_form", "src/solvir/scalars.py",
     "for alpha in (lcm - own).elements():",
     "for alpha in (lcm - own):",
     "a repeated missing form multiplies a numerator once"),
    ("slash_closes_its_term", "src/solvir/scalars.py",
     "            coef = coef * _parse_divisor(ts)\n",
     "            return coef * _parse_divisor(ts), key\n",
     "'/' ends its term, so 2/3*a is refused"),
    # cli
    ("build_config_never_refuses", "src/solvir/cli.py",
     'if args.cmd != "verify":',
     "if False:",
     "dims and normalize warn on a key they do not read"),
    ("suites_density_drops_spec", "src/solvir/cli.py",
     '"density": ("n", "box", "seed", "spec")',
     '"density": ("n", "box", "seed")',
     "verify density warns on --spec and never passes it"),
]

# tier-1 but the table's own check, which any mutant of a listed file fails
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.M)


def apply(root: Path, mutant):
    """Edit the copy under root; ValueError unless the old text occurs once."""
    mid, path, old, new, _ = mutant
    target = root / path
    text = target.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{mid}: old text occurs {text.count(old)} times in {path}")
    target.write_text(text.replace(old, new))


def tier1(mutant=None):
    """(failed, first failing test) of tier-1 on a copy with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_work", ".benchmarks"))
        if mutant:
            apply(root, mutant)
        path = os.pathsep.join(filter(None, [str(root / "src"),
                                             os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, f"timeout after {TIMEOUT_S} s"
    found = FIRST_FAILURE.search(proc.stdout)
    return proc.returncode != 0, found.group(1) if found else (
        (proc.stdout + proc.stderr).strip().splitlines() or [""])[-1]


def run(mutant) -> dict:
    """The record of mutant: its status, first failing test and seconds."""
    mid, path, _, _, reason = mutant
    start = time.perf_counter()
    failed, first = tier1(mutant)
    equivalent = reason.startswith("equivalent:")
    status = "killed" if failed else "equivalent" if equivalent else "survived"
    return {"id": mid, "file": path, "status": status,
            "first_failure": first if failed else None, "reason": reason,
            "seconds": round(time.perf_counter() - start, 1)}


def main() -> int:
    start = time.perf_counter()
    failed, first = tier1()
    if failed:
        print(f"error: the unmutated copy fails tier-1: {first}", file=sys.stderr)
        return 2
    records = []
    for mutant in MUTANTS:
        records.append(run(mutant))
        print(f"{records[-1]['status']:>10}  {mutant[0]}", file=sys.stderr)
    counts = {status: sum(r["status"] == status for r in records)
              for status in ("killed", "survived", "equivalent")}
    report = {"counts": counts, "seconds": round(time.perf_counter() - start, 1),
              "mutants": records}
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    stale = any(r["status"] == "killed" and r["reason"].startswith("equivalent:")
                for r in records)
    return 1 if counts["survived"] or stale else 0


if __name__ == "__main__":
    sys.exit(main())
