"""Layered benchmark for solvir: time to a verified exact result.

Run from the repository root:

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 25 --trace 0

Workloads: scan, normalize, modules (in-process, see workloads.py) and cli
(a session of fresh ``python -m solvir.cli`` processes).  Load is closed-loop
from one process without threads; the cli workload runs one child at a time.

Every pass runs in a fresh interpreter and checks every result exactly.  With
``--trace 0`` the benchmark repeats passes while another one fits in
``--seconds`` and reports the end-to-end metrics:

* ``norm_wall_s``: mean timed-phase seconds per pass, scaled to the speed at
  which a fixed pure-Python reference loop (``workloads.reference_loop``)
  takes ``CAL_REF_S``.  The loop is timed between operations all through the
  run, and the mean of those samples is the run's speed estimate: the shared
  host this was built on changes speed by up to ~1.8x for seconds at a time.
  The raw wall time is printed as well.
* ``setup_s``: median of at least five set-ups spread over the run
  (interpreter start, ``import solvir``, input generation), scaled the same
  way; the raw median is printed as well.
* ``peak_rss_mib``: peak RSS of the largest workload child.
* ``verified_frac``: operations verified / attempted (``failed_frac`` is
  printed; the JSON carries ``failed`` and ``attempted``).

With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer counters of the traced pass (tracer.py); a counter predicted
nonzero that reads zero fails the run.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  The exit code is 0 only when every check passed, 2 when the
repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SCHEMA = ROOT / "src" / "solvir" / "schema" / "report.schema.json"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

WORKLOADS = ("scan", "normalize", "modules", "cli")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
# the reference loop's typical time on the machine the bounds were set on
CAL_REF_S = 0.030

# counters the layer table (facts.json) predicts nonzero, per workload; the
# traced run fails when one of them reads zero
PREDICTED_NONZERO = {
    "scan": ["scalars.scalar_mul_calls", "scalars.scalar_add_calls",
             "scalars.poly_mul_calls", "scalars.self_s", "algebra.bracket_calls",
             "algebra.bracket_self_s", "algebra.jacobi_residual_calls",
             "algebra.basis_bracket_hit_ratio", "algebra.eta0_hit_ratio",
             "cocycle.residual_calls", "cocycle.value_calls",
             "verification.triples", "verification.scan_s"],
    "normalize": ["scalars.scalar_mul_calls", "scalars.scalar_add_calls",
                  "scalars.div_form_calls", "scalars.poly_mul_calls",
                  "scalars.poly_mul_term_pairs", "scalars.self_s",
                  "cocycle.residual_calls", "cocycle.value_calls",
                  "cocycle.normalize_calls", "cocycle.check_box_s",
                  "cocycle.self_s"],
    "modules": ["scalars.poly_mul_calls", "scalars.poly_mul_term_pairs",
                "scalars.exact_div_calls", "scalars.exact_div_hit_ratio",
                "scalars.self_s", "algebra.bracket_calls", "verma.act_calls",
                "verma.act_busy_s", "verma.self_s", "verma.terms_out",
                "verma.pbw_monomials", "verma.pbw_s", "gvm.act_calls",
                "gvm.self_s", "gvm.rank_tables", "gvm.pairing_entries",
                "linalg.rank_calls", "linalg.busy_s", "linalg.self_s",
                "linalg.echelon_rows"],
    "cli": ["cli.commands", "cli.main_s", "cli.import_s", "cli.report_bytes",
            "density.act_calls", "density.self_s", "verification.checks",
            "verification.triples", "cocycle.normalize_calls",
            "cocycle.residual_calls", "verma.act_calls", "gvm.act_calls",
            "gvm.rank_tables", "linalg.rank_calls", "algebra.bracket_calls",
            "scalars.scalar_mul_calls"],
}
for _names in PREDICTED_NONZERO.values():
    _names += ["trace.overhead_ratio", "trace.spans"]

# name -> unit, in the order they are printed
PER_LAYER = {
    "scalars.scalar_mul_calls": "count", "scalars.scalar_add_calls": "count",
    "scalars.add_forms_mismatch": "count", "scalars.div_form_calls": "count",
    "scalars.poly_mul_calls": "count", "scalars.poly_mul_term_pairs": "count",
    "scalars.exact_div_calls": "count", "scalars.exact_div_hit_ratio": "ratio",
    "scalars.self_s": "s",
    "algebra.bracket_calls": "count", "algebra.bracket_self_s": "s",
    "algebra.jacobi_residual_calls": "count",
    "algebra.basis_bracket_hit_ratio": "ratio",
    "algebra.basis_bracket_misses": "count", "algebra.eta0_hit_ratio": "ratio",
    "algebra.mu_scalar_hit_ratio": "ratio",
    "cocycle.residual_calls": "count", "cocycle.value_calls": "count",
    "cocycle.normalize_calls": "count", "cocycle.check_box_s": "s",
    "cocycle.self_s": "s",
    "density.act_calls": "count", "density.self_s": "s",
    "verma.act_calls": "count", "verma.act_busy_s": "s", "verma.self_s": "s",
    "verma.terms_out": "count", "verma.pbw_monomials": "count",
    "verma.pbw_s": "s",
    "gvm.act_calls": "count", "gvm.self_s": "s", "gvm.rank_tables": "count",
    "gvm.pairing_entries": "count",
    "linalg.rank_calls": "count", "linalg.busy_s": "s", "linalg.self_s": "s",
    "linalg.echelon_rows": "count",
    "verification.triples": "count", "verification.triples_per_s": "1/s",
    "verification.scan_s": "s", "verification.checks": "count",
    "cli.commands": "count", "cli.main_s": "s", "cli.import_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio", "trace.spans": "count",
}
SCANS = ("jacobi_full_scan", "jacobi_zero_sum_scan", "cocycle_full_scan",
         "cocycle_zero_sum_scan")


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


class Runner:
    """Spawns children one at a time inside one run's time limit."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.count = 0
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def spawn(self, argv):
        """Run argv to completion; returns (rc, wall_s, maxrss_kib, stdout, stderr)."""
        self.count += 1
        out_path = WORK / f"child{self.count}.out"
        err_path = WORK / f"child{self.count}.err"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildTimeout()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, min(remaining, RUN_LIMIT_S))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        stderr = err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        return proc.returncode, wall, usage.ru_maxrss, stdout, stderr


class PassResult:
    """One pass: timed-phase seconds, reference-loop samples and checks."""

    def __init__(self, wall_s, cal_s, attempted, failures, digest,
                 maxrss_kib, process_s, trace=None, cache=None):
        self.wall_s = wall_s          # sum of the operations' seconds
        self.cal_s = cal_s            # reference-loop samples around them
        self.attempted = attempted
        self.failures = failures
        self.digest = digest
        self.maxrss_kib = maxrss_kib
        self.process_s = process_s    # whole child processes, for pacing
        self.trace = trace
        self.cache = cache


def at_reference_speed(seconds, cal_s):
    """seconds scaled to the speed at which the reference loop takes CAL_REF_S.

    cal_s are the reference-loop samples taken in the same stretch of time as
    the work; their mean estimates the machine's speed over that stretch.
    """
    return seconds * CAL_REF_S / statistics.mean(cal_s)


# --------------------------------------------------------------------------
# in-process workloads
# --------------------------------------------------------------------------


def _child_argv(workload, seed, size, mode, trace=0, trace_out=None):
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--size", size, "--mode", mode,
            "--trace", str(trace), "--t0", repr(time.time())]
    if trace_out:
        argv += ["--trace-out", str(trace_out)]
    return argv


def _last_json(stdout: bytes):
    lines = stdout.decode(errors="replace").strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def in_process_setup(runner, workload, seed, size):
    rc, _, _, stdout, stderr = runner.spawn(
        _child_argv(workload, seed, size, "setup"))
    if rc != 0:
        raise RuntimeError(f"setup child failed ({rc}): {stderr.strip()[-500:]}")
    return _last_json(stdout)["setup_s"]


def in_process_pass(runner, workload, seed, size, trace):
    trace_out = WORK / f"trace_{workload}_{seed}.child.json" if trace else None
    rc, wall, maxrss, stdout, stderr = runner.spawn(
        _child_argv(workload, seed, size, "pass", int(trace), trace_out))
    record = _last_json(stdout) if rc == 0 else None
    if record is None:
        # the whole pass is one failed operation; nothing else was verified
        return PassResult(0.0, [], 1,
                          [f"pass exited {rc}: {stderr.strip()[-500:]}"],
                          None, maxrss, wall)
    report = None
    if trace:
        report = json.loads(trace_out.read_text())
        trace_out.unlink()
    return PassResult(record["wall_s"], record["cal_s"],
                      record["attempted"], record["failures"], record["digest"],
                      maxrss, wall, report, record["cache"])


# --------------------------------------------------------------------------
# cli workload
# --------------------------------------------------------------------------

# `verify all --seed 42` is the reference whole run; its cost depends on its
# seed, so it stays fixed and the benchmark seed varies the other inputs
CLI_SIZES = {
    "full": {"verify": [["verify", "all", "--seed", "42"]], "normalize_box": 3,
             "theta_points": 4, "gvm_boxes": "1..6", "verma_boxes": "1..6",
             "brackets": 3},
    "tiny": {"verify": [["verify", "jacobi", "--n", "1", "--box", "2"],
                        ["verify", "density", "--n", "1", "--box", "1"],
                        ["verify", "verma", "--n", "1", "--box", "1"]],
             "normalize_box": 2, "theta_points": 2, "gvm_boxes": "1..2",
             "verma_boxes": "1..2", "brackets": 1},
}
MU_POINT = {"mu1": Fraction(3, 7), "mu2": Fraction(-5, 11)}


def _element_text(rng, radius):
    terms = []
    for i in range(rng.randint(1, 3)):
        point = (rng.randint(-radius, radius), rng.randint(-radius, radius))
        coef = rng.randint(1, 4) if i == 0 else rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        terms.append((coef, point))
    text = " + ".join(f"{c}*e[{p[0]},{p[1]}]" for c, p in terms).replace("+ -", "- ")
    return text, terms


def _expected_bracket(xterms, yterms):
    """Independent numeric value of [x, y] at MU_POINT, keyed like parse_element."""
    m1, m2 = MU_POINT["mu1"], MU_POINT["mu2"]
    out = {}
    for a, alpha in xterms:
        for b, beta in yterms:
            key = (alpha[0] + beta[0], alpha[1] + beta[1])
            w = m1 * (beta[0] - alpha[0]) + m2 * (beta[1] - alpha[1])
            out[key] = out.get(key, 0) + a * b * w
            if key == (0, 0):
                x = m1 * alpha[0] + m2 * alpha[1]
                out["c"] = out.get("c", 0) + a * b * (x ** 3 - x) / 12
    return {k: v for k, v in out.items() if v}


def make_cli_inputs(seed, size):
    rng = workloads.rng_for("cli", seed)
    cfg = CLI_SIZES[size]
    box = cfg["normalize_box"]
    support = workloads.random_one_cochain_support(rng, cfg["theta_points"], box)
    theta = {"n": 2, "canonical_multiple": "1",
             "coboundary": [[list(p), str(v)] for p, v in sorted(support.items())],
             "extra": []}
    theta_path = WORK / f"theta_cli_{seed}.json"
    theta_path.write_text(json.dumps(theta))
    brackets = []
    for _ in range(cfg["brackets"]):
        x, xterms = _element_text(rng, 3)
        y, yterms = _element_text(rng, 3)
        brackets.append((x, y, _expected_bracket(xterms, yterms)))
    return {"cfg": cfg, "seed": seed, "theta_path": theta_path,
            "brackets": brackets}


class CliChecker:
    def __init__(self):
        import jsonschema

        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))

    def report(self, stdout):
        report = json.loads(stdout)
        errors = sorted(e.message for e in self.validator.iter_errors(report))
        if errors:
            raise ValueError("schema: " + errors[0][:200])
        return report

    def verify(self, stdout):
        report = self.report(stdout)
        return report["status"] == "pass" and report["counts"]["fail"] == 0

    def normalize(self, stdout):
        report = self.report(stdout)
        return report["status"] == "pass" and report["recognized"]["a"] == "1/12"

    def gvm(self, stdout, nboxes):
        report = self.report(stdout)
        ranks = [entry["rank"] for entry in report["boxes"]]
        return ranks == [workloads.GVM_RANK] * nboxes

    def verma(self, stdout, nboxes):
        report = self.report(stdout)
        dims = [entry["dim"] for entry in report["boxes"]]
        return dims == workloads.VERMA_DIMS[:nboxes]

    def bracket(self, stdout, expected):
        from solvir.algebra import parse_element

        got = parse_element(stdout.decode().strip(), 2)
        values = {k: v.evaluate(MU_POINT) for k, v in got.terms.items()}
        return {k: v for k, v in values.items() if v} == expected


def _box_count(text):
    lo, hi = text.split("..")
    return int(hi) - int(lo) + 1


def cli_commands(inputs):
    """(name, solvir argv, check(stdout) -> bool) for one session."""
    cfg = inputs["cfg"]
    cmds = [(f"verify[{i}]", argv, "verify", ()) for i, argv in enumerate(cfg["verify"])]
    cmds += [
        ("normalize", ["normalize", "--input", str(inputs["theta_path"]),
                       "--box", str(cfg["normalize_box"])], "normalize", ()),
        ("dims-gvm", ["dims", "gvm", "--n", "2", "--kappa", "0", "--boxes",
                      cfg["gvm_boxes"]], "gvm", (_box_count(cfg["gvm_boxes"]),)),
        ("dims-verma", ["dims", "verma", "--n", "2", "--shift", "-1,0", "--boxes",
                        cfg["verma_boxes"]], "verma",
         (_box_count(cfg["verma_boxes"]),)),
    ]
    for i, (x, y, expected) in enumerate(inputs["brackets"]):
        cmds.append((f"bracket[{i}]", ["bracket", x, y], "bracket", (expected,)))
    return cmds


def cli_pass(runner, checker, inputs, trace):
    import hashlib

    wall = 0.0
    maxrss = 0
    failures = []
    digest = hashlib.sha256()
    reports = []
    report_bytes = 0
    cmds = cli_commands(inputs)
    cal_s = []
    for name, argv, kind, extra in cmds:
        cal_s.append(workloads.calibrate())
        trace_out = WORK / f"trace_cli_{inputs['seed']}_{name}.json"
        if trace:
            full = [sys.executable, str(HERE / "cli_launch.py"), str(trace_out),
                    f"cli:{inputs['seed']}"] + argv
        else:
            full = [sys.executable, "-m", "solvir.cli"] + argv
        rc, secs, rss, stdout, stderr = runner.spawn(full)
        wall += secs
        maxrss = max(maxrss, rss)
        report_bytes += len(stdout)
        digest.update(name.encode() + b"\0" + stdout)
        if trace and trace_out.exists():
            reports.append(json.loads(trace_out.read_text()))
            trace_out.unlink()
        if rc != 0:
            failures.append(f"{name}: exit {rc}: {stderr.strip()[-300:]}")
            continue
        try:
            ok = getattr(checker, kind)(stdout, *extra)
        except Exception as exc:  # malformed output is a counted failure
            failures.append(f"{name}: {type(exc).__name__}: {exc}"[:300])
            continue
        if not ok:
            failures.append(f"{name}: wrong result")
    cal_s.append(workloads.calibrate())
    trace_report = None
    cache = None
    if trace:
        trace_report = merge_reports(reports)
        trace_report["cli"] = {
            "commands": len(reports),
            "main_s": sum(r["cli"]["main_s"] for r in reports),
            "import_s": sum(r["cli"]["import_s"] for r in reports),
            "report_bytes": report_bytes,
        }
        cache = merge_caches([r["cli"]["cache"] for r in reports])
    return PassResult(wall, cal_s, len(cmds), failures, digest.hexdigest(),
                      maxrss, wall, trace_report, cache)


def cli_setup(runner):
    rc, wall, _, _, stderr = runner.spawn([sys.executable, "-c", "import solvir.cli"])
    if rc != 0:
        raise RuntimeError(f"import solvir.cli failed: {stderr.strip()[-500:]}")
    return wall


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------


def merge_reports(reports):
    out = {"layer": {}, "calls": {}, "incl": {}, "self": {}, "extra": {},
           "by_parent": {}, "spans": []}
    for rep in reports:
        out["layer"].update(rep["layer"])
        for part in ("calls", "incl", "self", "extra"):
            for k, v in rep[part].items():
                out[part][k] = out[part].get(k, 0) + v
        for parent, counters in rep["by_parent"].items():
            slot = out["by_parent"].setdefault(parent, {})
            for k, v in counters.items():
                slot[k] = [a + b for a, b in zip(slot.get(k, [0, 0.0, 0.0]), v)]
        out["spans"].extend(rep["spans"])
    return out


def merge_caches(caches):
    out = {}
    for cache in caches:
        for name, d in cache.items():
            slot = out.setdefault(name, {"hits": 0, "misses": 0})
            slot["hits"] += d["hits"]
            slot["misses"] += d["misses"]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rep, cache, overhead_ratio):
    calls, incl, own, extra = rep["calls"], rep["incl"], rep["self"], rep["extra"]
    layer = rep["layer"]

    def n(*keys):
        return sum(calls.get(k, 0) for k in keys)

    def layer_self(name):
        return sum(v for k, v in own.items() if layer.get(k) == name)

    def hit_ratio(name):
        d = cache.get(name, {"hits": 0, "misses": 0})
        return _ratio(d["hits"], d["hits"] + d["misses"])

    scan_s = sum(incl.get(k, 0.0) for k in SCANS)
    cli = rep.get("cli", {})
    m = {
        "scalars.scalar_mul_calls": n("Scalar.__mul__", "Scalar.__rmul__"),
        "scalars.scalar_add_calls": n("Scalar.__add__", "Scalar.__radd__"),
        "scalars.add_forms_mismatch": extra.get("add_forms_mismatch", 0),
        "scalars.div_form_calls": n("Scalar.div_form"),
        "scalars.poly_mul_calls": n("Polynomial.__mul__", "Polynomial.__rmul__"),
        "scalars.poly_mul_term_pairs": extra.get("poly_mul_term_pairs", 0),
        "scalars.exact_div_calls": n("Polynomial.exact_div"),
        "scalars.exact_div_hit_ratio": _ratio(extra.get("exact_div_hits", 0),
                                              n("Polynomial.exact_div")),
        "scalars.self_s": layer_self("scalars"),
        "algebra.bracket_calls": n("vir_bracket"),
        "algebra.bracket_self_s": own.get("vir_bracket", 0.0),
        "algebra.jacobi_residual_calls": n("jacobi_residual"),
        "algebra.basis_bracket_hit_ratio": hit_ratio("_basis_bracket_terms"),
        "algebra.basis_bracket_misses":
            cache.get("_basis_bracket_terms", {}).get("misses", 0),
        "algebra.eta0_hit_ratio": hit_ratio("eta0"),
        "algebra.mu_scalar_hit_ratio": hit_ratio("_mu_scalar"),
        "cocycle.residual_calls": n("cocycle_residual"),
        "cocycle.value_calls": n("TwoCochain.value"),
        "cocycle.normalize_calls": n("normalize_cocycle"),
        "cocycle.check_box_s": incl.get("check_cocycle_on_box", 0.0),
        "cocycle.self_s": layer_self("cocycle"),
        "density.act_calls": n("density_act"),
        "density.self_s": layer_self("density"),
        "verma.act_calls": n("verma_act"),
        "verma.act_busy_s": incl.get("verma_act", 0.0),
        "verma.self_s": layer_self("verma"),
        "verma.terms_out": extra.get("verma_terms_out", 0),
        "verma.pbw_monomials": extra.get("pbw_monomials", 0),
        "verma.pbw_s": incl.get("pbw_enumerate", 0.0),
        "gvm.act_calls": n("gvm_act"),
        "gvm.self_s": layer_self("gvm"),
        "gvm.rank_tables": n("quotient_dim_level1"),
        "gvm.pairing_entries": extra.get("pairing_entries", 0),
        "linalg.rank_calls": n("rank_scalar_matrix"),
        "linalg.busy_s": incl.get("rank_scalar_matrix", 0.0)
        + incl.get("RationalEchelon.add_row", 0.0),
        "linalg.self_s": layer_self("linalg"),
        "linalg.echelon_rows": extra.get("echelon_rows", 0),
        "verification.triples": extra.get("triples", 0),
        "verification.triples_per_s": _ratio(extra.get("triples", 0), scan_s),
        "verification.scan_s": scan_s,
        "verification.checks": n("check"),
        "cli.commands": cli.get("commands", 0),
        "cli.main_s": cli.get("main_s", 0.0),
        "cli.import_s": cli.get("import_s", 0.0),
        "cli.report_bytes": cli.get("report_bytes", 0),
        "trace.overhead_ratio": overhead_ratio,
        "trace.spans": len(rep["spans"]),
    }
    return m


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------


def _one_pass(runner, checker, workload, seed, size, inputs, trace):
    if workload == "cli":
        return cli_pass(runner, checker, inputs, trace)
    return in_process_pass(runner, workload, seed, size, trace)


def _setup(runner, workload, seed, size):
    if workload == "cli":
        return cli_setup(runner)
    return in_process_setup(runner, workload, seed, size)


def _setups(runner, workload, seed, size, count, cal_s):
    """count set-up seconds, with a reference sample before and after them."""
    cal_s.append(workloads.calibrate())
    raw = [_setup(runner, workload, seed, size) for _ in range(count)]
    cal_s.append(workloads.calibrate())
    return raw


def run(args) -> int:
    start = time.monotonic()
    runner = Runner(start + RUN_LIMIT_S)
    WORK.mkdir(exist_ok=True)
    workload, seed, size = args.workload, args.seed, args.size
    checker = CliChecker() if workload == "cli" else None
    inputs = make_cli_inputs(seed, size) if workload == "cli" else None
    problems = []
    passes = []
    setups = []
    setup_cal = []
    try:
        _setup(runner, workload, seed, size)   # compiles bytecode; not measured
        if args.trace:
            passes.append(_one_pass(runner, checker, workload, seed, size, inputs, False))
            passes.append(_one_pass(runner, checker, workload, seed, size, inputs, True))
        else:
            # set-ups are spread over the run, two before each pass
            begin = time.monotonic()
            while True:
                setups += _setups(runner, workload, seed, size, 2, setup_cal)
                passes.append(_one_pass(runner, checker, workload, seed, size,
                                        inputs, False))
                typical = statistics.median(p.process_s for p in passes)
                if time.monotonic() - begin + typical > args.seconds:
                    break
            if len(setups) < SETUP_PROBES:
                setups += _setups(runner, workload, seed, size,
                                  SETUP_PROBES - len(setups), setup_cal)
    except ChildTimeout:
        problems.append(f"run exceeded {RUN_LIMIT_S:.0f} s")
    finally:
        if inputs is not None:
            inputs["theta_path"].unlink(missing_ok=True)

    attempted = sum(p.attempted for p in passes) or 1
    failures = [f for p in passes for f in p.failures]
    digests = {p.digest for p in passes if p.digest is not None}
    if len(digests) > 1:
        problems.append("results differ between passes"
                        + (" (traced vs untraced)" if args.trace else ""))
    failed = len(failures)

    print(f"workload={workload} seed={seed} size={size} trace={args.trace} "
          f"passes={len(passes)} attempted={attempted} failed={failed}")
    for f in failures[:10] + problems:
        print(f"  FAIL {f}")

    metrics = {}
    if args.trace:
        if len(passes) == 2 and passes[1].trace is not None and passes[0].cal_s:
            untraced, traced = passes
            overhead = _ratio(at_reference_speed(traced.wall_s, traced.cal_s),
                              at_reference_speed(untraced.wall_s, untraced.cal_s))
            values = layer_metrics(traced.trace, traced.cache, overhead)
            for name, unit in PER_LAYER.items():
                metrics[name] = {"value": values[name], "unit": unit}
            zero = [k for k in PREDICTED_NONZERO[workload] if not values[k]]
            if zero:
                problems.append("coverage: predicted nonzero but zero: "
                                + ", ".join(zero))
                print("  FAIL coverage: " + ", ".join(zero), file=sys.stderr)
            (WORK / f"trace_{workload}_{seed}.json").write_text(
                json.dumps(traced.trace))
        else:
            problems.append("traced pass produced no trace")
    elif passes:
        # one speed estimate for the whole run: the mean of every reference
        # sample taken in it; single samples swing with the host's load
        cal_s = setup_cal + [c for p in passes for c in p.cal_s]
        wall = statistics.mean(p.wall_s for p in passes)
        setup = statistics.median(setups)
        print(f"  wall_s {wall:.6g} s raw (mean of {len(passes)} passes); "
              f"setup_s {setup:.6g} s raw (median of {len(setups)} set-ups); "
              f"reference loop {statistics.mean(cal_s) * 1000:.4g} ms "
              f"(mean of {len(cal_s)} samples)")
        metrics = {
            "norm_wall_s": {"value": at_reference_speed(wall, cal_s), "unit": "s"},
            "setup_s": {"value": at_reference_speed(setup, cal_s), "unit": "s"},
            "peak_rss_mib": {"value": max(p.maxrss_kib for p in passes) / 1024.0,
                             "unit": "MiB"},
            "verified_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
        cache = merge_caches(p.cache for p in passes if p.cache) if workload != "cli" else {}
        print(f"  failed_frac   {failed / attempted:.6g} ratio ({failed}/{attempted})")
        for name, snap in sorted(cache.items()):
            total = snap["hits"] + snap["misses"]
            print(f"  cache algebra.{name}: hits={snap['hits']} misses={snap['misses']}"
                  f" hit_ratio={_ratio(snap['hits'], total):.4f}")
    for name, d in metrics.items():
        print(f"  {name:34s} {d['value']:.6g} {d['unit']}")

    # run-level checks (passes agree; in a traced run, coverage) count as
    # operations too, so a problem there can never read as a pass
    run_checks = 2 if args.trace else 1
    failed_total = failed + len(problems)
    attempted_total = max(attempted + run_checks, failed_total)
    correct = failed_total == 0 and bool(passes)
    print(json.dumps({"correct": correct, "attempted": attempted_total,
                      "failed": failed_total, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                        help="work per pass; 'tiny' is for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "solvir" / "__init__.py").is_file():
        print(f"error: solvir sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        # this process and its children share one CPU, so the reference loop
        # runs where the work runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
