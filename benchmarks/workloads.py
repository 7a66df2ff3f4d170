"""The in-process workloads (scan, normalize, modules) and their checks.

Each pass runs in a fresh interpreter, so solvir's lru caches start empty as
they do for every solvir invocation.  Run as a script, this module is that
child process:

    python3 benchmarks/workloads.py --workload scan --seed 1 --size full \
        --mode pass --trace 0 --t0 <time.time() of the parent's spawn>

It prints one JSON line.  ``--mode setup`` stops after import and input
generation and reports only ``setup_s``; ``--mode pass`` also runs the timed
phase, checks every result exactly and reports the operations' total
seconds, the reference-loop samples taken between operations, failures,
lru-cache deltas and a digest of the results.  With ``--trace 1`` the
tracer's counters and spans are written to ``--trace-out``.

Inputs depend only on (workload, seed, size); solvir receives only them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction

# work per pass; "tiny" is for the benchmark's own tests
SIZES = {
    "full": {
        "scan": {"scans": [("jacobi_full_scan", 2, 2),
                           ("jacobi_zero_sum_scan", 3, 2),
                           ("cocycle_full_scan", 2, 2),
                           ("cocycle_zero_sum_scan", 2, 3)],
                 "general_triples": 100, "general_radius": 3},
        # support sizes are fixed per pass; seeds vary the points and values
        "normalize": {"sizes": [2, 3, 4, 5] * 3, "box": 2},
        "modules": {"kappas": [0, 1, -1], "radii": list(range(1, 9)),
                    "word_length": 10, "dims_boxes": list(range(1, 9))},
    },
    "tiny": {
        "scan": {"scans": [("jacobi_full_scan", 2, 1),
                           ("jacobi_zero_sum_scan", 3, 1),
                           ("cocycle_full_scan", 1, 2),
                           ("cocycle_zero_sum_scan", 2, 1)],
                 "general_triples": 5, "general_radius": 2},
        "normalize": {"sizes": [2], "box": 2},
        "modules": {"kappas": [0], "radii": [1, 2],
                    "word_length": 4, "dims_boxes": [1, 2, 3]},
    },
}

# exact dims of the rank-2 weight space at shift (-1, 0), box (N, 2N+1)
VERMA_DIMS = [2, 4, 7, 12, 19, 30, 45, 67]
GVM_RANK = 3
# lex-negative rank-2 points of radius 1 (the word letters), and the generators
# acting on the words: every radius-1 point except 0 (acts by a scalar) and
# (0,-1) (only appends).  Each pass straightens one seeded word per acting
# generator, so every seed does work of the same shape; a freely drawn
# generator made single checks vary from milliseconds to seconds.
WORD_LETTERS = [(-1, -1), (-1, 0), (-1, 1), (0, -1)]
ACTING = [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, -1), (1, 0), (1, 1)]
# (0,-1) is the largest lex-negative point: it appends to any normal word
APPENDER = (0, -1)

IN_PROCESS = ("scan", "normalize", "modules")
# seconds of operations between two samples of the reference loop
CAL_EVERY_S = 0.2


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"solvir-bench:{workload}:{seed}")


def full_scan_count(n, box):
    return (2 * box + 1) ** (3 * n)


def zero_sum_count(n, box):
    # pairs (a, b) per coordinate with |a + b| <= box
    return (3 * box * box + 3 * box + 1) ** n


def random_element(rng, n, radius):
    """1-3 basis terms with small integer coefficients, sometimes central."""
    from solvir.algebra import basis_element, central_element

    def point():
        return tuple(rng.randint(-radius, radius) for _ in range(n))

    out = basis_element(n, point()).scale(rng.randint(1, 4))
    for _ in range(rng.randint(0, 2)):
        out = out + basis_element(n, point()).scale(rng.randint(-4, 4))
    if rng.random() < 0.3:
        out = out + central_element(n).scale(rng.randint(-3, 3))
    return out


def random_one_cochain_support(rng, size, radius):
    """size distinct points of the rank-2 box with rational values."""
    pts = [(a, b) for a in range(-radius, radius + 1)
           for b in range(-radius, radius + 1)]
    points = rng.sample(pts, size)
    return {p: Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4)) for p in points}


# two fixed sparse polynomials {exponent tuple: coefficient} for reference_loop
_REF_P = {(i, j, k): Fraction(i - j + 1, k + 2)
          for i in range(4) for j in range(4) for k in range(3)}
_REF_Q = {(i, j, 0): 7 * i - j for i in range(5) for j in range(5)}


def reference_loop():
    """Fixed pure-Python work, about 30 ms: sparse polynomial products.

    It has the shape of solvir's hot path (dicts keyed by exponent tuples,
    Fraction and int coefficients) but calls nothing from solvir, so a change
    to solvir never changes it.  Timed between operations, it gauges how fast
    the machine runs at that moment.
    """
    for _ in range(3):
        out = {}
        for m1, c1 in _REF_P.items():
            for m2, c2 in _REF_Q.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
    return out


def calibrate() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


# --------------------------------------------------------------------------
# input generation (part of setup)
# --------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    rng = rng_for(workload, seed)
    cfg = SIZES[size][workload]
    if workload == "scan":
        r = cfg["general_radius"]
        triples = [tuple(random_element(rng, 2, r) for _ in range(3))
                   for _ in range(cfg["general_triples"])]
        return {"cfg": cfg, "triples": triples}
    if workload == "normalize":
        from solvir.cocycle import OneCochain, canonical_cochain, coboundary
        from solvir.scalars import Scalar

        sizes = list(cfg["sizes"])
        rng.shuffle(sizes)
        cochains = []
        for k in sizes:
            support = random_one_cochain_support(rng, k, cfg["box"])
            f = OneCochain(2, {p: Scalar.from_rational(v) for p, v in support.items()})
            cochains.append((canonical_cochain(2) + coboundary(f), coboundary(f)))
        return {"cfg": cfg, "cochains": cochains}
    if workload == "modules":
        from solvir.verma import PBWMonomial

        words = [PBWMonomial(2, [rng.choice(WORD_LETTERS)
                                 for _ in range(cfg["word_length"])])
                 for _ in ACTING]
        return {"cfg": cfg, "words": words}
    raise ValueError(f"unknown in-process workload {workload!r}")


# --------------------------------------------------------------------------
# timed phase
# --------------------------------------------------------------------------


class Outcome:
    """Operations attempted and failed, with a short reason for each miss.

    Before an operation, once CAL_EVERY_S seconds of operations have run
    since the last sample, the reference loop is timed; its samples lie
    outside every operation's time.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.results = []   # (name, value), digested after timing
        self.wall_s = 0.0   # sum of the operations' seconds
        self.cal_s = [calibrate()]
        self.since_cal = 0.0

    def op(self, name, fn, tracer=None):
        if self.since_cal >= CAL_EVERY_S:
            self.cal_s.append(calibrate())
            self.since_cal = 0.0
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                ok, result = fn()
            else:
                with tracer.span("op." + name):
                    ok, result = fn()
        except Exception as exc:  # a raising operation is a counted failure
            ok, result = False, "raised"
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}"[:300])
        else:
            if not ok:
                self.failures.append(f"{name}: wrong result")
        secs = time.perf_counter() - start
        self.wall_s += secs
        self.since_cal += secs
        self.results.append((name, result))


def run_scan(inputs, out: Outcome, tracer=None):
    from solvir.algebra import jacobi_residual
    from solvir import verification as ver

    for name, n, box in inputs["cfg"]["scans"]:
        expected = (full_scan_count if "full" in name else zero_sum_count)(n, box)

        def go(fn=getattr(ver, name), n=n, box=box, expected=expected):
            count, failures = fn(n, box)
            return count == expected and not failures, (count, failures)
        out.op(f"{name}({n},{box})", go, tracer)
    for i, (x, y, z) in enumerate(inputs["triples"]):
        def go(x=x, y=y, z=z):
            res = jacobi_residual(x, y, z)
            return res.is_zero(), res
        out.op(f"jacobi_residual[{i}]", go, tracer)


def run_normalize(inputs, out: Outcome, tracer=None):
    from solvir.cocycle import normalize_cocycle, recognize_eta
    from solvir.scalars import Scalar

    twelfth = Scalar.from_rational(Fraction(1, 12))
    box = inputs["cfg"]["box"]
    for i, (with_c0, without_c0) in enumerate(inputs["cochains"]):
        for tag, theta, expected in (("c0+df", with_c0, twelfth),
                                     ("df", without_c0, Scalar.from_rational(0))):
            def go(theta=theta, expected=expected):
                eta, shift = normalize_cocycle(theta, box)
                a, b = recognize_eta(eta)
                return a == expected, (a, b, eta, shift)
            out.op(f"normalize[{i}]/{tag}", go, tracer)


def run_modules(inputs, out: Outcome, tracer=None):
    from solvir.algebra import basis_element, vir_bracket
    from solvir.density import formal_params
    from solvir.gvm import quotient_dim_level1
    from solvir.scalars import ONE
    from solvir.verma import TruncationBox, VermaVector, verma_act, \
        weight_space_dim_truncated

    cfg = inputs["cfg"]
    for kappa in cfg["kappas"]:
        def go(kappa=kappa):
            report = quotient_dim_level1(2, (kappa,), formal_params(1), cfg["radii"])
            ranks = [entry["rank"] for entry in report.boxes]
            return ranks == [GVM_RANK] * len(cfg["radii"]), ranks
        out.op(f"quotient_dim_level1(kappa={kappa})", go, tracer)

    appender = basis_element(2, APPENDER)
    for alpha, word in zip(ACTING, inputs["words"]):
        def go(alpha=alpha, word=word):
            # x.(y.v) - y.(x.v) == [x, y].v with y appending to every word
            x = basis_element(2, alpha)
            v = VermaVector(2, {word: ONE})
            xv = verma_act(x, v)
            lhs = verma_act(x, verma_act(appender, v)) - verma_act(appender, xv)
            return lhs == verma_act(vir_bracket(x, appender), v), xv
        out.op(f"module_axiom(alpha={alpha})", go, tracer)

    boxes = cfg["dims_boxes"]

    def dims():
        table = [weight_space_dim_truncated(2, (-1, 0), TruncationBox(N, 2 * N + 1))
                 for N in boxes]
        return table == VERMA_DIMS[:len(boxes)], table
    out.op("weight_space_dims", dims, tracer)


RUNNERS = {"scan": run_scan, "normalize": run_normalize, "modules": run_modules}


def _canonical(value):
    """Deterministic text for results, used only for the digest."""
    from solvir.cocycle import EtaTable, OneCochain
    from solvir.verma import VermaVector

    if isinstance(value, VermaVector):
        return ";".join(f"{m.word}:{c}" for m, c in sorted(value.terms.items()))
    if isinstance(value, EtaTable):
        return ";".join(f"{k}:{v}" for k, v in sorted(value.values.items()))
    if isinstance(value, OneCochain):
        return json.dumps(value.to_records())
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    return str(value)


def digest(results) -> str:
    h = hashlib.sha256()
    for name, value in results:
        h.update(name.encode())
        h.update(_canonical(value).encode())
    return h.hexdigest()


def run_pass(workload: str, inputs: dict, tracer=None) -> dict:
    """Run the timed phase; returns counts, wall time and cache deltas."""
    from tracer import cache_delta, cache_snapshot

    out = Outcome()
    before = cache_snapshot()
    if tracer is None:
        RUNNERS[workload](inputs, out)
    else:
        with tracer.span("pass." + workload):
            RUNNERS[workload](inputs, out, tracer)
    out.cal_s.append(calibrate())
    return {"wall_s": out.wall_s,
            "cal_s": out.cal_s, "attempted": out.attempted,
            "failures": out.failures,
            "cache": cache_delta(before, cache_snapshot()),
            "digest": digest(out.results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=IN_PROCESS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--mode", default="pass", choices=("setup", "pass"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--t0", type=float, default=None,
                        help="parent's time.time() at spawn, for setup_s")
    args = parser.parse_args(argv)

    import solvir  # noqa: F401  (part of setup)

    inputs = make_inputs(args.workload, args.seed, args.size)
    setup_s = time.time() - args.t0 if args.t0 is not None else None
    record = {"setup_s": setup_s}
    if args.mode == "pass":
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(f"{args.workload}:{args.seed}")
            tracer.install()
        record.update(run_pass(args.workload, inputs, tracer))
        if tracer is not None:
            with open(args.trace_out, "w") as fh:
                json.dump(tracer.report(), fh)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
