"""Per-layer counters and spans for a traced benchmark pass.

The tracer wraps solvir's entry points from outside the package: it rebinds
every reference to a wrapped function in every ``solvir`` module (names
brought in with ``from .x import y`` included) and replaces methods in the
class dictionaries.  lru-cached functions are never wrapped; their hit rates
come from ``cache_info()`` deltas instead (see ``cache_snapshot``).

Two kinds of wrapper exist:

* coarse calls (scans, normalize_cocycle, quotient_dim_level1,
  rank_scalar_matrix, pbw_enumerate, cli.main, suites) each record one span
  (id, name, start, end, parent id, workload id);
* hot calls (Scalar/Polynomial operators, vir_bracket, TwoCochain.value,
  verma_act, gvm_act, ...) are aggregated into per-parent counters with
  call count, inclusive time and self time, never one span per call.

Self time is a call's duration minus the time covered by wrapped calls made
inside it.  Everything stays in memory until ``report()`` is called.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (module, qualified name) of coarse calls: one span each
COARSE = [
    ("verification", "jacobi_full_scan"),
    ("verification", "jacobi_zero_sum_scan"),
    ("verification", "cocycle_full_scan"),
    ("verification", "cocycle_zero_sum_scan"),
    ("verification", "run_suite"),
    ("verification", "suite_jacobi"),
    ("verification", "suite_cocycle"),
    ("verification", "suite_density"),
    ("verification", "suite_verma"),
    ("verification", "suite_gvm"),
    ("cocycle", "normalize_cocycle"),
    ("cocycle", "h2_rank_experiment"),
    ("gvm", "quotient_dim_level1"),
    ("linalg", "rank_scalar_matrix"),
    ("verma", "pbw_enumerate"),
]

# (module, qualified name) of hot calls: aggregated counters only
HOT = [
    ("scalars", "Scalar.__add__"),
    ("scalars", "Scalar.__radd__"),
    ("scalars", "Scalar.__sub__"),
    ("scalars", "Scalar.__rsub__"),
    ("scalars", "Scalar.__mul__"),
    ("scalars", "Scalar.__rmul__"),
    ("scalars", "Scalar.__neg__"),
    ("scalars", "Scalar.__pow__"),
    ("scalars", "Scalar.div_form"),
    ("scalars", "Polynomial.__add__"),
    ("scalars", "Polynomial.__sub__"),
    ("scalars", "Polynomial.__mul__"),
    ("scalars", "Polynomial.__rmul__"),
    ("scalars", "Polynomial.__pow__"),
    ("scalars", "Polynomial.exact_div"),
    ("scalars", "mu_poly"),
    ("algebra", "vir_bracket"),
    ("algebra", "jacobi_residual"),
    ("cocycle", "cocycle_residual"),
    ("cocycle", "check_cocycle_on_box"),
    ("cocycle", "canonical_cocycle"),
    ("cocycle", "recognize_eta"),
    ("cocycle", "TwoCochain.value"),
    ("density", "density_act"),
    ("verma", "verma_act"),
    ("gvm", "gvm_act"),
    ("linalg", "rank_polynomial_matrix"),
    ("linalg", "RationalEchelon.add_row"),
    ("verification", "check"),
]

# lru caches read through cache_info(); never wrapped
CACHES = ("eta0", "_mu_scalar", "_basis_bracket_terms")


def _resolve(modules, module, qualname):
    obj = modules[module]
    for part in qualname.split("."):
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _solvir_modules():
    """solvir's imported modules by short name; the package itself is ''."""
    return {name[len("solvir."):]: mod for name, mod in sys.modules.items()
            if (name == "solvir" or name.startswith("solvir.")) and mod is not None}


def cache_snapshot():
    """hits/misses of the algebra lru caches, as plain ints."""
    algebra = sys.modules["solvir.algebra"]
    out = {}
    for name in CACHES:
        info = getattr(algebra, name).cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses}
    return out


def cache_delta(before, after):
    return {name: {k: after[name][k] - before[name][k] for k in ("hits", "misses")}
            for name in after}


class Tracer:
    """Spans and per-parent counters for one workload pass."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.origin = perf()
        self.spans = []            # [id, name, start, end, parent id, workload id]
        self.stack = []            # per active wrapped call: [child seconds]
        self.parent = [None, "root"]   # innermost open span: [id, name]
        self.layer = {}            # key -> layer (module name)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)   # outermost activations only
        self.self_s = defaultdict(float)
        self.by_parent = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        self.extra = defaultdict(int)
        self.depth = defaultdict(int)
        self.originals = {}        # key -> original callable

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, key, fn, coarse, note=None, after=None):
        stack, depth = self.stack, self.depth
        calls, incl, self_s, by_parent = self.calls, self.incl, self.self_s, self.by_parent
        tracer = self

        def wrapper(*args, **kwargs):
            if note is not None:
                note(args)
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            saved = tracer.parent
            if coarse:
                span_id = len(tracer.spans)
                span = [span_id, key, 0.0, 0.0, saved[0], tracer.workload_id]
                tracer.spans.append(span)
                tracer.parent = [span_id, key]
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                depth[key] -= 1
                if coarse:
                    span[2] = start - tracer.origin
                    span[3] = end - tracer.origin
                    tracer.parent = saved
                own = dur - frame[0]
                calls[key] += 1
                self_s[key] += own
                if not depth[key]:
                    incl[key] += dur
                agg = by_parent[saved[1]][key]
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    # -- observers for derived counters ---------------------------------------

    def _note_add(self, args):
        a, b = args
        if type(b) is type(a) and a.num.t and b.num.t and a.forms != b.forms:
            self.extra["add_forms_mismatch"] += 1

    def _note_pmul(self, args):
        a, b = args
        t = getattr(b, "t", None)
        if t is not None:
            self.extra["poly_mul_term_pairs"] += len(a.t) * len(t)

    def _after_exact_div(self, args, result):
        if result is not None:
            self.extra["exact_div_hits"] += 1

    def _after_terms(self, args, result):
        self.extra["verma_terms_out"] += len(result.terms)

    def _after_pbw(self, args, result):
        self.extra["pbw_monomials"] += len(result)

    def _after_scan(self, args, result):
        self.extra["triples"] += result[0]

    def _note_rank(self, args):
        rows = args[0]
        self.extra["echelon_rows"] += len(rows)
        self.extra["pairing_entries"] += len(rows) * (len(rows[0]) if rows else 0)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every entry point and rebind it wherever solvir refers to it."""
        for module, _ in COARSE + HOT:
            importlib.import_module("solvir." + module)
        modules = _solvir_modules()
        notes = {
            "Scalar.__add__": (self._note_add, None),
            "Scalar.__radd__": (self._note_add, None),
            "Polynomial.__mul__": (self._note_pmul, None),
            "Polynomial.__rmul__": (self._note_pmul, None),
            "Polynomial.exact_div": (None, self._after_exact_div),
            "verma_act": (None, self._after_terms),
            "pbw_enumerate": (None, self._after_pbw),
            "rank_scalar_matrix": (self._note_rank, None),
        }
        for name in ("jacobi_full_scan", "jacobi_zero_sum_scan",
                     "cocycle_full_scan", "cocycle_zero_sum_scan"):
            notes[name] = (None, self._after_scan)
        replace = {}
        for coarse, table in ((True, COARSE), (False, HOT)):
            for module, qualname in table:
                fn = _resolve(modules, module, qualname)
                note, after = notes.get(qualname, (None, None))
                wrapper = self._wrap(qualname, fn, coarse, note, after)
                self.layer[qualname] = module
                self.originals[qualname] = fn
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    setattr(getattr(modules[module], cls_name), meth, wrapper)
                else:
                    replace[id(fn)] = wrapper
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        self.check_coverage()

    def check_coverage(self):
        """Raise if any solvir module still reaches an unwrapped original."""
        modules = _solvir_modules()
        originals = {id(fn): key for key, fn in self.originals.items()}
        stale = []
        for mod_name, mod in modules.items():
            for name, value in vars(mod).items():
                if id(value) in originals:
                    stale.append(f"{mod_name}.{name}")
        for key, fn in self.originals.items():
            if "." in key:
                module = self.layer[key]
                cls_name, meth = key.split(".")
                current = getattr(modules[module], cls_name).__dict__[meth]
                if current is fn:
                    stale.append(f"{module}.{key}")
        if stale:
            raise RuntimeError("tracer left unwrapped references: " + ", ".join(stale))

    # -- output ---------------------------------------------------------------

    def report(self) -> dict:
        return {
            "layer": dict(self.layer),
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_s),
            "extra": dict(self.extra),
            "by_parent": {p: {k: list(v) for k, v in d.items()}
                          for p, d in self.by_parent.items()},
            "spans": [list(s) for s in self.spans],
        }


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.frame = [0.0]
        t.stack.append(self.frame)
        self.saved = t.parent
        self.span = [len(t.spans), self.name, 0.0, 0.0, self.saved[0], t.workload_id]
        t.spans.append(self.span)
        t.parent = [self.span[0], self.name]
        self.start = perf()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = perf()
        t.stack.pop()
        if t.stack:
            t.stack[-1][0] += end - self.start
        self.span[2] = self.start - t.origin
        self.span[3] = end - t.origin
        t.parent = self.saved
        return False
