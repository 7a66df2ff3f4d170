"""Command line driver: verification suites, bracket evaluation, dimension tables.

Reports are canonical JSON (sorted keys, two-space indent, trailing newline)
and contain no timing or host data, so a fixed (config, seed) pair produces
byte-identical output across runs and across --jobs settings; --jobs is an
execution hint and is deliberately not echoed into reports.  Randomized
suites use Python's random.Random (Mersenne Twister) seeded from --seed.

Each command imports the layers it runs when it runs, so `solvir bracket`
loads scalars and algebra and no other layer.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import __version__
from .errors import BoxTooSmallError, NotACocycleError, ParseError, SolvirError

SUITES = ("jacobi", "cocycle", "density", "verma", "gvm", "all")


class RunConfig:
    """Run settings; given holds the keys set by the config file or a flag,
    as against defaults."""

    __slots__ = ("n", "box", "boxes", "seed", "spec", "out", "jobs", "given")

    def __init__(self, n: int = 2, box: int = 3, boxes: list | None = None,
                 seed: int = 0, spec: dict | None = None, out: str | None = None,
                 jobs: int = 1, given: set | None = None):
        self.n, self.box, self.seed, self.out, self.jobs = n, box, seed, out, jobs
        self.boxes = [] if boxes is None else boxes
        self.spec = {} if spec is None else spec
        self.given = set() if given is None else given

    def validate(self):
        check_rank(self.n)
        if self.box < 1 or any(b < 1 for b in self.boxes):
            raise ValueError("box radii must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def echo(self):
        """Config as embedded in reports; jobs is execution-only."""
        return {
            "n": self.n,
            "box": self.box,
            "boxes": list(self.boxes),
            "seed": self.seed,
            "spec": {k: str(v) for k, v in sorted(self.spec.items())},
        }


def check_rank(n: int) -> int:
    """n, when the scalar kernel has a mu slot for each coordinate of rank n;
    ValueError otherwise."""
    from .scalars import MAX_RANK

    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank n must be in 1..{MAX_RANK}")
    return n


def parse_fraction(text: str):
    """The Fraction that a p/q or decimal text names."""
    # fractions loads decimal; only the commands that read a number pay for it
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_spec(text: str) -> dict:
    """mu1=2/3,mu2=5 -> {'mu1': Fraction(2,3), 'mu2': Fraction(5)}."""
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad specialization entry {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in out:
            raise ValueError(f"specialization key {key!r} listed twice")
        out[key] = parse_fraction(value)
    return out


def parse_boxes(text: str) -> list:
    """Accept '1..6' ranges and comma lists naming at least one radius."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        radii = list(range(int(lo), int(hi) + 1))
    else:
        radii = [int(tok) for tok in text.split(",") if tok.strip()]
    if not radii:
        raise ValueError(f"radius list {text!r} names no radius")
    return radii


# config key -> parser of its text; a flag of the same name overrides the file
CONFIG_KEYS = {"n": int, "box": int, "boxes": parse_boxes, "seed": int,
               "spec": parse_spec, "out": str, "jobs": int}


def load_config_file(path: str) -> dict:
    """Flat key = value lines mirroring the flags; '#' starts a comment.

    A key that is not one of CONFIG_KEYS is an error, so a misspelt key
    cannot be silently ignored.
    """
    values = {}
    with open(path) as f:
        lines = f.read().splitlines()
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} in {path} "
                             f"(known: {', '.join(CONFIG_KEYS)})")
        if key in values:
            raise ValueError(f"config key {key!r} listed twice in {path}")
        values[key] = value
    return values


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, parse in CONFIG_KEYS.items():
        if key in file_values:
            setattr(cfg, key, parse(file_values[key]))
            cfg.given.add(key)
    for key, parse in CONFIG_KEYS.items():
        if getattr(args, key, None) not in (None, ""):
            setattr(cfg, key, parse(getattr(args, key)))
            cfg.given.add(key)
    if getattr(args, "mu1", None):
        if "mu1" in cfg.spec:
            raise ValueError("specialization key 'mu1' listed twice "
                             "(spec and --mu1)")
        cfg.spec["mu1"] = parse_fraction(args.mu1)
    cfg.validate()
    return cfg


def emit(report: dict, out_path: str | None) -> str:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return text


def read_cochain(path: str, cfg: RunConfig):
    """The TwoCochain of a JSON file, whose rank becomes cfg.n; an n given
    by flag or config file must agree with it."""
    from .cocycle import TwoCochain

    with open(path) as f:
        data = json.load(f)
    theta = TwoCochain.from_records(data)
    if "n" in cfg.given and cfg.n != theta.n:
        raise ValueError(f"cochain points of rank {theta.n} do not match "
                         f"--n {cfg.n}")
    cfg.n = check_rank(theta.n)
    return theta


def cmd_verify(args) -> int:
    from .verification import SUITE_KEYS, run_suite

    cfg = build_config(args)
    for key in sorted(cfg.given - SUITE_KEYS[args.suite] - {"out", "jobs"}):
        print(f"warning: --{key} (or config key {key!r}) does not apply to "
              f"verify {args.suite}; the report echoes it unused", file=sys.stderr)
    theta_input = None
    if getattr(args, "input", None):
        if args.suite != "cocycle":
            raise ValueError("--input is only meaningful for the cocycle suite")
        theta_input = read_cochain(args.input, cfg)
    checks = run_suite(args.suite, cfg.n, cfg.box, cfg.seed,
                       boxes=cfg.boxes or None, spec=cfg.spec,
                       theta_input=theta_input)
    checks.sort(key=lambda c: c["id"])
    failed = [c for c in checks if c["status"] != "pass"]
    report = {
        "command": f"verify {args.suite}",
        "version": __version__,
        "config": cfg.echo(),
        "checks": checks,
        "counts": {"pass": len(checks) - len(failed), "fail": len(failed)},
        "status": "pass" if not failed else "fail",
    }
    emit(report, cfg.out)
    return 0 if not failed else 1


def _infer_rank(texts, explicit):
    """The rank shared by every e[...] point in the texts; --n must agree."""
    ranks = sorted({inner.count(",") + 1
                    for text in texts for inner in re.findall(r"e\[([^\]]*)\]", text)})
    if len(ranks) > 1:
        raise ValueError("elements mix points of ranks "
                         + " and ".join(map(str, ranks)))
    if explicit is None:
        if not ranks:
            raise ValueError("rank cannot be inferred; pass --n")
        return check_rank(ranks[0])
    if ranks and ranks[0] != explicit:
        raise ValueError(f"points of rank {ranks[0]} do not match --n {explicit}")
    return check_rank(explicit)


def cmd_bracket(args) -> int:
    from .algebra import element_str, parse_element, vir_bracket

    n = _infer_rank([args.left, args.right], args.n)
    x = parse_element(args.left, n)
    y = parse_element(args.right, n)
    print(element_str(vir_bracket(x, y)))
    return 0


def cmd_dims(args) -> int:
    from .verma import TruncationBox, weight_space_dim_truncated

    cfg = build_config(args)
    for key in ("box", "seed"):
        if key in cfg.given:
            raise ValueError(f"--{key} (or config key {key!r}) does not "
                             f"apply to dims")
    if args.target == "verma":
        if args.kappa is not None:
            raise ValueError("--kappa applies to dims gvm only")
        if args.level is not None:
            if args.shift is not None or cfg.boxes:
                raise ValueError("--level takes neither --shift nor --boxes")
            shift = (-args.level,) + (0,) * (cfg.n - 1)
            sizes = [(max(args.level, 1), max(args.level, 1))]
        else:
            if not args.shift:
                raise ValueError("dims verma needs --shift or --level")
            shift = tuple(int(t) for t in args.shift.split(","))
            if len(shift) != cfg.n:
                raise ValueError(f"shift {shift} does not match rank {cfg.n}")
            sizes = [(N, 2 * N + 1) for N in cfg.boxes or [1, 2, 3, 4]]
        table = [{"N": N, "L": L, "dim": weight_space_dim_truncated(
                      cfg.n, shift, TruncationBox(N, L))} for N, L in sizes]
        canonical_family = (cfg.n >= 2 and shift[0] == -1
                            and not any(shift[1:]))
        report = {
            "command": "dims verma",
            "version": __version__,
            "config": cfg.echo(),
            "n": cfg.n,
            "shift": list(shift),
            "boxes": table,
            "family_lower_bound": table[-1]["N"] if canonical_family else 0,
        }
        emit(report, cfg.out)
        return 0
    # argparse admits only the targets "verma" and "gvm"
    from .density import formal_params
    from .gvm import quotient_dim_level1

    if args.shift is not None or args.level is not None:
        raise ValueError("--shift and --level apply to dims verma only")
    if cfg.n < 2:
        raise ValueError("dims gvm needs rank n >= 2")
    kappa_text = args.kappa or "0"
    kappa = tuple(int(t) for t in kappa_text.split(","))
    if len(kappa) == 1 and cfg.n > 2:
        kappa = kappa * (cfg.n - 1)
    if len(kappa) != cfg.n - 1:
        raise ValueError(f"kappa {kappa} does not match rank {cfg.n}")
    boxes = cfg.boxes or [1, 2, 3, 4]
    result = quotient_dim_level1(cfg.n, kappa, formal_params(cfg.n - 1), boxes)
    report = {"command": "dims gvm", "version": __version__,
              "config": cfg.echo()}
    report.update(result.as_dict())
    emit(report, cfg.out)
    return 0


def cmd_normalize(args) -> int:
    from .cocycle import normalize_cocycle, recognize_eta

    cfg = build_config(args)
    theta = read_cochain(args.input, cfg)
    report = {"command": "normalize", "version": __version__, "config": cfg.echo()}
    try:
        eta, shift = normalize_cocycle(theta, cfg.box)
        a, b = recognize_eta(eta)
    except NotACocycleError as exc:
        report.update(status="fail", error="not_a_cocycle",
                      failing_triple=[list(p) for p in exc.triple],
                      residual=str(exc.residual))
    else:
        report.update(status="pass", shift=shift.to_records(),
                      eta=[[list(alpha), str(value)]
                           for alpha, value in sorted(eta.values.items())],
                      recognized={"a": str(a), "b": str(b)})
    emit(report, cfg.out)
    return 0 if report["status"] == "pass" else 1


def schema_path() -> str:
    return os.path.join(os.path.dirname(__file__), "schema", "report.schema.json")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvir",
        description="Exact checks and computations for the solenoidal "
                    "Virasoro algebra")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None, help="lattice rank")
        p.add_argument("--box", type=int, default=None, help="truncation radius")
        p.add_argument("--boxes", type=str, default=None,
                       help="radius list: '1..6' or '2,4,6'")
        p.add_argument("--seed", type=int, default=None, help="PRNG seed")
        p.add_argument("--spec", type=str, default=None,
                       help="specialization map, e.g. mu1=2/3,mu2=5")
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value config file")
        p.add_argument("--out", type=str, default=None, help="output path")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker hint; never changes output bytes")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--input", type=str, default=None,
                          help="two-cochain JSON file (cocycle suite)")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_bracket = sub.add_parser("bracket", help="bracket of two elements")
    p_bracket.add_argument("left")
    p_bracket.add_argument("right")
    p_bracket.add_argument("--n", type=int, default=None)
    p_bracket.set_defaults(func=cmd_bracket)

    p_dims = sub.add_parser("dims", help="weight dimension and rank tables")
    p_dims.add_argument("target", choices=("verma", "gvm"))
    p_dims.add_argument("--shift", type=str, default=None,
                        help="verma weight shift, e.g. -1,0")
    p_dims.add_argument("--level", type=int, default=None,
                        help="rank-1 verma level")
    p_dims.add_argument("--kappa", type=str, default=None,
                        help="gvm weight index, e.g. 0 or 1,-1")
    p_dims.add_argument("--mu1", type=str, default=None,
                        help="record a mu1 specialization (dimensions are "
                             "independent of it)")
    common(p_dims)
    p_dims.set_defaults(func=cmd_dims)

    p_norm = sub.add_parser("normalize", help="normalize a two-cochain file")
    p_norm.add_argument("--input", type=str, required=True)
    common(p_norm)
    p_norm.set_defaults(func=cmd_normalize)
    return parser


def _merge_negative_values(argv):
    """Rewrite '--shift -1,0' as '--shift=-1,0' so argparse accepts it."""
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--shift", "--kappa") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


def main(argv=None) -> int:
    parser = make_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_merge_negative_values(argv))
    try:
        return args.func(args)
    except (ValueError, ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoxTooSmallError as exc:
        print(f"error: --box too small: {exc}", file=sys.stderr)
        return 2
    except SolvirError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
