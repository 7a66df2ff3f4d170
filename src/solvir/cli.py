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
import sys

from . import __version__
from .errors import BoxTooSmallError, NotACocycleError, ParseError, SolvirError

# suite -> the config keys it reads, which run_suite passes it, and no other
SUITES = {"jacobi": ("n", "box", "seed"), "cocycle": ("n", "box", "seed"),
          "density": ("n", "box", "seed", "spec"), "verma": ("seed",),
          "gvm": ("n", "seed", "boxes"), "all": ("n", "box", "seed", "spec")}


class RunConfig:
    """Run settings, at their defaults until build_config sets them; given
    holds the keys set by the config file or a flag."""

    __slots__ = ("n", "box", "boxes", "seed", "spec", "out", "jobs", "given")

    def __init__(self):
        self.n, self.box, self.boxes, self.seed = 2, 3, [], 0
        self.spec, self.out, self.jobs, self.given = {}, None, 1, set()

    def validate(self):
        check_rank(self.n)
        unknown = sorted(set(self.spec) - {"a", "b", "lambda", "c"}
                         - {f"mu{i}" for i in range(1, self.n + 1)})
        if unknown:
            raise ValueError(f"specialization key {unknown[0]!r} is not one "
                             f"of mu1 to mu{self.n}, a, b, lambda, c")
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


def parse_int(text: str, flag: str) -> int:
    """The int that an entry of flag's value names; a ValueError that names
    flag and the entry otherwise."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag} entry {text!r} is not an integer") from None


def parse_ints(text: str, flag: str) -> tuple:
    """The ints of a comma list given to flag, such as --shift -1,0."""
    return tuple(parse_int(tok, flag) for tok in text.split(","))


def parse_boxes(text: str) -> list:
    """Accept '1..6' ranges and comma lists naming at least one radius."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        radii = list(range(parse_int(lo, "--boxes"), parse_int(hi, "--boxes") + 1))
    else:
        radii = [parse_int(tok, "--boxes") for tok in text.split(",") if tok.strip()]
    if not radii:
        raise ValueError(f"radius list {text!r} names no radius")
    return radii


def parse_setting_int(key: str):
    """Parse the integer setting key, from a flag or a config file; a
    ValueError names key."""
    return lambda text: parse_int(text, f"--{key} (or config key {key!r})")


# config key -> parser of its text; a flag of the same name overrides the file
CONFIG_KEYS = {"n": parse_setting_int("n"), "box": parse_setting_int("box"),
               "boxes": parse_boxes, "seed": parse_setting_int("seed"),
               "spec": parse_spec, "out": str, "jobs": parse_setting_int("jobs")}


def load_config_file(path: str) -> dict:
    """Flat key = value lines mirroring the flags; '#' starts a comment.

    A key that is not one of CONFIG_KEYS is an error, so a misspelt key
    cannot be silently ignored; so is a key with no value, which would
    otherwise read as its default.
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
        if not value:
            raise ValueError(f"config key {key!r} has no value in {path}")
        values[key] = value
    return values


def build_config(args, reads, name) -> RunConfig:
    """The validated settings of args and its config file.  A key given
    besides out and jobs that is not in reads, the keys the command reads,
    does not apply to it: an error, but under verify a warning line, and
    the report echoes the value unused.  The messages call the command name.
    An empty flag value, such as --boxes=, is an error, never the default."""
    empty = sorted(key for key, value in vars(args).items() if value == "")
    if empty:
        raise ValueError(f"--{empty[0]} needs a value")
    cfg = RunConfig()
    texts = load_config_file(args.config) if getattr(args, "config", None) else {}
    texts.update((key, getattr(args, key)) for key in CONFIG_KEYS
                 if getattr(args, key, None) is not None)
    for key, parse in CONFIG_KEYS.items():
        if key in texts:
            setattr(cfg, key, parse(texts[key]))
            cfg.given.add(key)
    if getattr(args, "mu1", None) is not None:
        if "mu1" in cfg.spec:
            raise ValueError("specialization key 'mu1' listed twice "
                             "(spec and --mu1)")
        cfg.spec["mu1"] = parse_fraction(args.mu1)
    cfg.validate()
    for key in sorted(cfg.given.difference(reads, ("out", "jobs"))):
        unread = f"--{key} (or config key {key!r}) does not apply to {name}"
        if args.cmd != "verify":
            raise ValueError(unread)
        print(f"warning: {unread}; the report echoes it unused", file=sys.stderr)
    return cfg


def emit(command: str, cfg: RunConfig, **fields):
    """Write the report of command under cfg, with fields, to cfg.out or
    stdout."""
    report = {"command": command, "version": __version__, "config": cfg.echo(),
              **fields}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


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
    from .verification import run_suite, suite_cocycle_input

    if args.input and args.suite != "cocycle":
        raise ValueError("--input is only meaningful for the cocycle suite")
    if args.input:
        cfg = build_config(args, ("n", "box"), "verify cocycle --input")
        checks = suite_cocycle_input(read_cochain(args.input, cfg), cfg.box)
    else:
        keys = SUITES[args.suite]
        cfg = build_config(args, keys, f"verify {args.suite}")
        checks = run_suite(args.suite, **{key: getattr(cfg, key) for key in keys})
    checks.sort(key=lambda c: c["id"])
    failed = sum(c["status"] != "pass" for c in checks)
    emit(f"verify {args.suite}", cfg, checks=checks,
         counts={"pass": len(checks) - failed, "fail": failed},
         status="fail" if failed else "pass")
    return 1 if failed else 0


def _infer_rank(ranks, explicit):
    """The one rank in the sorted ranks of the e[...] points; --n must agree."""
    if len(ranks) > 1:
        raise ValueError("elements mix points of ranks "
                         + " and ".join(map(str, ranks)))
    if explicit is None:
        if not ranks:
            raise ValueError("rank cannot be inferred; pass --n")
        return check_rank(ranks[0])
    explicit = parse_int(explicit, "--n")
    if ranks and ranks[0] != explicit:
        raise ValueError(f"points of rank {ranks[0]} do not match --n {explicit}")
    return check_rank(explicit)


def cmd_bracket(args) -> int:
    from .algebra import element_str, parse_element, point_ranks, vir_bracket

    n = _infer_rank(sorted(point_ranks(args.left) | point_ranks(args.right)), args.n)
    x = parse_element(args.left, n)
    y = parse_element(args.right, n)
    print(element_str(vir_bracket(x, y)))
    return 0


def cmd_dims(args) -> int:
    from .verma import TruncationBox, weight_space_dim_truncated

    cfg = build_config(args, {"n", "boxes", "spec"}, "dims")
    boxes = cfg.boxes or [1, 2, 3, 4]
    if args.target == "verma":
        if args.kappa is not None:
            raise ValueError("--kappa applies to dims gvm only")
        if args.level is not None:
            if args.shift is not None or cfg.boxes:
                raise ValueError("--level takes neither --shift nor --boxes")
            level = parse_int(args.level, "--level")
            shift = (-level,) + (0,) * (cfg.n - 1)
            sizes = [(max(level, 1), max(level, 1))]
        else:
            if not args.shift:
                raise ValueError("dims verma needs --shift or --level")
            shift = parse_ints(args.shift, "--shift")
            if len(shift) != cfg.n:
                raise ValueError(f"shift {shift} does not match rank {cfg.n}")
            sizes = [(N, 2 * N + 1) for N in boxes]
        table = [{"N": N, "L": L, "dim": weight_space_dim_truncated(
                      cfg.n, shift, TruncationBox(N, L))} for N, L in sizes]
        canonical_family = (cfg.n >= 2 and shift[0] == -1
                            and not any(shift[1:]))
        emit("dims verma", cfg, n=cfg.n, shift=list(shift), boxes=table,
             family_lower_bound=table[-1]["N"] if canonical_family else 0)
        return 0
    # argparse admits only the targets "verma" and "gvm"
    from .density import formal_params
    from .gvm import quotient_dim_level1

    if args.shift is not None or args.level is not None:
        raise ValueError("--shift and --level apply to dims verma only")
    if cfg.n < 2:
        raise ValueError("dims gvm needs rank n >= 2")
    kappa_text = "0" if args.kappa is None else args.kappa
    kappa = parse_ints(kappa_text, "--kappa")
    if len(kappa) == 1 and cfg.n > 2:
        kappa = kappa * (cfg.n - 1)
    if len(kappa) != cfg.n - 1:
        raise ValueError(f"kappa {kappa} does not match rank {cfg.n}")
    result = quotient_dim_level1(cfg.n, kappa, formal_params(cfg.n - 1), boxes)
    emit("dims gvm", cfg, **result.as_dict())
    return 0


def cmd_normalize(args) -> int:
    from .cocycle import normalize_cocycle, recognize_eta

    cfg = build_config(args, {"n", "box"}, "normalize")
    theta = read_cochain(args.input, cfg)
    try:
        eta, shift = normalize_cocycle(theta, cfg.box)
        a, b = recognize_eta(eta)
    except NotACocycleError as exc:
        emit("normalize", cfg, status="fail", error="not_a_cocycle",
             failing_triple=[list(p) for p in exc.triple],
             residual=str(exc.residual))
        return 1
    emit("normalize", cfg, status="pass", shift=shift.to_records(),
         eta=[[list(alpha), str(value)]
              for alpha, value in sorted(eta.values.items())],
         recognized={"a": str(a), "b": str(b)})
    return 0


def schema_path() -> str:
    return os.path.join(os.path.dirname(__file__), "schema", "report.schema.json")


class Parser(argparse.ArgumentParser):
    """A parser, and its subparsers' class, whose usage error is one line."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="solvir",
        description="Exact checks and computations for the solenoidal "
                    "Virasoro algebra")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--n", default=None, help="lattice rank")
        p.add_argument("--box", default=None, help="truncation radius")
        p.add_argument("--boxes", type=str, default=None,
                       help="radius list: '1..6' or '2,4,6'")
        p.add_argument("--seed", default=None, help="PRNG seed")
        p.add_argument("--spec", type=str, default=None,
                       help="specialization map, e.g. mu1=2/3,mu2=5")
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value config file")
        p.add_argument("--out", type=str, default=None, help="output path")
        p.add_argument("--jobs", default=None,
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
    p_bracket.add_argument("--n", default=None)
    p_bracket.set_defaults(func=cmd_bracket)

    p_dims = sub.add_parser("dims", help="weight dimension and rank tables")
    p_dims.add_argument("target", choices=("verma", "gvm"))
    p_dims.add_argument("--shift", type=str, default=None,
                        help="verma weight shift, e.g. -1,0")
    p_dims.add_argument("--level", default=None,
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
    """Rewrite '--shift -1,0' as '--shift=-1,0', and a bracket element such
    as '-e[1]' as ' -e[1]', which the grammar reads alike, so argparse takes
    neither value for an option; '--' options and '-h' stay options."""
    merged = []
    skip = False
    bracket = argv[:1] == ["bracket"]
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--shift", "--kappa") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            skip = True
        elif bracket and tok[:1] == "-" and tok[1:2] != "-" and tok != "-h":
            merged.append(" " + tok)
        else:
            merged.append(tok)
    return merged


def main(argv=None) -> int:
    parser = make_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_merge_negative_values(argv))
    try:
        return args.func(args)
    except (ValueError, OverflowError, ParseError, OSError) as exc:
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
