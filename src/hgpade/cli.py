"""Command-line front end: build, verify, wronskian, criterion, min-beta,
eval, suite.

Reports are bit-stable: rationals as canonical "num/den" strings, floats via
shortest round-trip repr, keys sorted, one trailing newline.  The same config
and seed always produce byte-identical report files; wall-clock timings only
ever appear in the human text format.

Exit codes: 0 all verdicts pass; 1 parse/input/precision problems (including
a criterion that fails to certify); 2 violated hypothesis flags, named; 3 a
certified-nonzero quantity evaluated to zero (theory violation).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import Place, format_rational, parse_place, parse_rational
from .criterion import MIN_FIT_SIZES, Instance, measure, min_beta
from .errors import HgpadeError, InvalidInput, RationalParseError, StepBudgetExceeded
from .numerics import eval_F_family
from .pade import PadeSystem, build_system, verify_system
from .polyops import HypergeometricSpec
from .suite import SUITE_SEED, run_suite
from .wronskian import certify_nonvanishing

COMMANDS = ("build", "verify", "wronskian", "criterion", "min-beta", "eval", "suite")

# eval's work grows quadratically in the precision (4-6 s at 8192 bits for
# r = 3, z = 1/2 on a 2-core Xeon), and its decimal output must stay under
# Python's int-to-str digit limit
MAX_BITS = 8192

# the series and remainder sums start their stop tests only past the largest
# |parameter| and budget their steps from there, so the work grows with the
# parameters' size: at numerators near 10^3 a `criterion` run takes seconds,
# near 10^4 it did not end within 100 s (2-core Xeon).  The same cap holds
# for --z: its stop tests start once the ratio bound is under (1+|z|)/2, at a
# k growing like 1/(1-|z|), which the cap keeps at most about 10^3
MAX_PARAM_HEIGHT = 1000


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    command: str
    a: tuple = ()
    b: tuple = ()
    c0: Fraction | None = None
    alphas: tuple = ()
    beta: Fraction | None = None
    n: int | None = None
    n_range: range | None = None
    place: Place = field(default_factory=Place)
    epsilon: float = 0.1
    bits: int = 128
    z: Fraction | None = None
    system: str | None = None
    search_bound: int | None = None
    truncation: int | None = None
    level: str = "desk"
    out: str | None = None
    format: str = "json"
    seed: int = SUITE_SEED

    def spec(self) -> HypergeometricSpec:
        if not self.a:
            raise InvalidInput("--a is required (comma-separated rationals)")
        return HypergeometricSpec.from_ab(self.a, self.b, self.c0)


def _named(flag: str, text: str, parse):
    """Parse one value, naming the offending flag on failure."""
    try:
        return parse(text)
    except (HgpadeError, ValueError) as exc:
        raise RationalParseError(f"{flag}: {exc}") from exc


def _rational_list(flag: str, text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(_named(flag, part, parse_rational) for part in text.split(","))


def _capped(flag: str, x: Fraction) -> Fraction:
    if max(abs(x.numerator), x.denominator) > MAX_PARAM_HEIGHT:
        raise InvalidInput(
            f"{flag}: numerator and denominator must be at most "
            f"{MAX_PARAM_HEIGHT} in absolute value, got {format_rational(x)}"
        )
    return x


def _parameters(flag: str, text: str) -> tuple:
    return tuple(_capped(flag, x) for x in _rational_list(flag, text))


def _parse_n_range(flag: str, text: str) -> range:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise RationalParseError(f"{flag}: expected LO:HI, got {text!r}") from exc
    if not 0 < lo <= hi:
        raise RationalParseError(f"{flag}: need 0 < LO <= HI, got {text!r}")
    if hi - lo + 1 < MIN_FIT_SIZES:
        raise InvalidInput(
            f"{flag}: the rate fits need at least {MIN_FIT_SIZES} sizes n, "
            f"got {text!r}")
    return range(lo, hi + 1)  # inclusive upper end on the command line


def _integer(flag: str, value) -> int:
    """argparse already hands over ints; values from --config may be anything."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"{flag}: expected an integer, got {value!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; our contract reserves 2 for violated
    hypothesis flags, so usage problems map to exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    top = _Parser(
        prog="hgpade",
        description="simultaneous Pade systems, Wronskian certification and "
        "effective irrationality measures over Q",
    )
    sub = top.add_subparsers(dest="command", metavar="|".join(COMMANDS))

    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON file whose keys mirror the flags")
    common.add_argument("--out", help="report file (default: stdout)")
    common.add_argument("--format", choices=("json", "csv", "text"), default=None)
    common.add_argument("--seed", type=int, default=None)

    spec_args = _Parser(add_help=False)
    spec_args.add_argument("--a", help="upper parameters, e.g. 1/3,1/4")
    spec_args.add_argument("--b", help="lower parameters, e.g. 1/2 (may be empty)")
    spec_args.add_argument("--c0", help="seed coefficient (default: prod a / prod b)")

    inst = _Parser(add_help=False)
    inst.add_argument("--alphas", help="evaluation points, e.g. 1,2")
    inst.add_argument("--n", type=int, help="weight parameter")

    p = sub.add_parser("build", parents=[common, spec_args, inst],
                       help="construct a full approximant system")
    p.add_argument("--truncation", type=int)

    p = sub.add_parser("verify", parents=[common, spec_args, inst],
                       help="re-check every invariant of a system")
    p.add_argument("--system", help="system JSON produced by build")

    sub.add_parser("wronskian", parents=[common, spec_args, inst],
                   help="run the full non-vanishing certification chain")

    p = sub.add_parser("criterion", parents=[common, spec_args, inst],
                       help="measure the effective irrationality criterion")
    p.add_argument("--beta", help="rational evaluation point (default 10^6)")
    p.add_argument("--place", help="inf or a prime p (default inf)")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--n-range", help="fit window LO:HI inclusive (default 4:16)")

    p = sub.add_parser("min-beta", parents=[common, spec_args, inst],
                       help="smallest integer beta certifying V > 0")
    p.add_argument("--place", help="inf or a prime p (default inf)")
    p.add_argument("--search-bound", type=int)
    p.add_argument("--n-range", help="fit window LO:HI inclusive (default 4:12)")

    p = sub.add_parser("eval", parents=[common, spec_args],
                       help="certified values F_0(z)..F_{r-1}(z)")
    p.add_argument("--z", help="rational argument, |z| < 1")
    p.add_argument("--bits", type=int)

    p = sub.add_parser("suite", parents=[common],
                       help="run the desk-scale acceptance matrix")
    p.add_argument("--level", default=None)
    return top


def config_from_args(argv) -> RunConfig:
    args = _build_parser().parse_args(argv)
    if args.command is None:
        raise RationalParseError("no command given; see hgpade --help")

    file_cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInput(f"--config: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise InvalidInput("--config: expected a JSON object of flag values")
        file_cfg = {str(k).replace("-", "_"): v for k, v in file_cfg.items()}

    def pick(name, default=None):
        got = getattr(args, name, None)
        if got is not None:
            return got
        if name in file_cfg and file_cfg[name] is not None:
            return file_cfg[name]
        return default

    cfg = RunConfig(command=args.command)
    cfg.out = pick("out")
    cfg.format = pick("format", "json")
    if cfg.format not in ("json", "csv", "text"):
        raise RationalParseError(f"--format: unknown format {cfg.format!r}")
    cfg.seed = _integer("--seed", pick("seed", SUITE_SEED))

    a = pick("a")
    if a is not None:
        cfg.a = _parameters("--a", str(a))
    b = pick("b")
    if b is not None:
        cfg.b = _parameters("--b", str(b))
    c0 = pick("c0")
    if c0 is not None:
        cfg.c0 = _named("--c0", str(c0), parse_rational)
    alphas = pick("alphas")
    if alphas is not None:
        cfg.alphas = _rational_list("--alphas", str(alphas))
        if not cfg.alphas:
            raise RationalParseError("--alphas: need at least one point")
    n = pick("n")
    if n is not None:
        cfg.n = _integer("--n", n)
    beta = pick("beta")
    if beta is not None:
        cfg.beta = _named("--beta", str(beta), parse_rational)
        if cfg.beta == 0:
            raise InvalidInput("--beta: need a nonzero rational")
    place = pick("place")
    if place is not None:
        cfg.place = _named("--place", str(place), parse_place)
    eps = pick("epsilon")
    if eps is not None:
        cfg.epsilon = _named("--epsilon", str(eps), float)
        if not (math.isfinite(cfg.epsilon) and cfg.epsilon > 0):
            raise InvalidInput(f"--epsilon: need a finite value > 0, got {eps!r}")
    bits = pick("bits")
    if bits is not None:
        cfg.bits = _integer("--bits", bits)
        if not 1 <= cfg.bits <= MAX_BITS:
            raise InvalidInput(f"--bits: need 1 <= bits <= {MAX_BITS}, got {bits!r}")
    z = pick("z")
    if z is not None:
        cfg.z = _capped("--z", _named("--z", str(z), parse_rational))
    nr = pick("n_range")
    if nr is not None:
        cfg.n_range = _parse_n_range("--n-range", str(nr))
    cfg.system = pick("system")
    sb = pick("search_bound")
    if sb is not None:
        cfg.search_bound = _integer("--search-bound", sb)
        if cfg.search_bound < 1:
            raise InvalidInput(f"--search-bound: need >= 1, got {sb!r}")
    tr = pick("truncation")
    if tr is not None:
        cfg.truncation = _integer("--truncation", tr)
    cfg.level = str(pick("level", "desk"))
    return cfg


# ---------------------------------------------------------------------------
# canonical report emission


def _canonical(obj):
    """Rationals to 'num/den' strings, tuples to lists, keys to sorted str."""
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, Place):
        return str(obj)
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _render_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_render_text(v)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(
            f"{pad}- {_render_text(v).lstrip() if not isinstance(v, (dict, list)) else chr(10) + _render_text(v, indent + 1)}"
            for v in obj
        )
    return f"{obj}"


def emit_report(report, fmt: str = "json", path: str | None = None) -> str:
    """Serialize a report bit-stably; same report in, same bytes out."""
    data = _canonical(report)
    if fmt == "json":
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        rows = []
        _flatten("", data, rows)
        text = "\n".join(
            f"{key},{json.dumps(val) if isinstance(val, str) else val}"
            for key, val in rows
        ) + "\n"
    else:
        text = _render_text(data) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


# ---------------------------------------------------------------------------
# the seven commands


def _flags_exit(spec: HypergeometricSpec) -> int:
    """0 when the hypothesis flags pass, else 2 with the violations named."""
    bad = spec.violated_hypotheses()
    if bad:
        print(f"hypothesis flags violated: {'; '.join(bad)}", file=sys.stderr)
        return 2
    return 0


def _cmd_build(cfg: RunConfig) -> int:
    spec = cfg.spec()
    if cfg.n is None:
        raise InvalidInput("--n is required")
    system = build_system(spec, cfg.alphas, cfg.n, truncation=cfg.truncation)
    emit_report(system.to_jsonable(), cfg.format, cfg.out)
    return _flags_exit(spec)


def _cmd_verify(cfg: RunConfig) -> int:
    if cfg.system is not None:
        try:
            with open(cfg.system, encoding="utf-8") as fh:
                system = PadeSystem.from_jsonable(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise InvalidInput(f"--system: {exc}") from exc
    else:
        if cfg.n is None:
            raise InvalidInput("--n is required without --system")
        # verify_system runs the contract; the build's cross-check would too
        system = build_system(cfg.spec(), cfg.alphas, cfg.n,
                              truncation=cfg.truncation, cross_check=False)
    report = verify_system(system)
    emit_report(report, cfg.format, cfg.out)
    code = _flags_exit(system.spec)
    if not report["ok"]:
        for failure in report["failures"]:
            print(f"verify failure: {failure}", file=sys.stderr)
        return 3
    return code


def _cmd_wronskian(cfg: RunConfig) -> int:
    spec = cfg.spec()
    if cfg.n is None:
        raise InvalidInput("--n is required")
    report = certify_nonvanishing(spec, cfg.alphas, cfg.n)
    emit_report(report.to_jsonable(), cfg.format, cfg.out)
    code = _flags_exit(spec)
    if code == 0 and report.verdict != "certified nonzero":
        return 3  # unreachable in theory: certify raises first
    return code


def _cmd_criterion(cfg: RunConfig) -> int:
    spec = cfg.spec()
    beta = cfg.beta if cfg.beta is not None else Fraction(10**6)
    inst = Instance(spec, cfg.alphas, cfg.n_range or range(4, 17))
    report = measure(inst, beta, cfg.place, cfg.epsilon)
    out = report.to_jsonable()
    out["beta"] = beta
    emit_report(out, cfg.format, cfg.out)
    return 0 if report.verdict else 1


def _cmd_min_beta(cfg: RunConfig) -> int:
    spec = cfg.spec()
    if cfg.search_bound is None:
        raise InvalidInput("--search-bound is required")
    n_range = cfg.n_range or range(4, 13)
    inst = Instance(spec, cfg.alphas, n_range)
    found, v_emp = min_beta(inst, cfg.place, cfg.search_bound)
    report = {
        "search_bound": cfg.search_bound,
        "n_range": [n_range[0], n_range[-1]],
        "place": cfg.place,
        "min_beta": found,
        "V_emp": v_emp,
    }
    emit_report(report, cfg.format, cfg.out)
    if found is None:
        print(f"no beta <= {cfg.search_bound} certifies V > 0", file=sys.stderr)
        return 1
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    spec = cfg.spec()
    if cfg.z is None:
        raise InvalidInput("--z is required")
    try:
        values = eval_F_family(spec, cfg.z, cfg.bits)
    except StepBudgetExceeded as exc:
        raise StepBudgetExceeded(f"--z, --bits: {exc}") from exc
    digits = max(12, int(cfg.bits * 0.30103))
    report = {
        "z": cfg.z,
        "bits": cfg.bits,
        "F": [
            {"s": s, "decimal": v.to_decimal(digits), "error_exponent": v.error_exponent()}
            for s, v in enumerate(values)
        ],
    }
    emit_report(report, cfg.format, cfg.out)
    return 0


def _cmd_suite(cfg: RunConfig) -> int:
    def progress(res):
        mark = "ok " if res.passed else "FAIL"
        print(f"{mark} {res.check_id:24} {res.runtime:7.2f}s "
              f"(budget {res.budget_s:.0f}s)", file=sys.stderr)

    results = run_suite(level=cfg.level, seed=cfg.seed, progress=progress)
    all_passed = all(r.passed for r in results)
    with_timing = cfg.format == "text"  # timings are measurement, not data
    report = {
        "level": cfg.level,
        "seed": cfg.seed,
        "all_passed": all_passed,
        "checks": [r.to_jsonable(with_timing=with_timing) for r in results],
    }
    emit_report(report, cfg.format, cfg.out)
    if not all_passed:
        for r in results:
            if not r.passed:
                print(f"suite failure: {r.check_id}: {r.details}", file=sys.stderr)
        return 3
    return 0


_DISPATCH = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "wronskian": _cmd_wronskian,
    "criterion": _cmd_criterion,
    "min-beta": _cmd_min_beta,
    "eval": _cmd_eval,
    "suite": _cmd_suite,
}


def run(config: RunConfig) -> int:
    """Dispatch one configured command; returns the process exit code."""
    try:
        return _DISPATCH[config.command](config)
    except HgpadeError as exc:
        print(f"hgpade {config.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


def main(argv=None) -> int:
    try:
        config = config_from_args(sys.argv[1:] if argv is None else argv)
    except HgpadeError as exc:
        print(f"hgpade: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:  # argparse --help or usage error
        return exc.code or 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
