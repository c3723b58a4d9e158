"""Command-line front end: build, verify, wronskian, criterion, min-beta,
eval.

Reports are bit-stable: rationals as canonical "num/den" strings, floats via
shortest round-trip repr, keys sorted, one trailing newline.  The same config
always produces byte-identical report files, and no report holds a
wall-clock timing.

Each flag is declared once, in `FLAGS`, with its help text, its default
and the one function that parses and checks its text, from argv or from
--config alike; `COMMANDS` gives each command's flags.  A well-formed argv
(`--flag=text` or `--flag text` of the command's own flags) is read
through those tables directly (`_read_argv`); argparse, imported only
then, prints the help and the usage errors and reads what that reader
leaves to it, so both give the same texts and the same bytes.

Exit codes: 0 all verdicts pass; 1 parse/input/precision problems (including
a criterion that fails to certify); 2 violated hypothesis flags, named; 3 a
certified-nonzero quantity evaluated to zero (theory violation).
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from .arith import Place, format_rational, parse_place, parse_rational
from .criterion import MIN_FIT_SIZES, Instance, measure, min_beta
from .errors import HgpadeError, InvalidInput, RationalParseError, StepBudgetExceeded
from .numerics import eval_F_family
from .pade import build_system, load_system, verify_system
from .polyops import HypergeometricSpec
from .wronskian import certify_nonvanishing

# eval's work grows quadratically in the precision (4-6 s at 8192 bits for
# r = 3, z = 1/2 on a 2-core Xeon), and its decimal output must stay under
# Python's int-to-str digit limit
MAX_BITS = 8192

# the cost of a system grows faster than n^3 even at its cheapest shape,
# r = m = 1: `wronskian` took 0.45 s at n = 160, 2.3 s at 320 and 27 s at 640,
# `build` 0.75 s at n = 200 and 11 s at 400 (2-core Xeon, whole process).
# The cap also keeps the window n + 2 of `wronskian` within
# pade.MAX_TRUNCATION, so a large n is refused naming --n
MAX_N = 256

# the series and remainder sums start their stop tests only past the largest
# |parameter| and budget their steps from there, so the work grows with the
# parameters' size: at numerators near 10^3 a `criterion` run takes seconds,
# near 10^4 it did not end within 100 s (2-core Xeon).  The same cap holds
# for --z: its stop tests start once the ratio bound is under (1+|z|)/2, at a
# k growing like 1/(1-|z|), which the cap keeps at most about 10^3
MAX_PARAM_HEIGHT = 1000


# ---------------------------------------------------------------------------
# flags: each one parsed and checked by one function, flag, text -> value,
# whether its text comes from argv or from --config


def _named(parse):
    """The flag parser of a text parser: its errors name the flag."""
    def parse_flag(flag: str, text: str):
        try:
            return parse(text)
        except (HgpadeError, ValueError) as exc:
            raise RationalParseError(f"{flag}: {exc}") from exc
    return parse_flag


def _checked(parse, ok, need: str):
    """The flag parser `parse`, refusing a value v unless ok(v)."""
    def parse_flag(flag: str, text: str):
        value = parse(flag, text)
        if not ok(value):
            raise InvalidInput(f"{flag}: need {need}, got {text!r}")
        return value
    return parse_flag


def _rationals(text: str) -> tuple:
    """Comma-separated rationals; the empty text is the empty list."""
    text = text.strip()
    return tuple(parse_rational(part) for part in text.split(",")) if text else ()


def _n_range(text: str) -> range:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise ValueError(f"expected LO:HI, got {text!r}") from None
    return range(lo, hi + 1)  # inclusive upper end on the command line


def _within_height(x: Fraction) -> bool:
    return max(abs(x.numerator), x.denominator) <= MAX_PARAM_HEIGHT


_text = _named(str)
_integer = _named(int)
_rational = _named(parse_rational)
_HEIGHT = f"numerators and denominators at most {MAX_PARAM_HEIGHT} in absolute value"
_parameters = _checked(_named(_rationals), lambda xs: all(map(_within_height, xs)),
                       _HEIGHT)

# flag -> (help text, default, parser).  A flag's attribute on RunConfig is
# its dest, the flag without its dashes and with `_` for `-` (--n-range:
# n_range), as argparse names it; its --config key is that dest or the flag
# without its dashes (n-range)
FLAGS = {
    "--config": ("JSON file whose keys are this command's flags, e.g. "
                 '{"n": 2}; any other key exits 1; explicit flags win', None, _text),
    "--out": ("report file (default: stdout)", None, _text),
    "--format": ("json (default), csv or text", "json",
                 _checked(_text, ("json", "csv", "text").__contains__, "json, csv or text")),
    "--a": ("upper parameters, e.g. 1/3,1/4", (), _parameters),
    "--b": ("lower parameters, e.g. 1/2 (may be empty)", (), _parameters),
    "--c0": ("seed coefficient (default: prod a / prod b)", None, _rational),
    "--alphas": ("evaluation points, e.g. 1,2", (),
                 _checked(_named(_rationals), bool, "at least one point")),
    "--n": (f"weight parameter, 1 <= n <= {MAX_N}", None,
            _checked(_integer, lambda n: 1 <= n <= MAX_N, f"1 <= n <= {MAX_N}")),
    "--truncation": ("length of the stored 1/z-windows (default rm(n+1)+n+5)", None,
                     _integer),
    "--system": ("system JSON produced by build", None, _text),
    "--beta": ("nonzero rational evaluation point (default 10^6)", Fraction(10**6),
               _checked(_rational, bool, "a nonzero rational")),
    "--place": ("inf or a prime p (default inf)", Place(), _named(parse_place)),
    "--epsilon": ("margin the criterion must clear (default 0.1)", 0.1,
                  _checked(_named(float), lambda e: math.isfinite(e) and e > 0,
                           "a finite value > 0")),
    "--n-range": ("fit window LO:HI inclusive (default 4:16 for criterion, 4:12 "
                  "for min-beta)", None,
                  _checked(_named(_n_range),
                           lambda ns: 0 < ns.start and ns.stop <= MAX_N + 1
                           and len(ns) >= MIN_FIT_SIZES,
                           f"0 < LO <= HI <= {MAX_N}, and at least {MIN_FIT_SIZES} "
                           "sizes n for the rate fits")),
    "--search-bound": ("largest integer beta tried", None,
                       _checked(_integer, lambda bound: bound >= 1, "an integer >= 1")),
    "--z": ("rational argument, |z| < 1", None,
            _checked(_rational, _within_height, _HEIGHT)),
    "--bits": (f"precision, 1 <= bits <= {MAX_BITS} (default 128)", 128,
               _checked(_integer, lambda bits: 1 <= bits <= MAX_BITS,
                        f"1 <= bits <= {MAX_BITS}")),
}

_COMMON = ("--config", "--out", "--format")
_SPEC = ("--a", "--b", "--c0")

# command -> (help text, its flags)
COMMANDS = {
    "build": ("construct a full approximant system",
              (*_COMMON, *_SPEC, "--alphas", "--n", "--truncation")),
    "verify": ("re-check every invariant of a system",
               (*_COMMON, *_SPEC, "--alphas", "--n", "--truncation", "--system")),
    "wronskian": ("run the full non-vanishing certification chain",
                  (*_COMMON, *_SPEC, "--alphas", "--n")),
    "criterion": ("measure the effective irrationality criterion",
                  (*_COMMON, *_SPEC, "--alphas", "--beta", "--place", "--epsilon",
                   "--n-range")),
    "min-beta": ("smallest integer beta certifying V > 0 at the archimedean place",
                 (*_COMMON, *_SPEC, "--alphas", "--search-bound", "--n-range")),
    "eval": ("certified values F_0(z)..F_{r-1}(z)", (*_COMMON, *_SPEC, "--z", "--bits")),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


class RunConfig:
    """One command's configuration: its name, the set `given` of the flags
    whose text came from argv or --config, and one attribute per flag of the
    command (`COMMANDS`), named by the flag's dest (`_dest`), holding the
    parsed value or the flag's default."""

    def __init__(self, command: str):
        self.command = command
        self.given = set()

    def spec(self) -> HypergeometricSpec:
        if not self.a:
            raise InvalidInput("--a is required (comma-separated rationals)")
        return HypergeometricSpec.from_ab(self.a, self.b, self.c0)


def _parser(**kwargs):
    """An argparse parser whose usage errors exit 1: argparse exits 2, which
    the exit-code contract reserves for violated hypothesis flags.  argparse
    is imported here only, for help, usage errors and the argv that
    `_read_argv` leaves to it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(1)

    return Parser(**kwargs)


def _list_commands(argv) -> None:
    """Parse an argv that starts with no command by a parser that lists the
    commands: it prints the help, or exits 1 on a usage error."""
    top = _parser(
        prog="hgpade",
        description="simultaneous Pade systems, Wronskian certification and "
        "effective irrationality measures over Q",
    )
    sub = top.add_subparsers(dest="command", metavar="|".join(COMMANDS))
    for command, (text, _) in COMMANDS.items():
        sub.add_parser(command, help=text)
    top.parse_args(argv)


def _argparse_texts(command: str, tokens) -> dict:
    """The text of each flag of `command` that argparse reads in `tokens`,
    the argv past the command; it prints the help, or exits 1 on a usage
    error, `--flag=--` (which argparse reads as [], not a text) included."""
    about, flags = COMMANDS[command]
    # no abbreviations, as in --config: criterion's --n-range is not --n
    parser = _parser(prog=f"hgpade {command}", description=about, allow_abbrev=False)
    for flag in flags:
        parser.add_argument(flag, help=FLAGS[flag][0])
    namespace = parser.parse_args(tokens)
    texts = {flag: getattr(namespace, _dest(flag)) for flag in flags}
    texts = {flag: text for flag, text in texts.items() if text is not None}
    for flag, text in texts.items():
        if not isinstance(text, str):
            parser.error(f"argument {flag}: expected one argument")
    return texts


def _read_argv(flags, tokens) -> dict | None:
    """The text of each flag in `tokens`, the argv past the command, read as
    argparse reads it, when every token is a flag of `flags`, spelled
    exactly, with its text: `--flag=text`, text not `--` (argparse drops
    that one), or `--flag text`, text not starting with `-` (argparse may
    read that one as a flag).  A later occurrence of a flag wins.  Anything
    else is None: help, an unknown or abbreviated flag, a missing value, a
    positional argument or `--`, all left to argparse (`_argparse_texts`)."""
    texts, i = {}, 0
    while i < len(tokens):
        flag, eq, text = tokens[i].partition("=")
        if eq and flag in flags and text != "--":
            i += 1
        elif (not eq and flag in flags and i + 1 < len(tokens)
              and not tokens[i + 1].startswith("-")):
            text = tokens[i + 1]
            i += 2
        else:
            return None
        texts[flag] = text
    return texts


def _config_file(path: str, command: str, flags) -> dict:
    """The text of each value of the --config file, by flag; a key that is
    not one of the command's flags exits 1, named.  A value that is not a
    JSON string is read as its JSON text, and null as no value."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"--config: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInput("--config: expected a JSON object of flag values")
    texts = {}
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        if flag not in flags or flag == "--config":
            raise InvalidInput(f"--config: {key!r} is not a flag of {command}")
        if value is not None:
            texts[flag] = value if isinstance(value, str) else json.dumps(value)
    return texts


def config_from_args(argv) -> RunConfig:
    argv = list(argv)
    if not argv or argv[0] not in COMMANDS:
        _list_commands(argv)
        raise RationalParseError("no command given; see hgpade --help")
    command = argv[0]
    flags = COMMANDS[command][1]
    texts = _read_argv(flags, argv[1:])
    if texts is None:
        texts = _argparse_texts(command, argv[1:])
    if texts.get("--config"):
        texts = {**_config_file(texts["--config"], command, flags), **texts}
    cfg = RunConfig(command)
    for flag in flags:
        _, default, parse = FLAGS[flag]
        text = texts.get(flag)
        if text is not None:
            cfg.given.add(flag)
        setattr(cfg, _dest(flag), default if text is None else parse(flag, text))
    return cfg


# ---------------------------------------------------------------------------
# canonical report emission


def _canonical(obj):
    """Rationals to 'num/den' strings, places to their names, tuples to
    lists, keys to sorted str: the one place where the exact values of a
    report become text."""
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
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInput(f"--out: {exc}") from exc
    else:
        sys.stdout.write(text)
    return text


# ---------------------------------------------------------------------------
# the six commands


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
    given = None  # a file's own P_{ell,i,s} rows and windows
    if cfg.system is not None:
        for flag in (*_SPEC, "--alphas", "--n", "--truncation"):
            if flag in cfg.given:
                raise InvalidInput(f"{flag}: not allowed with --system, which "
                                   "gives the whole system")
        try:
            with open(cfg.system, encoding="utf-8") as fh:
                system, given = load_system(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, InvalidInput) as exc:
            raise InvalidInput(f"--system: {exc}") from exc
    else:
        if cfg.n is None:
            raise InvalidInput("--n is required without --system")
        # verify_system runs the contract, which the cross-check would repeat
        system = build_system(cfg.spec(), cfg.alphas, cfg.n,
                              truncation=cfg.truncation, cross_check=False)
    report = verify_system(system, given)
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
    emit_report(vars(report), cfg.format, cfg.out)
    code = _flags_exit(spec)
    if code == 0 and report.verdict != "certified nonzero":
        return 3  # unreachable in theory: certify raises first
    return code


def _cmd_criterion(cfg: RunConfig) -> int:
    spec = cfg.spec()
    inst = Instance(spec, cfg.alphas, cfg.n_range or range(4, 17))
    report = measure(inst, cfg.beta, cfg.place, cfg.epsilon)
    out = report.to_jsonable()
    out["beta"] = cfg.beta
    emit_report(out, cfg.format, cfg.out)
    return 0 if report.verdict else 1


def _cmd_min_beta(cfg: RunConfig) -> int:
    spec = cfg.spec()
    if cfg.search_bound is None:
        raise InvalidInput("--search-bound is required")
    n_range = cfg.n_range or range(4, 13)
    inst = Instance(spec, cfg.alphas, n_range)
    found, v_emp = min_beta(inst, cfg.search_bound)
    report = {
        "search_bound": cfg.search_bound,
        "n_range": [n_range[0], n_range[-1]],
        "place": Place(),
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


_DISPATCH = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "wronskian": _cmd_wronskian,
    "criterion": _cmd_criterion,
    "min-beta": _cmd_min_beta,
    "eval": _cmd_eval,
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
