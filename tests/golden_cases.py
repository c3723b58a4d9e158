"""The golden cases: every run whose output the tests pin byte for byte.

Each case has one golden text, tests/golden/<name>.txt, holding the run's
argv, exit code, stdout and stderr (`golden_text`).  An `hgpade` case runs
`hgpade.cli.main` in process (`run_case`), at an 80-column terminal, in a
working directory that holds only the files the case writes there first:
a `verify --system` case writes the file of a built system after its edits
(`edited`).  The desk case calls `test_acceptance.desk_report` instead.

`CASES` is the one list, and each case names the one test that runs it
(`Case.test`, `cases_of`).  tests/conftest.py compares a run with its
golden text (`assert_golden`, `run_golden`, `run_own_goldens`),
tests/test_golden.py checks that the list and the files match one to one,
and tools/golden.py rewrites every text from this list.
"""

import contextlib
import dataclasses
import functools
import importlib
import io
import json
import os
import shlex
from fractions import Fraction
from pathlib import Path

from hgpade.arith import format_rational, parse_rational
from hgpade.cli import main
from hgpade.pade import build_system
from hgpade.polyops import HypergeometricSpec

GOLDEN = Path(__file__).resolve().parent / "golden"

F = Fraction


@dataclasses.dataclass(frozen=True)
class Case:
    """One pinned run: `hgpade` with `argv`, after each (name, make) of
    `files` has written make(), a JSON form, to that name; or, when
    `report` names a function of the tests as module.function, a call of
    that function, which writes a report and returns an exit code.  `test`,
    as module.function, is the one test that runs the case: a test that
    checks a property of the run too (a spy), or one that has pinned those
    bytes under its own name."""
    argv: tuple = ()
    files: tuple = ()
    report: str = ""
    test: str = ""

    @property
    def label(self) -> str:
        return f"report: {self.report}()" if self.report else \
            f"argv: {shlex.join(['hgpade', *self.argv])}"


def run_case(case: Case, workdir: Path) -> tuple:
    """(exit code, stdout, stderr) of one case, run in `workdir`, which the
    case's files are written into first; the working directory and
    COLUMNS are put back after."""
    if case.report:
        module, function = case.report.rsplit(".", 1)
        run = getattr(importlib.import_module(module), function)
    else:
        run = functools.partial(main, list(case.argv))
    for name, make in case.files:
        (workdir / name).write_text(json.dumps(make()), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to it
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run()
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


def _section(name: str, text: str) -> str:
    count = text.count("\n")
    if text and not text.endswith("\n"):
        return f"{name} lines: {count + 1}, no newline at end\n{text}\n"
    return f"{name} lines: {count}\n{text}"


def golden_text(case: Case, code: int, out: str, err: str) -> str:
    """The golden text of a run of the case: its label, its exit code, and
    its stdout and stderr, each under its line count."""
    return f"{case.label}\nexit: {code}\n{_section('stdout', out)}{_section('stderr', err)}"


def read_golden(name: str) -> tuple:
    """(exit code, stdout, stderr) that the golden text of a case holds, as
    `golden_text` wrote them."""
    lines = (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8").split("\n")
    code, at, texts = int(lines[1].removeprefix("exit: ")), 2, []
    for section in ("stdout", "stderr"):
        count, _, tail = lines[at].removeprefix(f"{section} lines: ").partition(",")
        text = "".join(line + "\n" for line in lines[at + 1:at + 1 + int(count)])
        texts.append(text[:-1] if tail else text)
        at += 1 + int(count)
    return code, *texts


# ---------------------------------------------------------------------------
# edited system files
# ---------------------------------------------------------------------------


def edited(system, *edits) -> dict:
    """The JSON form of the system after the edits, each a triple
    (part, key, edit): the entry of "P", "Pis" or "R" at key becomes
    edit(entry), where a P_ell or P_{ell,i,s} is its list of Fractions and
    a window is the pair (order, coefficients), its Fractions from the
    exponent order on; it is given with order 1, and the edit's pair is
    written with the truncation order + len(coefficients)."""
    data = system.to_jsonable()
    for part, key, edit in edits:
        name = ",".join(map(str, key)) if isinstance(key, tuple) else str(key)
        if part == "R":
            text = data[part][name]
            order, coeffs = edit((1, [F(0)] * (text["order"] - 1)
                                  + [parse_rational(c) for c in text["coefficients"]]))
            data[part][name] = {"order": order, "truncation": order + len(coeffs),
                                "coefficients": [format_rational(c) for c in coeffs]}
        else:
            poly = edit([parse_rational(c) for c in data[part][name]])
            data[part][name] = [format_rational(c) for c in poly]
    return data


def _bumped(p):
    # the constant coefficient moved by one
    return [p[0] + 1, *p[1:]]


# name -> (a, b, alphas, n) of a built system; r2m1n1 violates the
# hypothesis flags (a = 2 is a positive integer), so its runs exit 2
_SYSTEMS = {
    "r2m2n2": ("1/3,1/4", "1/2", "1,2", 2),
    "r2m2n4": ("1/3,1/4", "1/2", "1,2", 4),
    "r3m2n2": ("1/3,1/4,1/5", "1/2,2/3", "1,2", 2),
    "r1m2n3": ("1/3", "", "1,2", 3),
    "r2m1n1": ("2,1/4", "1/2", "1", 1),
}


def _instance_argv(command: str, name: str) -> tuple:
    a, b, alphas, n = _SYSTEMS[name]
    return (command, f"--a={a}", f"--b={b}", f"--alphas={alphas}", f"--n={n}")


def _system_file(name: str, edits):
    a, b, alphas, n = _SYSTEMS[name]

    def rationals(text):
        return tuple(map(parse_rational, filter(None, text.split(","))))

    return lambda: edited(build_system(HypergeometricSpec.from_ab(rationals(a), rationals(b)),
                                       rationals(alphas), n), *edits)


def _verify_file(system: str, edit: str, edits) -> Case:
    path = f"{system}_{edit}.json"
    return Case(("verify", "--system", path), ((path, _system_file(system, edits)),))


# r = 2, m = 2, n = 2 at its default truncation 19
_R2M2N2_EDITS = {
    "Pis_moved": [("Pis", (1, 1, 0), _bumped)],
    "Pis_empty": [("Pis", (2, 2, 1), lambda p: [])],
    "Pis_trailing_zero": [("Pis", (0, 1, 1), lambda p: [*p, F(0)])],
    "P_lead_zeroed": [("P", 3, lambda p: [*p[:-1], F(0)])],
    "P_empty": [("P", 1, lambda p: [])],
    "P_constant_shifted": [("P", 0, _bumped)],
    # a 1/z^2 term in the window of R_{2,1,0}, below its order n + 1 = 3
    "R_order_lowered": [("R", (2, 1, 0), lambda w: (1, [F(0), F(1), *w[1][2:]]))],
    "R_zero": [("R", (1, 2, 1), lambda w: (1, [F(0)] * len(w[1])))],
    "R_from_exponent_0": [("R", (0, 2, 0), lambda w: (0, [F(1), *w[1]]))],
    # P_{3,2,0} one degree past its bound rmn + 3 = 11
    "three_at_once": [("P", 4, _bumped),
                      ("Pis", (3, 2, 0), lambda p: [*p, *[F(0)] * (12 - len(p)), F(1)]),
                      ("R", (1, 1, 1), lambda w: (1, [F(0)] * len(w[1])))],
}


def _shape_edits(r: int, m: int) -> dict:
    """The edits of every other system, by its r and m: on P_0 and
    P_rm, and on the first and the last (ell, i, s)."""
    first, last = (0, 1, 0), (r * m, m, r - 1)
    return {
        "Pis_moved": [("Pis", last, _bumped)],
        "Pis_empty": [("Pis", first, lambda p: [])],
        "Pis_trailing_zero": [("Pis", last, lambda p: [*p, F(0)])],
        "P_lead_zeroed": [("P", r * m, lambda p: [*p[:-1], F(0)])],
        "P_constant_shifted": [("P", 0, _bumped)],
        # a 1/z term, below every window's order n + 1
        "R_order_lowered": [("R", last, lambda w: (1, [F(1), *w[1][1:]]))],
        "R_zero": [("R", first, lambda w: (1, [F(0)] * len(w[1])))],
        "R_from_exponent_0": [("R", last, lambda w: (0, [F(1), *w[1]]))],
        "R_shortened": [("R", first, lambda w: (1, w[1][:-1]))],
    }


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------

_R2 = ("--a=1/3,1/4", "--b=1/2")
_R3 = ("--a=1/3,1/4,1/5", "--b=1/2,2/3")

CASES = {}


def _add(test: str, cases: dict):
    CASES.update({name: dataclasses.replace(case, test=test) for name, case in cases.items()})


# help, and each kind of usage error argparse decides
_add("test_cli.test_help_and_usage_errors_are_pinned", {
    f"usage/{name}": Case(argv) for name, argv in {
        "help": ("--help",),
        "build_help": ("build", "--help"),
        "verify_help": ("verify", "--help"),
        "eval_help": ("eval", "--help"),
        "no_command": (),
        "unknown_command": ("frobnicate",),
        "abbreviated_flag": ("criterion", *_R2, "--alphas=1", "--n=4:7"),
        "missing_value": ("eval", *_R2, "--z"),
        "value_read_as_flag": ("eval", "--a", "-1/3", "--b=", "--z=1/2"),
        "positional": ("eval", *_R2, "--z=1/2", "extra"),
        "double_dash": ("eval", *_R2, "--", "--z=1/2"),
        # argparse reads `--flag=--` as [], refused as a missing value
        "epsilon_double_dash": ("criterion", *_R2, "--alphas=1", "--epsilon=--"),
        "a_double_dash": ("eval", "--a=--", "--b=", "--z=1/2"),
        "out_double_dash": ("eval", *_R2, "--z=1/2", "--out=--"),
    }.items()})

# the default-seed ops of the benchmark's three workloads, by the keys of
# perfbench/frozen.json
BENCH = {f"bench/{name}": key for name, key in [
    ("criterion_r2m1", "criterion --a=1/3,1/4 --b=1/2 --alphas=1 --beta=1000000 --epsilon=0.1"),
    ("criterion_r2m2", "criterion --a=1/3,1/4 --b=1/2 --alphas=1,2 --beta=1000000000"),
    ("min_beta_r2m1", "min-beta --a=1/3,1/4 --b=1/2 --alphas=1 --search-bound=1024"),
    ("wronskian_r2m2n3", "wronskian --a=1/3,1/4 --b=1/2 --alphas=1,2 --n=3"),
    ("wronskian_r2m3n2", "wronskian --a=1/3,1/4 --b=1/2 --alphas=1,2,3 --n=2"),
    ("wronskian_r3m1n2", "wronskian --a=1/3,1/4,1/5 --b=1/2,2/3 --alphas=1 --n=2"),
    ("wronskian_r3m2n2", "wronskian --a=1/3,1/4,1/5 --b=1/2,2/3 --alphas=1,2 --n=2"),
    ("eval_r3_z1_3_bits4096", "eval --a=1/3,1/4,1/5 --b=1/2,2/3 --z=1/3 --bits=4096"),
    *[(f"eval_r2_z{z.replace('/', '_')}", f"eval --a=1/3,1/4 --b=1/2 --z={z} --bits=512")
      for z in ("-1/2", "-1/4", "-1/5", "-1/7", "-4/9", "1/3", "1/6", "2/5", "2/7", "2/9",
                "3/7", "3/8")],
    *[(f"eval_r3_z{z.replace('/', '_')}",
       f"eval --a=1/3,1/4,1/5 --b=1/2,2/3 --z={z} --bits=512")
      for z in ("-1/4", "-1/5", "-1/7", "-2/5", "-2/7", "-2/9", "-3/8", "-4/9", "1/2", "1/3",
                "1/6", "3/7")],
]}
for _name, _key in BENCH.items():
    _add("test_cli.test_certify_reports_match_frozen" if _key.startswith("wronskian")
         else "test_cli.test_measure_reports_match_frozen",
         {_name: Case(tuple(_key.split(" ")))})

# reports pinned one by one
for _test, _name, _argv in (
    ("test_wronskian_certifies_r4_m6_with_its_report_frozen", "wronskian_r4m6",
     ("wronskian", "--a=1/3,1/4,1/5,1/6", "--b=1/2,2/3,3/4", "--alphas=1,2,3,4,5,6",
      "--n=1")),
    ("test_wronskian_certifies_r5_m5_with_one_C_um_per_level", "wronskian_r5m5",
     ("wronskian", "--a=1/3,1/4,1/5,1/7,1/9", "--b=1/2,2/3,3/4,4/5", "--alphas=1,2,3,4,5",
      "--n=1")),
    ("test_criterion_at_a_finite_place_report_is_frozen", "criterion_p5",
     ("criterion", *_R2, "--alphas=1", "--beta=1/9765625", "--place", "5", "--epsilon=0.1")),
    ("test_criterion_report_over_a_long_window_is_frozen", "criterion_r2m2_n4-24",
     ("criterion", *_R2, "--alphas=1,2", "--beta=1000000000", "--n-range=4:24")),
    ("test_csv_format_flattens_dotted_keys", "criterion_r2m1_csv",
     ("criterion", "--a", "1/3,1/4", "--b", "1/2", "--alphas", "1", "--beta", "1000000",
      "--n-range", "4:9", "--format", "csv")),
    ("test_text_format_renders_nested_report", "criterion_r2m1_text",
     ("criterion", "--a", "1/3,1/4", "--b", "1/2", "--alphas", "1", "--beta", "1000000",
      "--n-range", "4:9", "--format", "text")),
):
    _add(f"test_cli.{_test}", {f"reports/{_name}": Case(_argv)})

# each system's build, and its verify: by flags, or of its file (--system)
# as built and after each edit
_add("test_cli.test_build_report_is_frozen", {
    f"systems/{name}_build": Case(_instance_argv("build", name)) for name in _SYSTEMS})
_add("test_cli.test_verify_reports_on_edited_files_are_pinned", {
    "systems/r2m2n2_verify": Case(_instance_argv("verify", "r2m2n2")),
    **{f"systems/r2m2n2_{edit}": _verify_file("r2m2n2", edit, edits)
       for edit, edits in _R2M2N2_EDITS.items()},
    **{f"systems/{name}_{edit}": _verify_file(name, edit, edits)
       for name, shape in (("r2m2n4", (2, 2)), ("r3m2n2", (3, 2)), ("r1m2n3", (1, 2)),
                           ("r2m1n1", (2, 1)))
       for edit, edits in {"file": (), **_shape_edits(*shape)}.items()},
})

# criterion and min-beta at the places 2, 3, 5, 7 and inf, on short
# n-ranges: certified, refused and inconclusive runs, fractional alpha and
# beta among them; name -> (command, flags), on r = 2 unless it says r3
_PLACES = {
    "inf_certified": ("criterion", "--alphas=1 --beta=1000000 --n-range=4:9"),
    "inf_named_certified": ("criterion",
                            "--alphas=1 --beta=1000000 --place inf --n-range=4:8"),
    "inf_negative_certified": ("criterion", "--alphas=-1 --beta=-1000000 --n-range=4:8"),
    "inf_r2m2_certified": ("criterion", "--alphas=1,2 --beta=1000000000 --n-range=4:8"),
    "inf_not_satisfied": ("criterion", "--alphas=1 --beta=2 --n-range=4:8"),
    "inf_inconclusive": ("criterion", "--alphas=1 --beta=30 --n-range=4:8"),
    "inf_fractional_inconclusive": ("criterion", "--alphas=1/2 --beta=1000/3 --n-range=4:8"),
    "inf_r3_inconclusive": ("criterion", "--alphas=1 --beta=1000000 --n-range=4:8"),
    "inf_ratio_bound": ("criterion", "--alphas=3 --beta=4 --n-range=4:8"),
    "p2_certified": ("criterion", "--alphas=1 --beta=1/1048576 --place 2 --n-range=4:8"),
    "p2_not_satisfied": ("criterion", "--alphas=1 --beta=1/1024 --place 2 --n-range=4:8"),
    "p2_divergent": ("criterion", "--alphas=1/2 --beta=1/8 --place 2 --n-range=4:8"),
    "p3_certified": ("criterion", "--alphas=1 --beta=1/3486784401 --place 3 --n-range=4:8"),
    "p3_inconclusive": ("criterion", "--alphas=1 --beta=1/531441 --place 3 --n-range=4:8"),
    "p3_divergent": ("criterion", "--alphas=1/3 --beta=1/27 --place 3 --n-range=4:8"),
    "p5_certified": ("criterion", "--alphas=1 --beta=1/9765625 --place 5 --n-range=4:8"),
    "p5_not_satisfied": ("criterion", "--alphas=1 --beta=1/125 --place 5 --n-range=4:8"),
    "p5_fractional_inconclusive": ("criterion",
                                   "--alphas=2/5 --beta=1/390625 --place 5 --n-range=4:8"),
    "p7_certified": ("criterion", "--alphas=1 --beta=1/5764801 --place 7 --n-range=4:8"),
    "p7_not_satisfied": ("criterion", "--alphas=1 --beta=1/343 --place 7 --n-range=4:8"),
    "p7_inconclusive": ("criterion", "--alphas=1 --beta=1/2401 --place 7 --n-range=4:8"),
    "p7_r2m2_not_satisfied": ("criterion",
                              "--alphas=1,2 --beta=1/5764801 --place 7 --n-range=4:8"),
    "min_beta_found": ("min-beta", "--alphas=1 --search-bound=64 --n-range=4:8"),
    "min_beta_none": ("min-beta", "--alphas=1 --search-bound=2 --n-range=4:8"),
    "min_beta_r2m2_none": ("min-beta", "--alphas=1,2 --search-bound=10000 --n-range=4:8"),
    "min_beta_fractional": ("min-beta", "--alphas=1/2 --search-bound=100 --n-range=4:8"),
    "min_beta_floor_4": ("min-beta", "--alphas=3 --search-bound=1000 --n-range=4:8"),
}
_add("test_criterion.test_criterion_and_min_beta_reports_at_each_place_are_pinned", {
    f"criterion/{name}": Case((command, *(_R3 if "_r3_" in name else _R2), *flags.split(" ")))
    for name, (command, flags) in _PLACES.items()})

# the ten checks of the acceptance desk, their details as one report
_add("test_acceptance.test_desk_report_is_frozen",
     {"desk": Case(report="test_acceptance.desk_report")})


def cases_of(test: str) -> list:
    """The names of the cases that `test`, as module.function, runs."""
    return [name for name, case in CASES.items() if case.test == test]
