"""In-process tests of the command-line front end.

Everything drives `hgpade.cli.main(argv)` directly so that exit codes,
stdout reports and stderr messages are all observable without spawning
subprocesses.
"""

import ast
import builtins
import contextlib
import hashlib
import importlib
import io
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import criterion_V, edited, literal_contract_failures
from hgpade import criterion
from hgpade.arith import Place, format_rational, parse_rational
from hgpade.cli import COMMANDS, MAX_N, _argparse_texts, _read_argv, emit_report, main
from hgpade.numerics import BigFloat
from hgpade.pade import build_system, load_system
from hgpade.polyops import HypergeometricSpec

R2 = ["--a", "1/3,1/4", "--b", "1/2"]


def _json_out(capsys):
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return json.loads(out)


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_no_command_exits_1(capsys):
    assert main([]) == 1
    assert "no command" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    # argparse would exit 2; the contract reserves 2 for hypothesis flags.
    # `suite`, a command no longer, is refused like any unknown name
    for command in ("frobnicate", "suite"):
        assert main([command]) == 1
        err = capsys.readouterr().err
        assert f"invalid choice: {command!r}" in err
        assert "Traceback" not in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "criterion" in capsys.readouterr().out


# argv that argparse alone decides (help, and each kind of usage error),
# against the sha256 of the stdout and stderr of `main` and its exit code,
# at an 80-column terminal
_R2 = ["--a=1/3,1/4", "--b=1/2"]
_USAGE_ARGVS = {
    "help": ["--help"],
    "eval_help": ["eval", "--help"],
    "no_command": [],
    "unknown_command": ["frobnicate"],
    "abbreviated_flag": ["criterion", *_R2, "--alphas=1", "--n=4:7"],
    "missing_value": ["eval", *_R2, "--z"],
    "value_read_as_flag": ["eval", "--a", "-1/3", "--b=", "--z=1/2"],
    "positional": ["eval", *_R2, "--z=1/2", "extra"],
    "double_dash": ["eval", *_R2, "--", "--z=1/2"],
    # argparse reads `--flag=--` as [], refused as a missing value
    "epsilon_double_dash": ["criterion", *_R2, "--alphas=1", "--epsilon=--"],
    "a_double_dash": ["eval", "--a=--", "--b=", "--z=1/2"],
    "out_double_dash": ["eval", *_R2, "--z=1/2", "--out=--"],
}
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_USAGE_PINS = {
    "help": (0, "37ab47c2e3a5d5659641e235840f2b64bed7c8290a34a9652e0962ab51332a74", _EMPTY),
    "eval_help": (0, "cecadeccf2c7bbc729d8628d17d051482ad41687d69e8494214f561515dccd3c",
                  _EMPTY),
    "no_command": (1, _EMPTY,
                   "c496bbe4b9ee9f5615ca2d07295c4e513707676eeeee926644a7ba179de02fde"),
    "unknown_command": (1, _EMPTY,
                        "385fe908c8a9e638c99ccde909f44b2537f577c7e62ccf1366cff8bc86b59b47"),
    "abbreviated_flag": (1, _EMPTY,
                         "4c0997704bb618e8cdb23dccce7f7b286858d8c8aaf92515d5b42e1304f0383c"),
    "missing_value": (1, _EMPTY,
                      "3545a63ba6f00ccb881b71abc6b6ea5e595dd6515f9234cb434b599605e5d098"),
    "value_read_as_flag": (1, _EMPTY,
                           "41a82620d8af4af050054f43e6a9de073bb6bd0fa1072e23ae2bfc9f6a3b0bb6"),
    "positional": (1, _EMPTY,
                   "375823b8f397238a8dc313d6ab9d7fd0ed4eb2aa186556c5d69161f64bceb88c"),
    "double_dash": (1, _EMPTY,
                    "c9b7bbc37262a73339627ec299d9ccf6c520dfbfab4ab6cf837b3bb4684760a3"),
    "epsilon_double_dash": (1, _EMPTY,
                            "bd12bd207f00e7a4decd1811b80cb0dff0037671a3fbcfbd4b6496a3d4758006"),
    # the same bytes as value_read_as_flag: both are argparse's missing --a
    "a_double_dash": (1, _EMPTY,
                      "41a82620d8af4af050054f43e6a9de073bb6bd0fa1072e23ae2bfc9f6a3b0bb6"),
    "out_double_dash": (1, _EMPTY,
                        "e91b4c49d932d53b153063ac89e6b7f35725053931f52f628a58929f0de20729"),
}


def test_help_and_usage_errors_are_pinned(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, argv in _USAGE_ARGVS.items():
        code = main(argv)
        captured = capsys.readouterr()
        got[name] = (code, hashlib.sha256(captured.out.encode()).hexdigest(),
                     hashlib.sha256(captured.err.encode()).hexdigest())
    assert got == _USAGE_PINS
    # no usage error writes a report file, `--out=--` (argparse's []) included
    assert list(tmp_path.iterdir()) == []


def test_bad_rational_names_the_flag(capsys):
    code = main(["build", "--a", "1/0", "--b", "", "--alphas", "1", "--n", "1"])
    assert code == 1
    assert "--a" in capsys.readouterr().err


def test_bad_n_range_exits_1(capsys):
    code = main(["criterion", *R2, "--alphas", "1", "--n-range", "16:4"])
    assert code == 1
    assert "--n-range" in capsys.readouterr().err


def test_degenerate_spec_exits_2_with_named_flags(capsys):
    code = main(["build", "--a", "2,1/4", "--b", "1/2", "--alphas", "1", "--n", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "a_not_positive_integer" in err
    assert "eta_minus_zeta_not_natural" in err


# ---------------------------------------------------------------------------
# build / verify round trip
# ---------------------------------------------------------------------------


def test_build_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "system.json"
    code = main(["build", *R2, "--alphas", "1", "--n", "1", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["n"] == 1

    code = main(["verify", "--system", str(path)])
    assert code == 0
    report = _json_out(capsys)
    assert report["ok"] is True
    assert report["failures"] == []


def test_build_report_is_frozen(capsys):
    # every coefficient of P_ell, P_{ell,i,s} and the stored windows of the
    # r = 2, m = 2, n = 2 system, byte for byte
    assert main(["build", "--a=1/3,1/4", "--b=1/2", "--alphas=1,2", "--n=2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "380d7cda4470c60871f1b4733a5d5f45a06e04db9ce00fc6950a65578bde0ae2"
    )


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--a=1/3,1/4", "--b=1/2", "--alphas=1,2", "--n=2"],
     "8d82348665424c14e0ac5569b52652bc9185206bf81f7955c73e9f6de7f07ec0"),
    (["wronskian", "--a=1/3,1/4", "--b=1/2", "--alphas=1,2", "--n=3"],
     "e436543b4c3138dfa8d966eace68353b6b61ed12857e741635b67c55d1c7599f"),
])
def test_verify_and_wronskian_read_no_companion_fraction(argv, digest, monkeypatch, capsys):
    # a system holds only the integer rows of every P_ell and P_{ell,i,s},
    # every stored window is an integer row, and Delta and Theta reach
    # `det_bareiss` as integer rows: with a window or a determinant entry
    # that is a Fraction made to fail, each report keeps its bytes
    import hgpade.wronskian
    from hgpade.pade import _Windows

    window_of = _Windows.__getitem__

    def integer_window(windows, key):
        order, den, ints = window = window_of(windows, key)
        if not all(type(x) is int for x in (order, den, *ints)):
            raise AssertionError(f"read the window {key} as Fractions")
        return window

    det = hgpade.wronskian.det_bareiss

    def integer_det(matrix):
        if not all(type(x) is int for row in matrix for x in row):
            raise AssertionError("a determinant entry is a Fraction")
        return det(matrix)

    monkeypatch.setattr(_Windows, "__getitem__", integer_window)
    monkeypatch.setattr(hgpade.wronskian, "det_bareiss", integer_det)
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_corrupted_system_exits_3(tmp_path, capsys):
    path = tmp_path / "system.json"
    assert main(["build", *R2, "--alphas", "1", "--n", "1", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["P"]["0"] = data["P"]["0"][:-1]  # drop the leading coefficient of P_0
    path.write_text(json.dumps(data))

    code = main(["verify", "--system", str(path)])
    assert code == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False
    assert "verify failure" in captured.err


def test_verify_tampered_Pis_exits_3_naming_the_index(tmp_path, capsys):
    path = tmp_path / "system.json"
    assert main(["build", *R2, "--alphas", "1,2", "--n", "2", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["Pis"]["0,1,0"][0] = format_rational(parse_rational(data["Pis"]["0,1,0"][0]) + 1)
    path.write_text(json.dumps(data))
    capsys.readouterr()

    assert main(["verify", "--system", str(path)]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["ok"] is False
    assert report["failures"] == [{"check": "Pis_coeffs", "index": [0, 1, 0]}]
    assert "Pis_coeffs" in captured.err and "[0, 1, 0]" in captured.err


def test_verify_names_a_zero_leading_coefficient(tmp_path, capsys):
    # a file whose P_4 stores a leading 0: verify names deg_P at [4]
    path = tmp_path / "system.json"
    assert main(["build", *R2, "--alphas", "1,2", "--n", "2", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["P"]["4"][-1] = "0"
    path.write_text(json.dumps(data))
    capsys.readouterr()

    assert main(["verify", "--system", str(path)]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["failures"][0] == {
        "check": "deg_P", "index": [4], "expected": 12, "got": "11"}
    assert "deg_P" in captured.err and "[4]" in captured.err


def test_verify_runs_the_contract_once(monkeypatch, capsys):
    # verify builds without the cross-check: the report's own contract run
    # is the only one
    import hgpade.pade

    calls = []
    contract = hgpade.pade.contract_failures

    def counted(system, given=None):
        calls.append(None)
        return contract(system, given)

    monkeypatch.setattr(hgpade.pade, "contract_failures", counted)
    for spec in (R2, ["--a", "1/3,1/4,1/5", "--b", "1/2,2/3"]):
        calls.clear()
        assert main(["verify", *spec, "--alphas", "1,2", "--n", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert len(calls) == 1


def test_verify_reports_a_broken_build(monkeypatch, tmp_path, capsys):
    # a build whose kernel shifts the constant term of every P_{ell,i,s},
    # the one call shape whose run is exactly as long as its outputs: its
    # rows agree with its own weights, so the build passes, and the literal
    # product sees the fault; its file, verified with the true kernel,
    # exits 3 with the same failures in the report
    import hgpade.pade

    kernel = hgpade.pade._dot_rows

    def shifted(pi, wi, count):
        # the outputs share one denominator, so + 1 shifts by 1/den
        out = kernel(pi, wi, count)
        return [c + 1 if d == 0 else c for d, c in enumerate(out)] \
            if len(wi) == count else out

    path = tmp_path / "system.json"
    with monkeypatch.context() as patch:
        patch.setattr(hgpade.pade, "_dot_rows", shifted)
        assert main(["build", *R2, "--alphas", "1", "--n", "1", "--out", str(path)]) == 0
    failures = literal_contract_failures(*load_system(json.loads(path.read_text())))
    assert {"check": "Pis_coeffs", "index": [0, 1, 0]} in failures
    capsys.readouterr()

    assert main(["verify", "--system", str(path)]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["ok"] is False
    assert report["failures"] == failures
    assert "Pis_coeffs" in captured.err


def _bumped(p):
    # the constant coefficient moved by one
    return [p[0] + 1, *p[1:]]


# r = 2, m = 2, n = 2 at its default truncation 19: each file edit, applied
# to the built system's JSON form (`edited`), against the sha256 of the
# `verify --system` stdout and stderr and its exit code
_VERIFY_EDITS = {
    "Pis_moved": [("Pis", (1, 1, 0), _bumped)],
    "Pis_empty": [("Pis", (2, 2, 1), lambda p: [])],
    "Pis_trailing_zero": [("Pis", (0, 1, 1), lambda p: [*p, Fraction(0)])],
    "P_lead_zeroed": [("P", 3, lambda p: [*p[:-1], Fraction(0)])],
    "P_empty": [("P", 1, lambda p: [])],
    "P_constant_shifted": [("P", 0, _bumped)],
    # a 1/z^2 term in the window of R_{2,1,0}, below its order n + 1 = 3
    "R_order_lowered": [("R", (2, 1, 0), lambda w: (1, [Fraction(0), Fraction(1),
                                                        *w[1][2:]]))],
    "R_zero": [("R", (1, 2, 1), lambda w: (1, [Fraction(0)] * len(w[1])))],
    "R_from_exponent_0": [("R", (0, 2, 0), lambda w: (0, [Fraction(1), *w[1]]))],
    # P_{3,2,0} one degree past its bound rmn + 3 = 11
    "three_at_once": [("P", 4, _bumped),
                      ("Pis", (3, 2, 0), lambda p: [*p, *[Fraction(0)] * (12 - len(p)),
                                                    Fraction(1)]),
                      ("R", (1, 1, 1), lambda w: (1, [Fraction(0)] * len(w[1])))],
}

_VERIFY_PINS = {
    "Pis_moved": (3, "6e31e5855579fd68b9cf85ffe78e0b8fcd1fb57b829397ac2e2e843636d881d3",
        "ae1852462594b42e37fd472114e0a32242ac863261d822100a2c8e617925a9db"),
    "Pis_empty": (3, "88cf4ceb7cbb8629fb530e127989eadc8aa4a0647c50a2ddf7b6bc2421f1079c",
        "602dc056a438c94b009c3e533128be619c1c01de8249a50648effd57313faf26"),
    "Pis_trailing_zero": (0, "8d82348665424c14e0ac5569b52652bc9185206bf81f7955c73e9f6de7f07ec0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "P_lead_zeroed": (3, "68f7fa4521ab8f4ada28e436e1045961e99311421a58ac59ad7e79ad83ae8524",
        "c06990632af9aa6101180a38b2e5ba81ed5a127e987dea3da8d3a5c1bc218003"),
    "P_empty": (3, "99acaac96ef42e951da75a679b6e66b5e8465f6917c3a8ff495443f2619ffa46",
        "b44a5110b43378a5f1d820f4ee43fb2d80f90c9022955cb31f5820a666a41b01"),
    "P_constant_shifted": (3, "5647644a9840a5483af471fb89678eab000f771c551e6a4d7cf4a3273fcae210",
        "a40d5122027d0d0a5260eec36258f96f1e4b151f5686b03dd0b57e2909961624"),
    "R_order_lowered": (3, "60b77f0f1f4b9db9556d1109123aa2971fd19247edfee45ff0206bbdc032c7d3",
        "e4ca4e111e4856c88530cb9ee480e38026f14754699c2b834a4627681baadd8c"),
    "R_zero": (3, "17c5a59919d65cffe3358ff484f33517a96c8bae893561f4ce5bbc0b014e888f",
        "f81d1e1fc332c902daab78c19b451f886612eb35a41d858c9e5860b4b546b6fe"),
    "R_from_exponent_0": (3, "a686db70b53870977c509712c3b0e2c1c87391b0c817893da46a861ebf7b53ee",
        "8ac9b060fd1e058d64335a5d693e229198504fb2833b7575d30b7a31ee2e0b7e"),
    "three_at_once": (3, "cf52dfb56ef05fc2a66e206ccaa3ecf717957db7d4edb9297212e69b2ed6d580",
        "2813a5e62c52fe9c108782ce3747eee43e63a8f64f2a959ae803f6562218b00c"),
}


def test_verify_reports_on_edited_files_are_pinned(tmp_path, capsys):
    # every byte `verify --system` writes on a file edited from a build,
    # and its exit code: the report, its failures in order, and the
    # failure lines on stderr
    spec = HypergeometricSpec.from_ab((Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 2),))
    system = build_system(spec, (1, 2), 2)
    got = {}
    for name, edits in _VERIFY_EDITS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(edited(system, *edits)))
        code = main(["verify", "--system", str(path)])
        captured = capsys.readouterr()
        got[name] = (code, hashlib.sha256(captured.out.encode()).hexdigest(),
                     hashlib.sha256(captured.err.encode()).hexdigest())
    assert got == _VERIFY_PINS


@pytest.mark.parametrize("argv, config", [
    (["build", "--a=1/3", "--alphas=1", "--n=1", "--truncation=1000000000"], None),
    (["build", "--a=1/3", "--alphas=1", "--n=1", "--truncation=0"], None),
    (["build", "--a=1/3", "--alphas=1", "--n=1", "--truncation=-5"], None),
    (["build", "--a=1/3", "--alphas=1", "--n=3", "--truncation=4"], None),
    (["build", "--a=1/3", "--alphas=1", "--truncation=-" + str(10**30)], {"n": 2}),
    (["verify", "--a=1/3", "--alphas=1", "--n=1"], {"truncation": 10**9}),
    (["verify", "--a=1/3", "--alphas=1", "--n=2"], {"truncation": 3}),
    (["verify", "--a=1/3", "--alphas=1", "--n=2", "--truncation=3"], None),
])
def test_bad_truncation_exits_1_before_any_build(argv, config, monkeypatch, tmp_path,
                                                 capsys):
    # a window that cannot certify the order bound, or one past the cap, is
    # refused naming --truncation before a single P_ell is made
    import hgpade.pade

    def no_build(*args):
        raise AssertionError("built a system for a refused truncation")

    monkeypatch.setattr(hgpade.pade, "_P_family", no_build)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "InvalidInput: --truncation" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, named", [
    # past the cap on --n, at once, where wronskian used to name --truncation
    (["wronskian", "--a=1/3,1/4", "--b=1/2", "--alphas=1", "--n=2000"], "--n"),
    (["build", "--a=1/3,1/4", "--b=1/2", "--alphas=1,2", f"--n={MAX_N + 1}"], "--n"),
    (["build", "--a=1/3,1/4", "--b=1/2", "--alphas=1,2", "--n=300"], "--n"),
    (["criterion", "--a=1/3,1/4", "--b=1/2", "--alphas=1", f"--n-range=4:{MAX_N + 1}"],
     "--n-range"),
    # within the cap on --n, but the default window rm(n + 1) + n + 5 is not
    (["build", "--a=1/3,1/4", "--b=1/2", "--alphas=1,2", "--n=250"], "n = 250"),
    (["verify", "--a=1/3,1/4", "--b=1/2", "--alphas=1,2", "--n=250"], "n = 250"),
    (["criterion", "--a=1/3,1/4", "--b=1/2", "--alphas=1,2", "--n-range=4:250"],
     "n = 250"),
])
def test_large_n_exits_1_before_any_build(argv, named, monkeypatch, capsys):
    import hgpade.pade

    def no_build(*args):
        raise AssertionError("built a system for a refused n")

    monkeypatch.setattr(hgpade.pade, "_P_family", no_build)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f": {named}" in captured.err
    assert "--truncation" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("part, key, extra", [
    ("P", "2", False), ("Pis", "0,1,0", False), ("R", "0,1,0", False),
    ("P", "9", True), ("Pis", "9,9,9", True),
])
def test_verify_refuses_a_system_file_without_its_keys(tmp_path, capsys, part, key, extra):
    # a system file holds P for ell = 0..rm and Pis and R for every
    # (ell, i, s), no more: a missing or an extra key exits 1, named
    path = tmp_path / "system.json"
    assert main(["build", *R2, "--alphas=1,2", "--n=1", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    if extra:
        data[part][key] = data[part]["0" if part == "P" else "0,1,0"]
    else:
        del data[part][key]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--system", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"hgpade verify: InvalidInput: --system: {part}: "
                            f'{"extra" if extra else "missing"} key "{key}"\n')


@pytest.mark.parametrize("field, value, message", [
    ("truncation", 2, "truncation: need n + 1 < truncation <= 1024, got 2 at n = 1"),
    ("truncation", 9, 'truncation: the window "0,1,0" has truncation 14, not 9'),
    ("alphas", ["1", "1"], "alphas: evaluation points must be pairwise distinct"),
    ("n", 0, "n: need an integer n >= 1, got 0"),
    # a JSON true is not an integer, though Python's bool is an int
    ("n", True, "n: need an integer n >= 1, got True"),
    ("truncation", True, "truncation: need an integer, got True"),
    ("truncation", "14", "truncation: need an integer, got '14'"),
])
def test_verify_refuses_a_system_file_of_an_invalid_instance(tmp_path, capsys, field,
                                                               value, message):
    # a system file must hold an instance `build` accepts, with every window
    # at the file's truncation: else verify exits 1 naming the field, before
    # the contract runs
    path = tmp_path / "system.json"
    assert main(["build", *R2, "--alphas=1,2", "--n=1", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["truncation"] == 14
    data[field] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--system", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"hgpade verify: InvalidInput: --system: {message}\n"


@pytest.mark.parametrize("field, value, message", [
    ("order", True, 'R "1,2,0": order: need an integer, got True'),
    ("order", "2", "R \"1,2,0\": order: need an integer, got '2'"),
    ("truncation", False, 'R "1,2,0": truncation: need an integer, got False'),
    ("coefficients", "short",
     'R "1,2,0": coefficients: need a list of truncation - order = 12 rationals, got 11'),
    ("coefficients", "1/0",
     'R "1,2,0": coefficients: not a rational \'num/den\' string: \'1/0\''),
    ("coefficients", 5, 'R "1,2,0": coefficients: not a rational \'num/den\' string: 5'),
])
def test_verify_names_a_malformed_window(tmp_path, capsys, field, value, message):
    # a window of a system file whose order or truncation is not an integer,
    # whose coefficient list does not fill truncation - order, or holds an
    # entry that is no rational string, exits 1 naming the window and the
    # field
    path = tmp_path / "system.json"
    assert main(["build", *R2, "--alphas=1,2", "--n=1", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    window = data["R"]["1,2,0"]
    assert (window["order"], window["truncation"], len(window["coefficients"])) == (2, 14, 12)
    if value == "short":
        window["coefficients"].pop()
    elif field == "coefficients":
        window["coefficients"][3] = value
    else:
        window[field] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--system", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"hgpade verify: InvalidInput: --system: {message}\n"


@pytest.mark.parametrize("where, value, message", [
    (("P", "0", 1), "1/0", 'P "0": not a rational \'num/den\' string: \'1/0\''),
    (("P", "0"), 7, 'P "0": need a list of rationals, got 7'),
    (("Pis", "0,1,0", 0), "1/0", 'Pis "0,1,0": not a rational \'num/den\' string: \'1/0\''),
    (("alphas", 1), "x", "alphas: not a rational 'num/den' string: 'x'"),
    (("spec", "eta"), 5, "spec: eta: need a list of rationals, got 5"),
    (("spec", "c0"), 3, "spec: c0: not a rational 'num/den' string: 3"),
    # a whole part of the wrong JSON type, or a file or a spec without a
    # field
    (("spec",), 5, "spec: need an object, got int"),
    (("P",), 5, "P: need an object, got int"),
    (("R",), [], "R: need an object, got list"),
    (("spec", "zeta"), None, 'spec: missing key "zeta"'),
    (("n",), None, 'missing key "n"'),
])
def test_verify_names_a_malformed_entry(tmp_path, capsys, where, value, message):
    # a P or Pis entry, an alpha or a spec field of a system file that is
    # no rational string, no list where a list belongs, no object where an
    # object belongs, or missing (value None), exits 1 naming the field
    # (and the key of an entry)
    path = tmp_path / "system.json"
    assert main(["build", *R2, "--alphas=1,2", "--n=1", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    *parents, last = where
    target = data
    for key in parents:
        target = target[key]
    if value is None:
        del target[last]
    else:
        target[last] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--system", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"hgpade verify: InvalidInput: --system: {message}\n"


def test_verify_unreadable_system_exits_1(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text("{not json")
    assert main(["verify", "--system", str(path)]) == 1
    assert "--system" in capsys.readouterr().err


def test_verify_refuses_instance_flags_with_system(tmp_path, capsys):
    # the system file gives the whole instance: a flag that would describe
    # another one exits 1, named, from argv or from --config alike
    path = tmp_path / "sys.json"
    assert main(["build", *R2, "--alphas", "1", "--n", "1", "--out", str(path)]) == 0
    cfg = tmp_path / "cfg.json"
    for flag, value in (("--a", "1/5"), ("--b", ""), ("--c0", "1"), ("--alphas", "1"),
                        ("--n", "7"), ("--truncation", "3")):
        cfg.write_text(json.dumps({flag[2:]: value}))
        for argv in ([f"{flag}={value}"], ["--config", str(cfg)]):
            assert main(["verify", "--system", str(path), *argv]) == 1, argv
            captured = capsys.readouterr()
            assert f"InvalidInput: {flag}: not allowed with --system" in captured.err
            assert captured.out == ""
    assert main(["verify", "--system", str(path)]) == 0


def test_unwritable_out_exits_1_naming_it(capsys):
    code = main(["eval", "--a=1/3", "--z=1/7", "--bits=64",
                 "--out", "/nonexistent-dir/x.json"])
    assert code == 1
    captured = capsys.readouterr()
    assert "InvalidInput: --out: " in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# wronskian / eval / criterion / min-beta reports
# ---------------------------------------------------------------------------


def test_wronskian_certifies_canonical_instance(capsys):
    code = main(["wronskian", *R2, "--alphas", "1,2", "--n", "1"])
    assert code == 0
    report = _json_out(capsys)
    assert report["verdict"] == "certified nonzero"


@pytest.mark.parametrize("a, b, alphas", [
    ("1/3,1/4", "1/2", "1,2,3,4"),          # r = 2, m = 4
    ("1/3,1/4,1/5", "1/2,2/3", "1,2,3"),    # r = 3, m = 3
])
def test_wronskian_certifies_rm_up_to_nine(a, b, alphas, capsys):
    code = main(["wronskian", "--a", a, "--b", b, "--alphas", alphas, "--n", "1"])
    assert code == 0
    report = _json_out(capsys)
    assert report["verdict"] == "certified nonzero"
    assert report["zero_links"] == []
    assert report["checks"] and all(report["checks"].values())


# r = 4, m = 2..5: Delta rests on the cofactor argument, not on one
# determinant per point z up to its degree, so r*m = 20 stays within seconds
@pytest.mark.parametrize("alphas", ["1,2", "1,2,3", "1,2,3,4", "1,2,3,4,5"])
def test_wronskian_certifies_r4_up_to_m3(alphas, capsys):
    code = main(["wronskian", "--a=1/3,1/4,1/5,1/6", "--b=1/2,2/3,3/4",
                 "--alphas", alphas, "--n", "1"])
    assert code == 0
    report = _json_out(capsys)
    assert report["verdict"] == "certified nonzero"
    assert report["zero_links"] == []
    assert report["checks"] and all(report["checks"].values())
    assert all(report["hypothesis_flags"].values())


def test_wronskian_certifies_r4_m6_with_its_report_frozen(capsys):
    # r*m = 24 on windows that end right past 1/z^{n+1}: the report's
    # sha256 was measured on windows of the default length
    code = main(["wronskian", "--a=1/3,1/4,1/5,1/6", "--b=1/2,2/3,3/4",
                 "--alphas=1,2,3,4,5,6", "--n=1"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["verdict"] == "certified nonzero"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "86685229c860dcc417c26f42352483117b5f002ba7ddefeb9bf16c95cee54ac4")


def test_wronskian_certifies_r5_m5_with_one_C_um_per_level(capsys, monkeypatch):
    # r*m = 25: L(u) and final_det are products, so the chain evaluates one
    # moment determinant per level, C_{u_k,k} at alpha_1..alpha_k, m in all
    from hgpade import wronskian

    calls = []
    c_um = wronskian.C_um

    def counted(spec, alphas, n, u, route="det"):
        calls.append((tuple(alphas), u))
        return c_um(spec, alphas, n, u, route)

    monkeypatch.setattr(wronskian, "C_um", counted)
    code = main(["wronskian", "--a=1/3,1/4,1/5,1/7,1/9", "--b=1/2,2/3,3/4,4/5",
                 "--alphas=1,2,3,4,5", "--n=1"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["verdict"] == "certified nonzero"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "072e4d42c8f949d490ef38c9233f66008c970469f48c797cbb774b0b5f10be8a")
    assert [len(points) for points, _ in calls] == [5, 4, 3, 2, 1]


def test_eval_reports_certified_decimals(capsys):
    code = main(["eval", *R2, "--z", "1/7", "--bits", "512"])
    assert code == 0
    report = _json_out(capsys)
    assert report["z"] == "1/7"
    assert report["bits"] == 512
    # frozen 30-digit prefixes; truncation toward zero is prefix-stable
    assert report["F"][0]["decimal"].startswith("0.025911802738654299509964214560")
    assert report["F"][1]["decimal"].startswith("0.028253552821257868789923775257")
    assert all(entry["error_exponent"] >= 512 for entry in report["F"])


def test_criterion_certified_exit_0(capsys):
    code = main(["criterion", *R2, "--alphas", "1",
                 "--beta", "1000000", "--n-range", "4:9"])
    assert code == 0
    report = _json_out(capsys)
    assert report["verdict"] is True
    assert report["beta"] == "1000000"
    assert report["V_emp"] == pytest.approx(12.486170777590452, rel=1e-9)


def test_criterion_uncertified_exit_1(capsys):
    code = main(["criterion", *R2, "--alphas", "1",
                 "--beta", "2", "--n-range", "4:8"])
    assert code == 1
    assert "CriterionNotSatisfied" in capsys.readouterr().err


def test_criterion_at_a_finite_place_report_is_frozen(capsys):
    # the p-adic route: |alpha/beta|_5 = 5^-10, remainder valuations summed
    # exactly past the stored window
    code = main(["criterion", "--a=1/3,1/4", "--b=1/2", "--alphas=1",
                 "--beta=1/9765625", "--place", "5", "--epsilon=0.1"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["verdict"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "66fb2996fec8073b2c315225b91228cb30771fe927f27bdf28f972a8c7b9feeb"
    )


def test_criterion_report_over_a_long_window_is_frozen(capsys):
    # r = 2, m = 2 at beta = 10^9 up to n = 24: every remainder sum starts
    # at its first stop test, past windows that reach 1/z^128
    assert main(["criterion", "--a=1/3,1/4", "--b=1/2", "--alphas=1,2",
                 "--beta=1000000000", "--n-range=4:24"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bdc3a7b360c7cfb1c4445c67a4001222ad3fe0dab799be290b2d085e5efff909"
    )


_FROZEN = Path(__file__).resolve().parents[1] / "perfbench" / "frozen.json"


def test_measure_reports_match_frozen(capsys):
    # the benchmark's three default-seed `measure` ops (two criterion runs
    # and one min-beta bisection) and its 25 default-seed `series` ops (one
    # eval at 4096 bits, 24 at 512 bits), run in process: every report byte
    # must match the sha256 the benchmark pins in its frozen table
    frozen = json.loads(_FROZEN.read_text())
    keys = sorted(k for k in frozen
                  if k.split()[0] in ("criterion", "min-beta", "eval"))
    assert len(keys) == 3 + 25
    for key in keys:
        assert main(key.split()) == 0, key
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == frozen[key], key


def test_min_beta_scales_each_weight_run_once_and_makes_no_term_fraction(capsys,
                                                                         monkeypatch):
    # the benchmark's min-beta op (r = 2, m = 1, n = 4..12, bound 1024)
    # scales each run of psi weights once per system and range, shared by
    # every ell, the terms and the sizes, and sums the terms as unreduced
    # pairs (`pade` has no `_unscaled` to make a Fraction of a row): with
    # `_weight_run` counted by (alpha, s, start, stop, width), it still
    # writes its frozen bytes.  The width, deg P_rm + 1 = 2n + 3, tells the
    # systems apart; each makes one run for its P_{ell,i,s}, with
    # start = stop = 0
    from hgpade import pade

    calls = Counter()
    weight_run = pade._weight_run

    def counted(spec, alpha, s, start, stop, width):
        calls[(alpha, s, start, stop, width)] += 1
        return weight_run(spec, alpha, s, start, stop, width)

    assert not hasattr(pade, "_unscaled")
    monkeypatch.setattr(pade, "_weight_run", counted)
    key = "min-beta --a=1/3,1/4 --b=1/2 --alphas=1 --search-bound=1024"
    assert main(key.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == json.loads(_FROZEN.read_text())[key]
    assert json.loads(out)["min_beta"] == 10
    assert set(calls.values()) == {1}  # no range scaled twice
    assert len(calls) == 131  # 18 for the P_{ell,i,s}, 113 for the sums at 6 betas


def test_eval_reduces_no_certified_value(capsys, monkeypatch):
    # `eval` reads its values only as the unreduced pairs the sums reach:
    # with the reduced value unreadable, the benchmark's 4096-bit op still
    # writes the report bytes its frozen table pins; the package makes no
    # reduced error at all
    def unreadable(self):
        raise AssertionError("the eval path reduced a BigFloat")

    assert not hasattr(BigFloat, "error")
    monkeypatch.setattr(BigFloat, "value", property(unreadable))
    key = "eval --a=1/3,1/4,1/5 --b=1/2,2/3 --z=1/3 --bits=4096"
    assert main(key.split()) == 0
    out = capsys.readouterr().out
    frozen = json.loads(_FROZEN.read_text())
    assert hashlib.sha256(out.encode()).hexdigest() == frozen[key]


def test_certify_reports_match_frozen(capsys):
    # the benchmark's four default-seed `certify` ops (wronskian at r*m = 6
    # and r*m <= 4), run in process: every report byte must match the sha256
    # the benchmark pins in its frozen table
    frozen = json.loads(_FROZEN.read_text())
    keys = sorted(k for k in frozen if k.split()[0] == "wronskian")
    assert len(keys) == 4
    for key in keys:
        assert main(key.split()) == 0, key
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == frozen[key], key


@pytest.mark.parametrize("key", [
    "wronskian --a=1/3,1/4 --b=1/2 --alphas=1,2 --n=3",
    "wronskian --a=1/3,1/4,1/5 --b=1/2,2/3 --alphas=1,2 --n=2",
])
def test_the_wronskian_chain_makes_no_table_of_fractions(key, capsys):
    # every table the chain reads is an integer row from its closed form:
    # the Fraction routes of the zeta-prefix weights, the phi-functionals
    # and the series of F_s are test oracles and not in the package at
    # all, and the certify ops at r2m2n3 and r3m2n2 write the report bytes
    # the frozen table pins
    import sys

    for name, module in list(sys.modules.items()):
        if name.startswith("hgpade"):
            assert not hasattr(module, "phi_zeta_s"), name
            assert not hasattr(module, "expand_F_s"), name
            assert not hasattr(module, "zeta_prefix_weights"), name
    assert main(key.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == json.loads(_FROZEN.read_text())[key]


def test_criterion_names_the_beta_that_the_ratio_bound_needs(capsys):
    # |alpha/beta| = 3/4 < 1, but the ratio bound past the n = 4 window is
    # c = 203/144 and |alpha/beta| c >= 1: the error names the bound and
    # --beta, the one flag that meets it, and not the window, which no
    # criterion flag sets
    assert main(["criterion", *R2, "--alphas=3", "--beta=4", "--n-range=4:8"]) == 1
    err = capsys.readouterr().err
    assert "InsufficientPrecision" in err
    assert "|alpha/beta| < 1/c = 144/203, got 3/4" in err
    assert "--beta, |beta| > |alpha| c = 203/48" in err
    assert "truncation" not in err


def test_min_beta_report(capsys):
    code = main(["min-beta", *R2, "--alphas", "1",
                 "--search-bound", "64", "--n-range", "4:8"])
    assert code == 0
    report = _json_out(capsys)
    assert report["min_beta"] == 5
    assert report["search_bound"] == 64
    assert report["n_range"] == [4, 8]
    assert report["place"] == "inf"
    assert report["V_emp"] == pytest.approx(0.02518398663377175, rel=1e-9)


def test_each_system_is_built_once(monkeypatch, capsys, spec_r2):
    # min-beta's bisection and its report's V_emp share one Instance;
    # criterion builds its window once (the from_roots specialization check
    # rebuilds the top P family only, not a system)
    built = []
    real = criterion.build_system

    def counting(*args, **kwargs):
        built.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(criterion, "build_system", counting)
    assert main(["min-beta", *R2, "--alphas", "1", "--n-range=4:8",
                 "--search-bound=64"]) == 0
    report = _json_out(capsys)
    assert sorted(built) == [4, 5, 6, 7, 8]
    fresh = criterion.Instance(spec_r2, (Fraction(1),), range(4, 9))
    assert report["V_emp"] == criterion_V(
        fresh, Fraction(report["min_beta"]), Place())

    built.clear()
    assert main(["criterion", *R2, "--alphas", "1", "--n-range=4:8"]) == 0
    capsys.readouterr()
    assert sorted(built) == [4, 5, 6, 7, 8]


def test_min_beta_certifies_without_the_floor_that_cannot_converge(capsys, spec_r2):
    # at alpha = 3 the remainder sums at the floor beta = 4 find no
    # contracting tail-ratio bound (`InsufficientPrecision`); the answer does
    # not depend on V there, and the search certifies V(89) <= 0 < V(90)
    # without evaluating it
    assert main(["min-beta", *R2, "--alphas=3", "--n-range=4:8",
                 "--search-bound=1024"]) == 0
    report = _json_out(capsys)
    assert report["min_beta"] == 90
    fresh = criterion.Instance(spec_r2, (Fraction(3),), range(4, 9))
    assert criterion_V(fresh, Fraction(89), Place()) <= 0
    assert report["V_emp"] == criterion_V(fresh, Fraction(90), Place()) > 0


def test_min_beta_nothing_found_exit_1(capsys):
    code = main(["min-beta", *R2, "--alphas", "1",
                 "--search-bound", "2", "--n-range", "4:8"])
    assert code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["min_beta"] is None
    assert "no beta" in captured.err


# ---------------------------------------------------------------------------
# report formats and determinism
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical_across_runs(tmp_path):
    argv = ["criterion", *R2, "--alphas", "1", "--beta", "1000000",
            "--n-range", "4:9"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_report_is_sorted_with_one_trailing_newline():
    text = emit_report({"b": 1, "a": Fraction(1, 2)}, "json", None)
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert json.loads(text) == {"a": "1/2", "b": 1}
    assert text.index('"a"') < text.index('"b"')


def test_csv_format_flattens_dotted_keys(capsys):
    code = main(["criterion", *R2, "--alphas", "1", "--beta", "1000000",
                 "--n-range", "4:9", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    keys = [line.split(",", 1)[0] for line in lines]
    assert "A_emp" in keys
    assert "diagnostics.fit_A.ok" in keys
    assert keys == sorted(keys)


def test_text_format_renders_nested_report(capsys):
    code = main(["criterion", *R2, "--alphas", "1", "--beta", "1000000",
                 "--n-range", "4:9", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: True" in out
    assert "diagnostics:" in out


# ---------------------------------------------------------------------------
# config file merging
# ---------------------------------------------------------------------------


def test_config_file_mirrors_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "a": "1/3,1/4", "b": "1/2", "alphas": "1", "n": 1,
    }))
    assert main(["build", "--config", str(cfg)]) == 0
    assert _json_out(capsys)["n"] == 1


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "a": "1/3,1/4", "b": "1/2", "alphas": "1", "n": 1,
    }))
    assert main(["build", "--config", str(cfg), "--n", "2"]) == 0
    assert _json_out(capsys)["n"] == 2


@pytest.mark.parametrize("argv, config, key", [
    # misspelled, or a flag of another command: both were ignored
    (["build", *R2, "--alphas=1", "--n=1"], {"alpha": "1,2", "bits": 64}, "alpha"),
    (["build", *R2, "--alphas=1", "--n=1"], {"bits": 64}, "bits"),
    (["eval", *R2, "--z=1/7"], {"n": 1}, "n"),
    (["wronskian", *R2, "--alphas=1", "--n=1"], {"n_range": "4:7"}, "n_range"),
    (["wronskian", *R2, "--alphas=1", "--n=1"], {"seed": 0}, "seed"),
    (["criterion", *R2, "--alphas=1"], {"command": "eval"}, "command"),
    (["build", *R2, "--alphas=1", "--n=1"], {"config": "other.json"}, "config"),
])
def test_config_key_outside_the_commands_flags_exits_1(argv, config, key, tmp_path,
                                                       capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([*argv, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"--config: {key!r} is not a flag of {argv[0]}" in captured.err
    assert captured.out == ""


def test_argv_and_config_values_share_one_parser(tmp_path, capsys):
    # the same bad text gives the same error whether it comes from argv or
    # from --config, for every flag of every command (--out would write a
    # file, and --config names the file itself)
    path = tmp_path / "cfg.json"
    for command, (_, flags) in COMMANDS.items():
        for flag in flags:
            if flag in ("--out", "--config"):
                continue
            assert main([command, f"{flag}=x"]) == 1, (command, flag)
            from_argv = capsys.readouterr().err
            path.write_text(json.dumps({flag[2:]: "x"}))
            assert main([command, "--config", str(path)]) == 1, (command, flag)
            assert capsys.readouterr().err == from_argv
            assert flag in from_argv, (command, flag)


def test_config_file_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["build", "--config", str(cfg)]) == 1
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, flag", [
    (["criterion", *R2, "--alphas", "1", "--epsilon", "nan"], None, "--epsilon"),
    (["criterion", *R2, "--alphas", "1", "--epsilon", "inf"], None, "--epsilon"),
    (["criterion", *R2, "--alphas", "1", "--epsilon=-1"], None, "--epsilon"),
    (["criterion", *R2, "--alphas", "1"], {"epsilon": "x"}, "--epsilon"),
    (["criterion", *R2, "--alphas", "1", "--beta", "0"], None, "--beta"),
    (["build", *R2, "--alphas", "1"], {"n": "x"}, "--n"),
    (["build", *R2, "--alphas", "1"], {"n": 1.5}, "--n"),
    (["eval", *R2, "--z", "1/7", "--bits", "-5"], None, "--bits"),
    (["eval", *R2, "--z", "1/7"], {"bits": True}, "--bits"),
    (["min-beta", *R2, "--alphas", "1", "--search-bound=-5"], None, "--search-bound"),
    (["min-beta", *R2, "--alphas", "1"], {"search_bound": 0}, "--search-bound"),
    (["eval", *R2, "--z", "1/7", "--bits=16384"], None, "--bits"),
    (["eval", *R2, "--z", "1/7", "--bits=100000000"], None, "--bits"),
    (["eval", "--a=1000000000000000000000000000000", "--z=1/7"], None, "--a"),
    (["eval", "--a=1/3,1/1001", "--b=1/2", "--z=1/7"], None, "--a"),
    (["criterion", "--a=1/3,1/4", "--b=-1001", "--alphas=1"], None, "--b"),
    (["eval", "--z=1/7"], {"a": "1/3,1/4", "b": "1/1000000000"}, "--b"),
    # the step budget provably cannot reach 2^-512 this close to |z| = 1
    (["eval", "--a=1/3,1/4", "--b=1/2", "--z=999/1000", "--bits=512"], None, "--z"),
    # closer still, the stop tests would start past k = 10^9: over the cap
    (["eval", "--a=1/3,1/4", "--b=1/2", "--z=999999999/1000000000", "--bits=64"],
     None, "--z"),
    # three sizes n cannot carry a rate fit: refused before any system is built
    (["criterion", "--a=1/3,1/4", "--b=1/2", "--alphas=1,2", "--beta=1000000000",
      "--n-range=20:22"], None, "--n-range"),
    (["min-beta", *R2, "--alphas", "1", "--search-bound=100000"],
     {"n_range": "20:22"}, "--n-range"),
    # a config value is read as its JSON text: neither true nor 2.0 is an integer
    (["build", *R2, "--alphas", "1"], {"n": True}, "--n"),
    (["build", *R2, "--alphas", "1"], {"n": 2.0}, "--n"),
    (["wronskian", *R2, "--alphas", "1"], {"n": 2000}, "--n"),
    (["criterion", *R2, "--alphas", "1"], {"epsilon": True}, "--epsilon"),
    (["criterion", *R2, "--alphas", "1", "--format=yaml"], None, "--format"),
    (["criterion", *R2, "--alphas", "1"], {"format": "yaml"}, "--format"),
    # flags are never abbreviated: --n is not criterion's --n-range
    (["criterion", *R2, "--alphas", "1", "--n=4:7"], None, "unrecognized arguments: --n="),
    # no command takes a seed
    (["wronskian", *R2, "--alphas=1", "--n=1", "--seed=0"], None,
     "unrecognized arguments: --seed=0"),
    # min-beta bisects in log beta, and V grows in log|beta| at the
    # archimedean place alone: it takes no --place, from argv or --config
    (["min-beta", *R2, "--alphas=1", "--search-bound=16", "--place", "inf"], None,
     "unrecognized arguments: --place inf"),
    (["min-beta", *R2, "--alphas=1", "--search-bound=16", "--place=5"], None,
     "unrecognized arguments: --place=5"),
    (["min-beta", *R2, "--alphas=1", "--search-bound=16"], {"place": "inf"},
     "--config: 'place' is not a flag of min-beta"),
])
def test_bad_input_exits_1_naming_the_flag(argv, config, flag, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# fuzzed argv: every command, valid flags mixed with bad values
# ---------------------------------------------------------------------------

_BAD = ("nan", "inf", "-5", "0", "x", "1/0", "", "--")
_HUGE = str(10**30)

# Valid values keep each run cheap (n <= 2, windows within 4:7, bits <= 256,
# search bounds <= 16).  Huge integers go only where they are rejected or
# cost nothing: a huge n or top of --n-range is rejected by the cap on n,
# and a huge a, b or z (also one of modulus just below 1) by the height cap.
_SPECS = (("1/3,1/4", "1/2"), ("1/3", ""), ("1/5,2/7", "1/2"))
_VALID = {
    "--c0": ("1", "2/3"),
    "--alphas": ("1", "1,2"),
    "--n": ("1", "2"),
    "--truncation": ("8",),
    "--beta": ("1000000", "10"),
    "--place": ("inf", "5"),
    "--epsilon": ("0.1",),
    "--bits": ("64", "256"),
    "--z": ("1/7", "-1/3"),
    "--n-range": ("4:7",),
    "--search-bound": ("5", "16"),
    "--format": ("json", "text", "csv"),
}
_ODD = {
    "--a": (_HUGE, "1/" + _HUGE, "1/3,-" + _HUGE),
    "--b": (_HUGE, "1/" + _HUGE),
    "--c0": (_HUGE,),
    "--alphas": (_HUGE, "1,1"),
    "--n": ("-" + _HUGE, _HUGE),
    "--truncation": ("-" + _HUGE,),
    "--beta": (_HUGE, "1/2"),
    "--place": ("4", "p", _HUGE),
    "--epsilon": ("1e400", _HUGE),
    "--bits": ("16384", _HUGE),
    "--z": ("1", _HUGE, "-999999999/1000000000"),
    "--n-range": ("7:4", "0:7", "4:5", _HUGE, "4:" + _HUGE),
    "--search-bound": ("-" + _HUGE,),
    "--format": ("yaml",),
    "--system": ("no-such-system.json",),
    "--config": ("no-such-config.json",),
}
# each command's flags, from the CLI's own table; --out is left out, since
# any value writes a file
_FLAGS = {command: tuple(flag for flag in flags if flag != "--out")
          for command, (_, flags) in COMMANDS.items()}
# given a valid value unless drawn bad: without them a run stops at once,
# or (--n-range) falls back to an expensive default window
_NEEDED = ("--a", "--b", "--alphas", "--n", "--z", "--n-range", "--search-bound")


def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_each_bad_value_exits_cleanly(command):
    # every bad value of every flag, the other flags at a cheap valid value
    # (r = 1)
    flags = _FLAGS[command]
    base = {"--a": "1/3", "--b": ""}
    base.update((flag, values[0]) for flag, values in _VALID.items())
    base = {flag: base[flag] for flag in flags if flag in base}
    for flag in flags:
        for value in _BAD + _ODD.get(flag, ()):
            argv = {**base, flag: value}
            _exits_cleanly([command, *(f"{f}={v}" for f, v in argv.items())])


@st.composite
def _argvs(draw):
    """One command with at most two flags given bad values; the others get
    a valid value or are left out."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    bad = draw(st.sets(st.sampled_from(flags), max_size=2))
    a, b = draw(st.sampled_from(_SPECS))
    valid = {**_VALID, "--a": (a,), "--b": (b,), "--system": (), "--config": ()}
    argv = [command]
    for flag in flags:
        if flag in bad:
            value = draw(st.sampled_from(_BAD + _ODD.get(flag, ())))
        elif valid[flag] and (flag in _NEEDED or draw(st.booleans())):
            value = draw(st.sampled_from(valid[flag]))
        else:
            continue
        argv.append(f"{flag}={value}")
    return argv


@settings(deadline=None, derandomize=True, max_examples=100)
@given(_argvs())
@example(["criterion", *_R2, "--alphas=1", "--epsilon=--"])
@example(["eval", "--a=--", "--b=", "--z=1/2"])
def test_fuzzed_argv_never_tracebacks(argv):
    _exits_cleanly(argv)


# the argv mix of the reader's property test: the command's own flags in
# both forms, repeated, beside unknown and abbreviated flags, help, missing
# values, positional arguments and `--`, with texts that argparse reads in
# its own way (`--` dropped, a leading `-` read as a flag)
_ODD_FLAGS = ("--frobnicate", "--n", "--alph", "--sys", "--bi", "--ep", "-h", "--help")
_TEXTS = ("", "-5", "-1/3", "--", "-", "=", "a=b", "1/3,1/4", "4:7", "json", "1 2")


@st.composite
def _reader_argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command][1]
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(flags) if draw(st.integers(0, 9))
                    else st.sampled_from(_ODD_FLAGS))
        text = draw(st.sampled_from(_TEXTS))
        argv += draw(st.sampled_from(([f"{flag}={text}"], [flag, text]) * 8
                                     + ([flag], [text], ["--"])))
    return argv


@settings(deadline=None, derandomize=True, max_examples=500)
@given(_reader_argvs())
@example(["criterion", "--epsilon=--"])
@example(["criterion", "--epsilon", "--"])
@example(["eval", "--a", "-1/3", "--z=-1/3", "--b", "", "--a=a=b", "--bits", "="])
def test_the_argv_reader_reads_what_argparse_reads_or_defers(argv):
    # every argv the reader takes, argparse reads to the same texts, value
    # for value, so one that argparse refuses (help, a usage error) is
    # always left to it
    command, tokens = argv[0], argv[1:]
    texts = _read_argv(COMMANDS[command][1], tokens)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = _argparse_texts(command, tokens)
        except SystemExit:
            expected = None
    assert texts is None or texts == expected, argv


def test_the_argv_reader_takes_both_flag_forms_and_the_last_occurrence():
    flags = COMMANDS["eval"][1]
    assert _read_argv(flags, ["--a", "1/3", "--z=-1/2", "--a=1/5", "--b", ""]) == {
        "--a": "1/5", "--z": "-1/2", "--b": ""}
    # argparse turns `--epsilon=--` into [], and reads `--a -1/3` as two flags
    for tokens in (["--z=--"], ["--a", "-1/3"], ["--a"], ["--", "--a=1"], ["-h"],
                   ["--a=1", "extra"], ["--bi=64"]):
        assert _read_argv(flags, tokens) is None


def test_the_runtime_is_standard_library_only():
    # importing the front end in a fresh interpreter loads no module outside
    # the standard library but hgpade's own, and not argparse (nor gettext
    # and locale, which it loads): argparse is for help and usage errors
    # only, so the 32 frozen benchmark argv, run in that interpreter, write
    # their frozen bytes without it
    import os
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hgpade.cli\n"
        "loaded = sorted({name.split('.')[0] for name in set(sys.modules) - before})\n"
        "import contextlib, hashlib, io, json\n"
        "digests = {}\n"
        "for key in json.loads(open(sys.argv[1], encoding='utf-8').read()):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = hgpade.cli.main(key.split(' '))\n"
        "    digests[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()\n"
        "print(json.dumps({'loaded': loaded, 'digests': digests,\n"
        "                  'argparse_after': 'argparse' in sys.modules}))\n"
    )
    frozen_path = root / "perfbench" / "frozen.json"
    got = subprocess.run([sys.executable, "-c", probe, str(frozen_path)],
                         capture_output=True, text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    got = json.loads(got.stdout)
    loaded = set(got["loaded"])
    assert "hgpade" in loaded
    assert not {name for name in loaded
                if name != "hgpade" and name not in sys.stdlib_module_names}
    assert not {"argparse", "gettext", "locale"} & loaded
    frozen = json.loads(frozen_path.read_text())
    assert len(frozen) == 32
    assert got["digests"] == frozen
    assert got["argparse_after"] is False


def test_the_pade_module_loads_neither_numerics_nor_linalg():
    # building and checking a system needs no series evaluation and no
    # kernel solver: importing `hgpade.pade` in a fresh interpreter loads
    # neither `hgpade.numerics` nor `hgpade.linalg`
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, hgpade.pade\nprint('\\n'.join(sys.modules))\n"
    got = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    loaded = set(got.stdout.split())
    assert "hgpade.pade" in loaded
    assert not {"hgpade.numerics", "hgpade.linalg"} & loaded


def _module_names(node) -> list:
    # the names a module-level statement defines: a function's or a class's,
    # or the plain names it assigns to
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _outside_bases(cls: ast.ClassDef, tree: ast.Module) -> list:
    """The direct bases of a class statement that come from outside the
    package, imported: a base written as module.Name after `import module`,
    or as a name from `from module import Name` or from the builtins."""
    modules = {alias.asname or alias.name: alias.name for node in tree.body
               if isinstance(node, ast.Import) for alias in node.names}
    names = {alias.asname or alias.name: (node.module, alias.name) for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 0
             for alias in node.names}
    bases = []
    for base in cls.bases:
        if (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                and base.value.id in modules):
            bases.append(getattr(importlib.import_module(modules[base.value.id]), base.attr))
        elif isinstance(base, ast.Name) and base.id in names:
            module, name = names[base.id]
            bases.append(getattr(importlib.import_module(module), name))
        elif isinstance(base, ast.Name) and hasattr(builtins, base.id):
            bases.append(getattr(builtins, base.id))
    return bases


def _unreferenced_functions(root: Path) -> list:
    """The module-level functions, classes and assigned names of src/hgpade,
    dunders aside, that no code in src/ or demos/ reads, outside their own
    statement, as a name or as an attribute; and the methods of its
    classes, dunders aside, that no such code reads as an attribute outside
    their own body.  A method that overrides a method of a base class from
    outside the package (`_outside_bases`) is read by that base, as
    argparse calls `error` on a parser."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs, reads = [], []
    for path in sorted([*root.glob("src/hgpade/*.py"), *root.glob("demos/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent.name == "hgpade":
            defs += [(path, f"{path.stem}.{name}", name, node, True)
                     for node in tree.body for name in _module_names(node)
                     if not name.startswith("__")]
            for cls in tree.body:
                if not isinstance(cls, ast.ClassDef):
                    continue
                outside = _outside_bases(cls, tree)
                defs += [(path, f"{path.stem}.{cls.name}.{node.name}", node.name, node, False)
                         for node in cls.body if isinstance(node, functions)
                         and not node.name.startswith("__")
                         and not any(hasattr(base, node.name) for base in outside)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, False, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((node.attr, True, path, node.lineno))
    return sorted(
        label for path, label, defined, node, by_name in defs
        if not any(name == defined and (by_name or attribute)
                   and not (where == path and node.lineno <= line <= node.end_lineno)
                   for name, attribute, where, line in reads))


def test_code_only_the_tests_use_leaves_src(tmp_path):
    # every module-level function, class and assigned name and every method
    # of the package is read by the package or its demos; one that only the
    # tests read belongs in the tests
    root = Path(__file__).resolve().parents[1]
    assert _unreferenced_functions(root) == []
    # the guard sees a function or a method that only its own body reads, a
    # method read only as a bare name, and a class or an assigned name that
    # nothing reads, dunders aside; an override of a method of a base from
    # outside the package is read by that base, and the same name on a
    # plain class is not
    (tmp_path / "src" / "hgpade").mkdir(parents=True)
    (tmp_path / "src" / "hgpade" / "lone.py").write_text(
        "import argparse\n\n__all__ = ['used']\n\n\n"
        "def lone(k):\n    return lone(k - 1) if k else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "class Box:\n    def __init__(self):\n        self.k = 0\n\n"
        "    def spin(self, k):\n        return self.spin(k - 1) if k else 0\n\n"
        "    def named(self):\n        return 1\n\n"
        "    def read(self):\n        return used()\n\n\n"
        "class Spare(Box):\n    pass\n\n\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(1)\n\n\n"
        "class Plain:\n    def error(self, message):\n        return message\n\n\n"
        "VALUE = (Box().read() + named, Parser, Plain)\n")
    assert _unreferenced_functions(tmp_path) == ["lone.Box.named", "lone.Box.spin",
                                                 "lone.Plain.error", "lone.Spare",
                                                 "lone.VALUE", "lone.lone"]
