"""Smoke test of the scaling points, tools/scaling.py, on one small point."""

import hashlib
import importlib.util
from pathlib import Path

from hgpade.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load_scaling():
    spec = importlib.util.spec_from_file_location("scaling", ROOT / "tools" / "scaling.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scaling_prints_the_time_and_digest_of_each_point(capsys):
    scaling = _load_scaling()
    assert scaling.main(["r2m1n2"]) == 0
    head, columns, line = capsys.readouterr().out.splitlines()
    assert head.split()[0] == "nproc" and int(head.split()[1]) >= 1
    assert columns.split() == ["point", "wall_s", "sha256"]
    point, wall_s, digest = line.split()
    assert point == "r2m1n2" and float(wall_s) > 0
    # the digest is that of the report the command writes
    assert main(["wronskian", "--a=1/3,1/4", "--b=1/2", "--alphas=1", "--n=2"]) == 0
    assert digest == hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_scaling_refuses_a_malformed_point(capsys):
    scaling = _load_scaling()
    assert scaling.main(["r7m1n1"]) == 2
    assert "rRmMnN" in capsys.readouterr().err
    assert scaling.argv_of("r1m2n3") == ["wronskian", "--a=1/3", "--b=", "--alphas=1,2",
                                         "--n=3"]
