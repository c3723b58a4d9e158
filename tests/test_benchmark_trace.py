"""The benchmark's traced run (`perfbench/worker.py --trace 1`) binds some
arguments of the package by name: `truncation` and `cross_check` of
`build_system`, `route` of `C_um`, and those of `remainder_value`.  A
refactor that renames one breaks the traced run; this module runs one cheap
op of each workload traced, and the certify op at r*m = 6, and reads their
counts as `perfbench/run.py` does.
It only reads `perfbench/`: no bytecode is written there."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("run")
    finally:
        sys.dont_write_bytecode = write
        sys.path.remove(str(BENCH))


# counts a change to how the values are computed must neither raise nor
# lower: the C_{u,m} evaluations and the determinants of the r*m = 6
# certify op (r3m2n2), and the min-beta op's remainder sums
PINNED_CALLS = {("certify", 0): {"wronskian.C_um.calls": 2,
                                 "linalg.det_bareiss.calls": 4},
                ("measure", 2): {"numerics.remainder_value.calls": 390}}


@pytest.mark.parametrize("workload, index", [
    ("certify", 0), ("certify", 4), ("measure", 0), ("measure", 2), ("series", 1)])
def test_traced_op_runs_and_counts_its_layers(bench, workload, index):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run(
        [sys.executable, "worker.py", "--workload", workload, "--seed", "0",
         "--index", str(index), "--trace", "1"],
        cwd=BENCH, env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
    record = json.loads(child.stdout)
    assert record["failure"] is None, record["stderr"]
    names = (*bench.EXPECT_ZERO[workload], *bench.EXPECT_NONZERO[workload])
    layers = {name: bench.layer_value(name, record["trace"], 1.0) for name in names}
    assert bench.self_check(workload, layers) == []
    for name, calls in PINNED_CALLS.get((workload, index), {}).items():
        assert bench.layer_value(name, record["trace"], 1.0) == calls, name
