"""The golden texts as a whole: the case list against the files under
tests/golden/ and against the tests that run the cases, and the benchmark's
cases against the digests of perfbench/frozen.json, which the benchmark
keeps and these tests only read."""

import hashlib
import importlib
import inspect
import json
from pathlib import Path

import golden_cases


def test_the_cases_and_the_golden_files_match_one_to_one():
    # no file that no case names, and no case without its file; each text
    # stays small enough to review as a diff
    files = {path.relative_to(golden_cases.GOLDEN).with_suffix("").as_posix(): path
             for path in golden_cases.GOLDEN.rglob("*") if path.is_file()}
    assert sorted(files) == sorted(golden_cases.CASES)
    assert all(path.suffix == ".txt" for path in files.values())
    assert max(path.stat().st_size for path in files.values()) <= 150_000


def test_each_case_names_a_test_that_runs_it():
    # `Case.test` is a test function of the suite that runs its own cases
    # (`conftest.run_own_goldens`)
    for test in {case.test for case in golden_cases.CASES.values()}:
        module, _, function = test.partition(".")
        assert function.startswith("test_"), test
        assert "run_own_goldens(request" in inspect.getsource(
            getattr(importlib.import_module(module), function)), test


def test_the_benchmark_cases_have_their_frozen_digests():
    # the stdout of the golden text of each of the benchmark's 32
    # default-seed ops has the sha256 perfbench/frozen.json holds for it,
    # so the two cannot drift apart
    frozen = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "frozen.json")
                        .read_text())
    assert len(frozen) == 32
    assert sorted(frozen) == sorted(golden_cases.BENCH.values())
    for name, key in golden_cases.BENCH.items():
        assert golden_cases.CASES[name].argv == tuple(key.split(" "))
        code, out, err = golden_cases.read_golden(name)
        assert (code, err) == (0, ""), name
        assert hashlib.sha256(out.encode()).hexdigest() == frozen[key], name
