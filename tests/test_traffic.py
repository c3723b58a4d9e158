"""Smoke test of the traffic audit, tools/traffic.py, on a short op list."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
R2 = ("--a=1/3,1/4", "--b=1/2")


def _load_traffic():
    spec = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(*dirs) -> dict:
    return {path: (stat.st_mtime_ns, stat.st_size)
            for d in dirs for path in (ROOT / d).rglob("*") if path.is_file()
            for stat in [path.stat()]}


def test_traffic_lists_what_a_short_run_leaves_unexecuted():
    from hgpade import criterion, wronskian
    from hgpade.cli import _cmd_eval

    before = _tree("src", "perfbench")
    traffic = _load_traffic()
    # the full audit's runs: the benchmark's ops at three seeds, each once,
    # and the README's command block, from `build` to `eval`
    ops = traffic.workload_ops()
    assert len(ops) == len(set(ops))
    assert {argv[0] for argv in ops} == {"wronskian", "criterion", "min-beta", "eval"}
    readme = traffic.readme_commands()
    assert [argv[0] for argv in readme] == ["build", "verify", "verify", "wronskian",
                                            "criterion", "min-beta", "eval"]

    hits, exits, memos = traffic.run_traced([("eval", *R2, "--z=1/7", "--bits=64"),
                                             ("wronskian", *R2, "--alphas=1", "--n=1")], [])
    assert exits == {}
    missed = traffic.unexecuted(hits)
    # a function no run entered is listed from its first line on; one that
    # ran is listed only by its lines that did not, such as eval's refusal
    # of a missing --z
    assert criterion.min_beta.__code__.co_firstlineno in missed["criterion.min_beta"]
    eval_missed = missed["cli._cmd_eval"]
    assert _cmd_eval.__code__.co_firstlineno not in eval_missed
    assert len(eval_missed) < 5
    assert (wronskian.certify_nonvanishing.__code__.co_firstlineno
            not in missed.get("wronskian.certify_nonvanishing", []))
    text = traffic.report(missed)
    assert text.splitlines()[0].startswith(f"{sum(map(len, missed.values()))} lines in ")
    assert len(text.splitlines()) == len(missed) + 1
    # the Wronskian run reads its weight runs and term lists again (Theta
    # and the contract read the windows of one head), and each count line
    # names its table; the wrappers are gone after the runs
    for table in ("PadeSystem._kept run", "PadeSystem._kept terms"):
        made, again = memos[table]
        assert made > 0 and again > 0, table
    lines = traffic.memo_report(memos).splitlines()
    assert len(lines) == len(memos)
    assert f"memo PadeSystem._kept terms: {made} made, {again} re-read" in lines
    from hgpade import pade, polyops
    assert pade.PadeSystem._kept.__qualname__ == "PadeSystem._kept"
    assert polyops._grown.__qualname__ == "_grown"
    # nothing under src/ or perfbench/ was written
    assert _tree("src", "perfbench") == before
