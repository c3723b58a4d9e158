"""Acceptance gate: every check in the desk-scale matrix, one line each.

Each row of `CHECKS` runs through `run_check`, the runner the `hgpade suite`
command uses, as a separate parametrized test, so a red run names the broken
check directly.  One module-level `Desk` keeps the expensive approximant
systems from being rebuilt ten times.
"""

import pytest

from hgpade.suite import CHECKS, SUITE_SEED, Desk, run_check, run_suite

DESK = Desk(SUITE_SEED)


@pytest.mark.parametrize("row", CHECKS, ids=lambda row: row[0].replace("-", "_"))
def test_acceptance(row):
    result = run_check(row, DESK)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.check_id:24} {result.runtime:6.2f}s "
          f"(budget {result.budget_s:.0f}s)")
    assert result.passed, (result.check_id, result.details)
    assert result.runtime <= result.budget_s, (
        f"{result.check_id} took {result.runtime:.2f}s, "
        f"budget {result.budget_s:.0f}s"
    )


def test_runner_records_a_raising_check_as_failed(monkeypatch):
    def explodes(desk):
        raise ValueError("boom")

    monkeypatch.setattr("hgpade.suite.CHECKS",
                        (("always-explodes", "a body that raises", 5.0, explodes),))
    results = run_suite()
    assert len(results) == 1
    res = results[0]
    assert not res.passed
    # the row's own id, description and budget, not ones made up for the error
    assert (res.check_id, res.description, res.budget_s) == (
        "always-explodes", "a body that raises", 5.0)
    assert res.details["error"] == "ValueError: boom"
