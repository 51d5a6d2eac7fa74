"""The fuzz driver instruments each (case, tool) once for both fast-path
cells: instrumentation does not depend on ``fastpath``.

The interprocedural-off and elision-audit runs use other
instrumentation configs, so they still instrument on their own.  Every
pipeline starts from one shared fold, so constant propagation runs once
per case.
"""

import pytest

from repro.fuzz import ALL_TOOLS, case_seed_for, generate_case, run_case
from repro.fuzz import driver
from repro.fuzz.driver import INTERPROC_TOOLS, fuzz_span
from repro.passes import ConstantPropagation
from repro.runtime import ExecConfig
from repro.runtime import session as session_module


@pytest.fixture
def counts(monkeypatch):
    """Calls of the session's ``instrument`` and of the driver's
    ``_session`` (one sanitizer each)."""
    seen = {"instrument": 0, "sessions": 0}
    instrument, make_session = session_module.instrument, driver._session

    def counting_instrument(*args, **kwargs):
        seen["instrument"] += 1
        return instrument(*args, **kwargs)

    def counting_session(*args, **kwargs):
        seen["sessions"] += 1
        return make_session(*args, **kwargs)

    monkeypatch.setattr(session_module, "instrument", counting_instrument)
    monkeypatch.setattr(driver, "_session", counting_session)
    return seen


def test_one_instrumentation_per_tool(counts):
    run_case(generate_case(case_seed_for(0, 3)), ALL_TOOLS,
             config=ExecConfig())
    assert counts["instrument"] == len(ALL_TOOLS) + len(INTERPROC_TOOLS)
    # no extra session just to instrument: two cells per tool
    assert counts["sessions"] == 2 * len(ALL_TOOLS) + len(INTERPROC_TOOLS)


def test_audit_adds_one_instrumentation_per_tool(counts):
    run_case(generate_case(case_seed_for(0, 3)), ALL_TOOLS,
             audit_elisions=True, config=ExecConfig())
    assert counts["instrument"] == 2 * len(ALL_TOOLS) + len(INTERPROC_TOOLS)


@pytest.mark.parametrize("audit", [False, True])
def test_one_fold_per_case(monkeypatch, audit):
    folds = []
    run = ConstantPropagation.run

    def counting_run(self, program, stats):
        folds.append(program)
        return run(self, program, stats)

    monkeypatch.setattr(ConstantPropagation, "run", counting_run)
    run_case(generate_case(case_seed_for(0, 3)), ALL_TOOLS,
             audit_elisions=audit, config=ExecConfig())
    assert len(folds) == 1


def test_fold_crash_is_a_finding_per_tool(monkeypatch):
    def crashing_run(self, program, stats):
        raise RuntimeError("fold blew up")

    monkeypatch.setattr(ConstantPropagation, "run", crashing_run)
    case = generate_case(case_seed_for(0, 3))
    report = run_case(case, ALL_TOOLS, config=ExecConfig())
    assert [(d.tool, d.kind) for d in report.divergences] == [
        (tool, "crash") for tool in ALL_TOOLS
    ]
    assert all(
        d.case_seed == case.seed and d.detail == "RuntimeError: fold blew up"
        for d in report.divergences
    )


def test_span_outcome_matches_two_instrumentation_path():
    # pinned from the driver that instrumented each fast-path cell apart
    summary = fuzz_span(0, 0, 20, config=ExecConfig())
    assert summary.cases == 20
    assert summary.buggy_cases == 11
    assert summary.invariant_checks == 1212
    assert summary.findings == []
