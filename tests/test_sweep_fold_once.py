"""The sweeps fingerprint and fold each source once.

Every Tables 2-5 sweep hands one :class:`FoldedProgram` handle per row
or case to every tool's session.  The handle computes its source's
fingerprint at the first memo lookup and folds the source at the first
memo miss, so a cold pass folds each distinct source once, a warm pass
folds nothing, and an unmemoized run fingerprints nothing.
"""

import importlib

import pytest

from repro.analysis.detection import (
    run_juliet_study,
    run_linux_flaw_study,
    run_magma_study,
)
from repro.analysis.overhead import run_overhead_study
from repro.fuzz import driver
from repro.fuzz.driver import fuzz_span
from repro.passes import FoldedProgram
from repro.runtime import ExecConfig, Session, run_with_tools
from repro.workloads.spec import SPEC_TABLE2_ROWS

# the module, not the function ``repro.passes`` exports
instrument_module = importlib.import_module("repro.passes.instrument")


@pytest.fixture
def calls(monkeypatch):
    """The sources passed to ``fold_program`` and to
    ``program_fingerprint``, over an empty instrumentation memo.  The
    lists hold the sources, so no two of them share an ``id``."""
    monkeypatch.setattr(instrument_module, "_MEMO", {})
    seen = {"fold": [], "fingerprint": []}
    fold, fingerprint = (
        instrument_module.fold_program,
        instrument_module.program_fingerprint,
    )

    def counting_fold(source):
        seen["fold"].append(source)
        return fold(source)

    def counting_fingerprint(source):
        seen["fingerprint"].append(source)
        return fingerprint(source)

    monkeypatch.setattr(instrument_module, "fold_program", counting_fold)
    monkeypatch.setattr(driver, "fold_program", counting_fold)
    monkeypatch.setattr(
        instrument_module, "program_fingerprint", counting_fingerprint
    )
    return seen


def _detect_pass():
    run_juliet_study()
    run_linux_flaw_study()
    run_magma_study()


def test_detect_pass_folds_each_source_once(calls):
    _detect_pass()
    # the parent of this design folded 1,525 times and fingerprinted
    # 3,522 times: once per session
    assert len(calls["fold"]) == 394
    assert len(calls["fingerprint"]) == 803
    assert len({id(source) for source in calls["fingerprint"]}) == 803

    calls["fold"].clear()
    calls["fingerprint"].clear()
    _detect_pass()
    assert calls["fold"] == []
    # handles live for one row or case, so a warm pass fingerprints again
    assert len(calls["fingerprint"]) == 803


def test_table2_pass_folds_each_distinct_source_once(calls):
    run_overhead_study()
    # 24 rows, one handle each; the 10 rows whose proxy repeats an
    # earlier one's program hit the memo for every tool
    assert len(calls["fingerprint"]) == len(SPEC_TABLE2_ROWS) == 24
    assert len(calls["fold"]) == 14


def test_unmemoized_fuzz_span_computes_no_fingerprint(calls):
    fuzz_span(0, 0, 10, config=ExecConfig(memoize=False))
    assert calls["fingerprint"] == []
    # the driver folds each case eagerly, to pin a fold crash on it
    assert len(calls["fold"]) == 10


def test_handle_fingerprint_is_the_source_fingerprint(calls):
    source = SPEC_TABLE2_ROWS[0].build()
    handle = FoldedProgram(source)
    assert calls["fingerprint"] == []
    assert handle.fingerprint == (
        instrument_module.program_fingerprint(source)
    )
    assert handle.fingerprint is handle.fingerprint
    assert len(calls["fingerprint"]) == 2
    # fingerprinting does not fold
    assert calls["fold"] == []


def test_handle_folds_on_first_miss_only(calls):
    handle = FoldedProgram(SPEC_TABLE2_ROWS[0].build())
    for tool in ("GiantSan", "ASan", "GiantSan"):
        Session(tool).run(handle, [1])
    assert calls["fold"] == [handle.source]
    again = FoldedProgram(SPEC_TABLE2_ROWS[0].build())
    Session("ASan").run(again, [1])
    assert calls["fold"] == [handle.source]


def test_run_with_tools_folds_once(calls):
    source = SPEC_TABLE2_ROWS[0].build()
    run_with_tools(source, ["Native", "GiantSan", "ASan"], [1])
    assert calls["fold"] == [source]
    assert calls["fingerprint"] == [source]
