"""The static analyses compute only the facts some consumer reads.

* :func:`compute_summaries` summarizes the functions some call reaches;
  the whole-program view adds the uncalled ones itself.
* A function without parameters skips the must-analyses, whose exit
  facts are keyed by parameter roots.
* Loop-check promotion solves trip counts only in ``hoist`` mode, the
  one mode that reads them, and only for functions with a loop.
* Instrumentation reads no summary: the identity test instruments a
  mixed corpus as is and with every function summarized, compares
  everything instrumentation reports, and finds no table built.
"""

import re

import pytest

import repro.dataflow
from repro.dataflow import (
    AvailableCheckAnalysis,
    IntervalAnalysis,
    MustAccessAnalysis,
    build_call_graph,
    compute_summaries,
    whole_program_data,
)
from repro.dataflow import interproc, summaries as summaries_module
from repro.fuzz import build_case, case_seed_for, generate_case
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import V
from repro.passes.base import PassStats
from repro.passes.instrument import (
    fold_program,
    instrument,
    program_fingerprint,
)
from repro.passes.loop_promotion import LoopCheckPromotion
from repro.sanitizers import SANITIZER_FACTORIES
from repro.workloads import build_callheavy_program
from repro.workloads.juliet import generate_juliet_suite
from repro.workloads.spec import SPEC_TABLE2_ROWS


def _scope_fixture():
    """``main -> f -> g``, an uncalled ``h``, a self-recursive ``r``."""
    b = ProgramBuilder()
    with b.function("g", params=["p"]) as g:
        g.load("x", "p", 0, 8)
        g.ret(V("x"))
    with b.function("f", params=["p"]) as f:
        f.call("g", [V("p")], dst="y")
        f.ret(V("y"))
    with b.function("h", params=["p"]) as h:
        h.call("g", [V("p")], dst="z")
        h.free("p")
        h.ret(0)
    with b.function("r", params=["n"]) as r:
        r.call("r", [V("n")])
        r.ret(0)
    with b.function("main") as m:
        m.malloc("buf", 16)
        m.call("f", [V("buf")], dst="v")
        m.free("buf")
        m.ret(V("v"))
    return b.build()


def _every_function(program, graph=None):
    """The summary table with every function summarized, bottom-up."""
    graph = graph or build_call_graph(program)
    table = {}
    for name in graph.bottom_up():
        table[name] = summaries_module._summary_of(program, graph, name, table)
    return table


class TestCalledOnly:
    def test_summarizes_exactly_the_called_functions(self):
        table = compute_summaries(_scope_fixture())
        assert set(table) == {"f", "g", "r"}
        assert table["r"].recursive
        assert table["r"].may_free_unknown
        assert table["g"].param_facts[0].must_access == ((0, 8),)
        assert table["f"].param_facts[0].must_access == ((0, 8),)

    def test_called_summaries_match_a_full_walk(self):
        program = _scope_fixture()
        full = _every_function(program)
        for name, summary in compute_summaries(program).items():
            assert summary == full[name]

    def test_whole_program_view_lists_every_function(self):
        program = _scope_fixture()
        data = whole_program_data(program)
        assert sorted(data["summaries"]) == ["f", "g", "h", "main", "r"]
        assert data["summaries"]["h"]["param_facts"]["p"]["freed"]
        full = _every_function(program)
        for name, summary in full.items():
            assert data["summaries"][name] == summary.as_dict()


def _solved_analyses(monkeypatch, module):
    """Record the analysis class of every ``module.solve`` call."""
    seen = []
    real = module.solve

    def recording(cfg, analysis):
        seen.append(type(analysis))
        return real(cfg, analysis)

    monkeypatch.setattr(module, "solve", recording)
    return seen


class TestSkippedSolves:
    def test_parameterless_function_skips_must_analyses(self, monkeypatch):
        b = ProgramBuilder()
        with b.function("fill") as f:
            f.malloc("buf", 16)
            f.store("buf", 0, 8, 1)
            f.free("buf")
            f.ret(0)
        with b.function("main") as m:
            m.call("fill", [])
            m.ret(0)
        seen = _solved_analyses(monkeypatch, summaries_module)
        table = compute_summaries(b.build())
        assert seen == [IntervalAnalysis]
        assert table["fill"].param_facts == ()

    def test_parameters_keep_must_analyses(self, monkeypatch):
        seen = _solved_analyses(monkeypatch, summaries_module)
        compute_summaries(_scope_fixture())
        # f and g each: intervals, available checks, must-access
        assert seen.count(AvailableCheckAnalysis) == 2
        assert seen.count(MustAccessAnalysis) == 2

    def _loop_program(self):
        b = ProgramBuilder()
        with b.function("walk", params=["p"]) as w:
            with w.loop("i", 0, 4) as i:
                w.store("p", i * 8, 8, i)
            w.ret(0)
        with b.function("main") as m:
            m.malloc("buf", 32)
            m.call("walk", [V("buf")])
            m.free("buf")
            m.ret(0)
        return fold_program(b.build()).program

    def test_region_mode_runs_no_interval_solve(self, monkeypatch):
        program = self._loop_program()
        seen = _solved_analyses(monkeypatch, repro.dataflow)
        pass_ = LoopCheckPromotion("region")
        pass_.run(program, PassStats())
        assert seen == []

    def test_hoist_mode_solves_functions_with_loops(self, monkeypatch):
        program = self._loop_program()
        seen = _solved_analyses(monkeypatch, repro.dataflow)
        pass_ = LoopCheckPromotion("hoist")
        pass_.run(program, PassStats())
        assert seen == [IntervalAnalysis]


# ----------------------------------------------------------------------
# identity: instrumentation as is against every function summarized
# ----------------------------------------------------------------------
_ROOT_ID = re.compile(r"\b(alloc|stack|global|callret):\d+")


def _normalized(text: str) -> str:
    return _ROOT_ID.sub(r"\1:<id>", text)


def _identity_corpus():
    programs = [
        (f"fuzz/{index}", build_case(generate_case(case_seed_for(0, index))))
        for index in range(60)
    ]
    suite = generate_juliet_suite()
    stride = len(suite) // 20
    programs += [(case.case_id, case.program) for case in suite[::stride][:20]]
    programs += [(spec.name, spec.build()) for spec in SPEC_TABLE2_ROWS[:3]]
    programs.append(("callheavy", build_callheavy_program()))
    return [(name, fold_program(program)) for name, program in programs]


def _observed(result) -> tuple:
    stats = result.stats
    return (
        program_fingerprint(result.program),
        stats.baseline_checks,
        stats.eliminated,
        stats.promoted,
        stats.cached_sites,
        stats.remaining_checks,
        {
            key: value
            for key, value in stats.notes.items()
            if not key.startswith("pass_us:")
        },
        [
            (r.function, r.site_id, _normalized(r.root), _normalized(r.reason))
            for r in stats.elisions
        ],
        [_normalized(repr(finding)) for finding in stats.findings],
    )


@pytest.mark.parametrize("tool", ["GiantSan", "ASan--"])
def test_instrumentation_matches_every_function_summarized(
    monkeypatch, tool
):
    corpus = _identity_corpus()
    sanitizer = SANITIZER_FACTORIES[tool]()
    as_is = [
        _observed(instrument(source, tool=sanitizer))
        for _, source in corpus
    ]
    tables = []

    def every_function(program, graph=None):
        tables.append(_every_function(program, graph))
        return tables[-1]

    for owner in (repro.dataflow, interproc, summaries_module):
        monkeypatch.setattr(owner, "compute_summaries", every_function)
    for (name, source), expected in zip(corpus, as_is):
        everything = _observed(instrument(source, tool=sanitizer))
        assert everything == expected, name
    # the passes run intraprocedurally: no pipeline builds a table
    assert tables == []
