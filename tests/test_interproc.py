"""The whole-program listing's analyses: call graph and summaries.

Covers the stack ``repro analyze --whole-program`` prints, bottom-up:
call-graph construction and SCC condensation, bottom-up function
summaries, the analyses rewired to read them (available checks survive
provably non-freeing calls; alloc state only dies through summarized
may-free sets), the detector's cross-call findings, and the CLI.

The sanitizer pipeline reads none of it; the degenerate call shapes
(recursion, aliased frees in a callee, bugs reached through a call)
check that its intraprocedural elisions stay sound there, with the
same observables in every execution cell.
"""

import pytest

from repro.dataflow import (
    LIVE,
    MAYBE,
    AllocStateAnalysis,
    AvailableCheckAnalysis,
    analyze_program,
    build_call_graph,
    compute_summaries,
    lower_function,
    solve,
    whole_program_data,
)
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Call, V
from repro.ir.program import Function, Program
from repro.passes.alias import ProvenanceMap
from repro.passes.instrument import instrument
from repro.runtime.session import ExecConfig, Session
from repro.sanitizers import SANITIZER_FACTORIES
from repro.workloads import build_callheavy_program


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_edges_and_bottom_up_order(self):
        b = ProgramBuilder()
        with b.function("leaf", params=["p"]) as f:
            f.load("x", "p", 0, 8)
            f.ret(V("x"))
        with b.function("mid", params=["p"]) as f:
            f.call("leaf", [V("p")], dst="r")
            f.ret(V("r"))
        with b.function("main") as f:
            f.malloc("buf", 64)
            f.call("mid", [V("buf")], dst="r")
            f.ret(V("r"))
        graph = build_call_graph(b.build())
        assert graph.callees["main"] == {"mid"}
        assert graph.callees["mid"] == {"leaf"}
        order = graph.bottom_up()
        assert order.index("leaf") < order.index("mid") < order.index("main")
        assert not graph.recursive

    def test_self_recursion_flagged(self):
        b = ProgramBuilder()
        with b.function("rec", params=["d"]) as f:
            with f.if_(V("d").gt(0)):
                f.call("rec", [V("d") - 1])
            f.ret(0)
        with b.function("main") as f:
            f.call("rec", [3])
            f.ret(0)
        graph = build_call_graph(b.build())
        assert graph.recursive == {"rec"}

    def test_mutual_recursion_one_scc(self):
        b = ProgramBuilder()
        with b.function("even", params=["d"]) as f:
            with f.if_(V("d").gt(0)):
                f.call("odd", [V("d") - 1])
            f.ret(0)
        with b.function("odd", params=["d"]) as f:
            with f.if_(V("d").gt(0)):
                f.call("even", [V("d") - 1])
            f.ret(0)
        with b.function("main") as f:
            f.call("even", [4])
            f.ret(0)
        graph = build_call_graph(b.build())
        assert graph.recursive == {"even", "odd"}
        assert ["even", "odd"] in [list(s) for s in graph.sccs]

    def test_unknown_target_recorded_not_edged(self):
        # hand-built (validate() would reject the dangling target)
        program = Program()
        program.add(
            Function(name="main", params=[], body=[Call("missing", [], None)])
        )
        program.entry = "main"
        graph = build_call_graph(program)
        assert "main" in graph.unknown_callers
        assert graph.callees["main"] == set()


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def _summary_fixture():
    b = ProgramBuilder()
    with b.function("reader", params=["p"]) as f:
        f.load("x", "p", 0, 8)
        f.load("y", "p", 8, 8)
        f.ret(V("x") + V("y"))
    with b.function("releaser", params=["p"]) as f:
        f.free("p")
        f.ret(0)
    with b.function("maker") as f:
        f.malloc("fresh", 48)
        f.ret(V("fresh"))
    with b.function("wrap", params=["p"]) as f:
        f.call("reader", [V("p")], dst="r")
        f.ret(V("r"))
    with b.function("spin", params=["d"]) as f:
        with f.if_(V("d").gt(0)):
            f.call("spin", [V("d") - 1])
        f.ret(0)
    with b.function("main") as f:
        f.malloc("buf", 64)
        f.call("wrap", [V("buf")], dst="a")
        f.call("maker", [], dst="q")
        f.call("releaser", [V("buf")])
        f.call("spin", [2])
        f.ret(V("a"))
    return b.build()


class TestSummaries:
    def test_reader_is_pure_and_non_freeing(self):
        program = _summary_fixture()
        summaries = compute_summaries(program)
        reader = summaries["reader"]
        assert reader.frees_nothing
        assert not reader.writes_memory
        assert reader.param_facts[0].must_access == ((0, 16),)

    def test_wrapper_folds_callee_access_range(self):
        summaries = compute_summaries(_summary_fixture())
        wrap = summaries["wrap"]
        assert wrap.frees_nothing
        assert wrap.param_facts[0].must_access == ((0, 16),)

    def test_releaser_freed_param(self):
        summaries = compute_summaries(_summary_fixture())
        assert summaries["releaser"].param_facts[0].freed
        assert not summaries["releaser"].frees_nothing

    def test_maker_returns_fresh_allocation(self):
        summaries = compute_summaries(_summary_fixture())
        assert summaries["maker"].returns_fresh == 48

    def test_recursive_gets_conservative_top(self):
        summaries = compute_summaries(_summary_fixture())
        spin = summaries["spin"]
        assert spin.recursive
        assert spin.may_free_unknown

    def test_call_frees_nothing_predicate(self):
        summaries = compute_summaries(_summary_fixture())
        assert summaries["reader"].frees_nothing
        assert summaries["wrap"].frees_nothing
        assert not summaries["releaser"].frees_nothing
        # ⊤: a recursive callee may free anything
        assert not summaries["spin"].frees_nothing

    def test_stack_returner_is_not_fresh(self):
        # returning a stack slot must never count as a fresh allocation
        b = ProgramBuilder()
        with b.function("uar_helper") as f:
            f.stack_alloc("sbuf", 16)
            f.ret(V("sbuf"))
        with b.function("main") as f:
            f.call("uar_helper", [], dst="p")
            f.ret(0)
        summaries = compute_summaries(b.build())
        assert summaries["uar_helper"].returns_fresh is None


# ----------------------------------------------------------------------
# rewired analyses
# ----------------------------------------------------------------------
def _before_second_check(function, summaries):
    """Available facts immediately before the second placed check —
    i.e. after everything between the two checks has transferred."""
    from repro.ir.nodes import CheckAccess
    from repro.ir.program import walk

    pmap = ProvenanceMap(function, summaries=summaries)
    cfg = lower_function(function)
    analysis = AvailableCheckAnalysis(function, pmap, summaries=summaries)
    solution = solve(cfg, analysis)
    checks = [
        i for i in walk(function.body) if isinstance(i, CheckAccess)
    ]
    assert len(checks) >= 2
    return solution.state_before(checks[1])


class TestRewiredAnalyses:
    def _program(self, callee_frees):
        from repro.passes.base import PassStats
        from repro.passes.check_placement import CheckPlacement

        b = ProgramBuilder()
        with b.function("callee", params=["p"]) as f:
            if callee_frees:
                f.free("p")
            f.ret(0)
        with b.function("main") as f:
            f.malloc("buf", 64)
            f.load("x", "buf", 0, 8)
            f.call("callee", [V("buf")])
            f.load("y", "buf", 0, 8)
            f.ret(V("x") + V("y"))
        program = b.build()
        # availability facts are generated by placed checks
        CheckPlacement("instruction").run(program, PassStats())
        return program

    def test_nonfreeing_call_preserves_available_facts(self):
        # satellite 3 regression: the call must no longer invalidate
        # the caller's available checks
        program = self._program(callee_frees=False)
        summaries = compute_summaries(program)
        facts = _before_second_check(program.functions["main"], summaries)
        assert any(
            isinstance(key, str) and key.startswith("alloc:")
            for key in facts
        )

    def test_freeing_call_still_kills_facts(self):
        program = self._program(callee_frees=True)
        summaries = compute_summaries(program)
        facts = _before_second_check(program.functions["main"], summaries)
        assert not any(
            isinstance(key, str) and key.startswith("alloc:")
            for key in facts
        )

    def test_allocstate_precise_call_kills_only_freed_params(self):
        b = ProgramBuilder()
        with b.function("sink", params=["p"]) as f:
            f.free("p")
            f.ret(0)
        with b.function("main") as f:
            f.malloc("a", 32)
            f.malloc("b", 32)
            f.call("sink", [V("a")])
            f.ret(0)
        program = b.build()
        summaries = compute_summaries(program)
        main = program.functions["main"]
        pmap = ProvenanceMap(main, summaries=summaries)
        cfg = lower_function(main)
        solution = solve(
            cfg, AllocStateAnalysis(main, pmap, summaries=summaries)
        )
        exit_state = solution.in_states[1]
        # "freed" in a summary is may-free: the arg degrades to MAYBE,
        # the other allocation provably stays LIVE
        freed_root = pmap.provenance("a").root
        live_root = pmap.provenance("b").root
        assert exit_state[freed_root] == MAYBE
        assert exit_state[live_root] == LIVE

    def test_param_alias_free_degrades_sibling_params(self):
        # free through one param root must not leave the other LIVE-ish:
        # the caller may pass the same object twice
        from repro.passes.base import PassStats
        from repro.passes.check_placement import CheckPlacement

        b = ProgramBuilder()
        with b.function("kern", params=["p", "q"]) as f:
            f.load("x", "q", 0, 8)
            f.free("p")
            f.load("y", "q", 0, 8)
            f.ret(V("x") + V("y"))
        with b.function("main") as f:
            f.malloc("buf", 32)
            f.call("kern", [V("buf"), V("buf")], dst="r")
            f.ret(V("r"))
        program = b.build()
        CheckPlacement("instruction").run(program, PassStats())
        summaries = compute_summaries(program)
        kern = program.functions["kern"]
        pmap = ProvenanceMap(kern, summaries=summaries)
        cfg = lower_function(kern)
        solution = solve(
            cfg, AllocStateAnalysis(kern, pmap, summaries=summaries)
        )
        exit_state = solution.in_states[1]
        assert exit_state.get("param:q") == MAYBE
        # availability through q must be gone between the free and the
        # second check (which then legitimately regenerates it)
        facts = _before_second_check(kern, summaries)
        assert "param:q" not in facts


# ----------------------------------------------------------------------
# degenerate call shapes: the same observables in every cell
# ----------------------------------------------------------------------
MODES = [
    ExecConfig(fastpath=fastpath, memoize=memoize)
    for fastpath in (True, False)
    for memoize in (True, False)
]


def _observables(tool, program, args=None, *, config):
    result = Session(tool, config, audit_elisions=True).run(program, args)
    # every check the passes elided must hold when replayed
    assert result.elision_audit_failures == [], (tool, config)
    return {
        "return_value": result.return_value,
        "errors": [(e.kind, e.address) for e in result.errors],
        "protection": dict(result.protection_counts),
    }


def _across_modes(tool, program, args=None):
    first, *others = [
        _observables(tool, program, args, config=config) for config in MODES
    ]
    for config, observed in zip(MODES[1:], others):
        assert observed == first, (tool, config)
    return first


class TestDegenerateShapes:
    def test_self_recursion_byte_identical(self):
        b = ProgramBuilder()
        with b.function("walk", params=["p", "d"]) as f:
            f.assign("acc", 0)
            with f.if_(V("d").gt(0)):
                f.load("v", "p", (V("d") - 1) * 8, 8)
                f.call("walk", [V("p"), V("d") - 1], dst="sub")
                f.assign("acc", V("v") + V("sub"))
            f.ret(V("acc"))
        with b.function("main") as f:
            f.malloc("buf", 64)
            f.memset("buf", 0, 64, 3)
            f.call("walk", [V("buf"), 8], dst="r")
            f.free("buf")
            f.ret(V("r"))
        program = b.build()
        for tool in ("GiantSan", "ASan--"):
            observed = _across_modes(tool, program)
            assert observed["errors"] == [], tool

    def test_mutual_recursion_byte_identical(self):
        b = ProgramBuilder()
        with b.function("ping", params=["p", "d"]) as f:
            with f.if_(V("d").gt(0)):
                f.store("p", V("d"), 1, V("d"))
                f.call("pong", [V("p"), V("d") - 1])
            f.ret(0)
        with b.function("pong", params=["p", "d"]) as f:
            with f.if_(V("d").gt(0)):
                f.load("v", "p", V("d"), 1)
                f.call("ping", [V("p"), V("d") - 1])
            f.ret(0)
        with b.function("main") as f:
            f.malloc("buf", 32)
            f.call("ping", [V("buf"), 6])
            f.ret(0)
        program = b.build()
        for tool in ("GiantSan", "ASan--"):
            observed = _across_modes(tool, program)
            assert observed["errors"] == [], tool

    def test_unreachable_block_does_not_confuse_seeding(self):
        # the solver seeds only the entry block: a call site after the
        # return is never reached and must not feed the elisions
        b = ProgramBuilder()
        with b.function("peek", params=["p"]) as f:
            f.load("x", "p", 0, 8)
            f.ret(V("x"))
        with b.function("main") as f:
            f.malloc("buf", 16)
            f.ret(0)
            f.call("peek", [V("buf")], dst="dead")
        program = b.build()
        for tool in ("GiantSan", "ASan--"):
            observed = _across_modes(tool, program)
            assert observed["return_value"] == 0, tool
            assert observed["errors"] == [], tool

    def test_buggy_reports_identical_across_modes(self):
        # a real UAF reached through a call must be reported the same
        # in every cell
        b = ProgramBuilder()
        with b.function("use", params=["p"]) as f:
            f.load("x", "p", 0, 8)
            f.ret(V("x"))
        with b.function("main") as f:
            f.malloc("buf", 32)
            f.free("buf")
            f.call("use", [V("buf")], dst="r")
            f.ret(V("r"))
        program = b.build()
        for tool in ("GiantSan", "ASan", "ASan--"):
            assert _across_modes(tool, program)["errors"], tool

    def test_aliased_free_in_callee_still_reported(self):
        # same buffer passed as both params; callee frees through one
        # and touches through the other: no elision may drop the
        # catching check
        b = ProgramBuilder()
        with b.function("kern", params=["p", "q"]) as f:
            f.load("x", "q", 0, 8)
            f.free("p")
            f.load("y", "q", 0, 8)  # UAF when p aliases q
            f.ret(V("x") + V("y"))
        with b.function("main") as f:
            f.malloc("buf", 32)
            f.call("kern", [V("buf"), V("buf")], dst="r")
            f.ret(V("r"))
        program = b.build()
        for tool in ("GiantSan", "ASan--"):
            assert _across_modes(tool, program)["errors"], tool


# ----------------------------------------------------------------------
# whole-program data + detector
# ----------------------------------------------------------------------
class TestWholeProgram:
    def test_data_shape(self):
        data = whole_program_data(build_callheavy_program())
        assert data["entry"] == "main"
        assert "digest" in data["call_graph"]["edges"]["main"]
        assert "countdown" in data["call_graph"]["recursive"]
        assert data["summaries"]["digest"]["frees_nothing"]
        assert data["findings"] == []

    def test_detector_cross_call_oob(self):
        # callee demands [0, 16) of its param; caller hands it 8 bytes
        b = ProgramBuilder()
        with b.function("wide", params=["p"]) as f:
            f.load("x", "p", 0, 8)
            f.load("y", "p", 8, 8)
            f.ret(V("x") + V("y"))
        with b.function("main") as f:
            f.malloc("small", 8)
            f.call("wide", [V("small")], dst="r")
            f.ret(V("r"))
        program = b.build()
        findings = analyze_program(
            program, summaries=compute_summaries(program)
        )
        assert any(f.kind == "definite-oob" for f in findings)
        # without summaries the call is opaque: no such finding
        assert not any(
            f.kind == "definite-oob" for f in analyze_program(program)
        )

    def test_detector_cross_call_uaf(self):
        b = ProgramBuilder()
        with b.function("use", params=["p"]) as f:
            f.load("x", "p", 0, 8)
            f.ret(V("x"))
        with b.function("main") as f:
            f.malloc("buf", 32)
            f.free("buf")
            f.call("use", [V("buf")], dst="r")
            f.ret(V("r"))
        program = b.build()
        findings = analyze_program(
            program, summaries=compute_summaries(program)
        )
        assert any(f.kind == "definite-uaf" for f in findings)

    def test_juliet_good_cases_stay_clean(self):
        from repro.workloads import juliet_suite_cached

        tool = SANITIZER_FACTORIES["GiantSan"]
        for case in juliet_suite_cached():
            if case.buggy:
                continue
            ip = instrument(case.program, tool=tool())
            assert ip.stats.findings == [], case.case_id
            # nor does the listing's detector, which reads summaries
            assert whole_program_data(case.program)["findings"] == [], (
                case.case_id
            )


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestAnalyzeCli:
    def test_json_format(self, capsys):
        import json

        from repro.cli import main

        assert main(
            ["analyze", "--format", "json", "--program", "505.mcf_r"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["programs"][0]["name"] == "505.mcf_r"
        assert "pass_timings_us" in payload

    def test_whole_program_text(self, capsys):
        from repro.cli import main

        assert main(
            ["analyze", "--program", "505.mcf_r", "--whole-program"]
        ) == 0
        out = capsys.readouterr().out
        assert "call graph" in out
        assert "function summaries:" in out

    def test_no_interproc_flag(self, capsys):
        # the switch is gone, not ignored: the parser rejects it
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_:
            main(["analyze", "--no-interproc", "--program", "505.mcf_r"])
        assert exit_.value.code == 2
        assert "--no-interproc" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, listed",
        [
            (["--whole-program"], True),
            (["--whole-program", "--format", "json"], True),
            ([], False),
        ],
    )
    def test_listing_summarizes_each_function_once(
        self, monkeypatch, capsys, flags, listed
    ):
        from collections import Counter

        from repro.cli import main
        from repro.dataflow import summaries as summaries_module

        routed, summarized = Counter(), Counter()
        summary_of = summaries_module._summary_of
        summarize = summaries_module._summarize

        def counting_summary_of(program, graph, name, table):
            routed[name] += 1
            return summary_of(program, graph, name, table)

        def counting_summarize(function, table):
            summarized[function.name] += 1
            return summarize(function, table)

        monkeypatch.setattr(
            summaries_module, "_summary_of", counting_summary_of
        )
        monkeypatch.setattr(summaries_module, "_summarize", counting_summarize)
        assert main(["analyze", "--corpus", "callheavy", *flags]) == 0
        capsys.readouterr()
        functions = set(build_callheavy_program().functions)
        assert len(functions) == 5
        if not listed:
            assert routed == summarized == Counter()
            return
        # every function once; the recursive one takes the ⊤ summary
        # without a walk
        assert routed == Counter(functions)
        assert summarized == Counter(functions - {"countdown"})
