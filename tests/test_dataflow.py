"""Tests for the whole-function dataflow framework (repro.dataflow).

Covers CFG lowering, dominators, the interval and allocation-state
fixpoints, cross-block check elimination at control-flow joins, the
static bug detector, and the fuzz-auditable elision pass.
"""

import pytest

from repro.dataflow import (
    LIVE,
    LOOP_HEADER,
    AllocStateAnalysis,
    FunctionDataflow,
    IntervalAnalysis,
    analyze_program,
    const,
    detect_function,
    dominates,
    eval_expr,
    immediate_dominators,
    lower_function,
    solve,
)
from repro.ir import (
    AccessType,
    BinOp,
    CheckElided,
    CheckAccess,
    CheckRegion,
    Const,
    Load,
    ProgramBuilder,
    Store,
    V,
    walk,
)
from repro.passes import instrument
from repro.passes.base import PassStats
from repro.passes.instrument import InstrumentedProgram
from repro.runtime.interpreter import Interpreter
from repro.runtime.session import ExecConfig, Session
from repro.sanitizers import ASanMinusMinus, GiantSan


def _main_function(builder: ProgramBuilder):
    program = builder.build()
    return program.function("main")


# ----------------------------------------------------------------------
# CFG lowering + dominators
# ----------------------------------------------------------------------
class TestCfg:
    def test_straight_line_single_path(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 64)
            f.store("p", 0, 4, 1)
        cfg = lower_function(_main_function(b))
        assert cfg.entry.index == 0
        assert cfg.exit.index == 1
        rpo = cfg.rpo()
        assert rpo[0] == cfg.entry.index
        assert rpo[-1] == cfg.exit.index

    def test_loop_gets_header_with_back_edge(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 64)
            with f.loop("i", 0, 4) as i:
                f.store("p", i * 4, 4, 0)
        cfg = lower_function(_main_function(b))
        headers = [blk for blk in cfg.blocks if blk.kind == LOOP_HEADER]
        assert len(headers) == 1
        header = headers[0]
        assert header.loop is not None
        # the back edge makes the header its own dominator frontier:
        # one of its predecessors must be dominated by the header itself
        assert any(
            dominates(cfg, header.index, pred) for pred in header.preds
        )

    def test_if_join_dominated_by_condition_not_arms(self):
        b = ProgramBuilder()
        with b.function("main", params=["c"]) as f:
            f.malloc("p", 64)
            with f.if_(V("c").gt(0)):
                f.store("p", 0, 4, 1)
            with f.else_():
                f.store("p", 8, 4, 2)
            f.load("x", "p", 0, 4)
        fn = _main_function(b)
        cfg = lower_function(fn)
        blocks_of = {}
        for block in cfg.blocks:
            for instr in block.instrs:
                blocks_of[id(instr)] = block.index
        join_load = next(i for i in walk(fn.body) if isinstance(i, Load))
        arm_stores = [i for i in walk(fn.body) if isinstance(i, Store)]
        join_index = blocks_of[id(join_load)]
        for store in arm_stores:
            assert not dominates(cfg, blocks_of[id(store)], join_index)
        assert dominates(cfg, cfg.entry.index, join_index)


# ----------------------------------------------------------------------
# interval fixpoint
# ----------------------------------------------------------------------
class TestIntervals:
    def _offset_interval_at_store(self, function):
        cfg = lower_function(function)
        solution = solve(cfg, IntervalAnalysis())
        for block in cfg.blocks:
            if block.index not in solution.in_states:
                continue
            for instr, state in solution.replay(block):
                if isinstance(instr, Store):
                    return eval_expr(instr.offset, state)
        raise AssertionError("no store found")

    def test_loop_induction_variable_clamped(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 4096)
            with f.loop("i", 0, 1024) as i:
                f.store("p", i * 4, 4, 0)
        interval = self._offset_interval_at_store(_main_function(b))
        assert interval.lo == 0
        assert interval.hi == 4092

    def test_join_hulls_both_arms(self):
        b = ProgramBuilder()
        with b.function("main", params=["c"]) as f:
            f.malloc("p", 64)
            with f.if_(V("c").gt(0)):
                f.assign("k", 3)
            with f.else_():
                f.assign("k", 7)
            f.store("p", V("k"), 4, 0)
        interval = self._offset_interval_at_store(_main_function(b))
        assert (interval.lo, interval.hi) == (3, 7)

    def test_division_by_zero_matches_interpreter_convention(self):
        # the interpreter defines x // 0 == x % 0 == 0
        assert eval_expr(BinOp("//", Const(10), Const(0)), {}) == const(0)
        assert eval_expr(BinOp("%", Const(10), Const(0)), {}) == const(0)

    def test_unknown_parameter_is_unbounded(self):
        b = ProgramBuilder()
        with b.function("main", params=["n"]) as f:
            f.malloc("p", 64)
            f.store("p", V("n"), 4, 0)
        interval = self._offset_interval_at_store(_main_function(b))
        assert interval.lo is None and interval.hi is None


# ----------------------------------------------------------------------
# allocation-state fixpoint + static bug detector
# ----------------------------------------------------------------------
class TestDetector:
    def test_definite_oob_store(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 4096)
            f.store("p", 5000, 4, 1)
        findings = detect_function(FunctionDataflow(_main_function(b)))
        assert [f.kind for f in findings] == ["definite-oob"]
        assert findings[0].always_executes

    def test_definite_double_free(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 64)
            f.free("p")
            f.free("p")
        findings = detect_function(FunctionDataflow(_main_function(b)))
        assert [f.kind for f in findings] == ["definite-double-free"]

    def test_definite_use_after_free(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 64)
            f.free("p")
            f.load("x", "p", 0, 4)
        findings = detect_function(FunctionDataflow(_main_function(b)))
        assert [f.kind for f in findings] == ["definite-uaf"]

    def test_one_armed_free_is_not_definite(self):
        b = ProgramBuilder()
        with b.function("main", params=["c"]) as f:
            f.malloc("p", 64)
            with f.if_(V("c").gt(0)):
                f.free("p")
            f.load("x", "p", 0, 4)
        findings = detect_function(FunctionDataflow(_main_function(b)))
        assert findings == []

    def test_bug_in_one_arm_is_path_sensitive(self):
        b = ProgramBuilder()
        with b.function("main", params=["c"]) as f:
            f.malloc("p", 4096)
            with f.if_(V("c").gt(0)):
                f.store("p", 5000, 4, 1)
        findings = detect_function(FunctionDataflow(_main_function(b)))
        assert [f.kind for f in findings] == ["definite-oob"]
        assert not findings[0].always_executes

    def test_in_bounds_program_is_clean(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 4096)
            with f.loop("i", 0, 1024) as i:
                f.store("p", i * 4, 4, 0)
            f.free("p")
        assert detect_function(FunctionDataflow(_main_function(b))) == []

    def test_analyze_program_covers_all_functions(self):
        b = ProgramBuilder()
        with b.function("helper") as f:
            f.malloc("q", 16)
            f.store("q", 100, 4, 1)
        with b.function("main") as m:
            m.call("helper", [])
        findings = analyze_program(b.build())
        assert [f.function for f in findings] == ["helper"]

    def test_allocstate_join_is_maybe(self):
        b = ProgramBuilder()
        with b.function("main", params=["c"]) as f:
            f.malloc("p", 64)
            with f.if_(V("c").gt(0)):
                f.free("p")
            f.load("x", "p", 0, 4)
        fn = _main_function(b)
        flow = FunctionDataflow(fn)
        load = next(i for i in walk(fn.body) if isinstance(i, Load))
        for block in flow.cfg.blocks:
            if not flow.reachable(block.index):
                continue
            states = [
                flow.alloc_analysis.copy(state)
                for _, state in flow.allocstate.replay(block)
            ]
            for position, instr in enumerate(block.instrs):
                if instr is load:
                    root = flow.pmap.provenance("p").root
                    assert (
                        AllocStateAnalysis.state_of(states[position], root)
                        != LIVE
                    )
                    return
        raise AssertionError("load not found in CFG")


# ----------------------------------------------------------------------
# cross-block check elimination at joins (the satellite cases)
# ----------------------------------------------------------------------
class TestCrossBlockElimination:
    def _giantsan_program(self, both_arms: bool):
        b = ProgramBuilder()
        with b.function("kernel", params=["p", "c"]) as f:
            with f.if_(V("c").gt(0)):
                f.load("a", "p", 80, 4)
            with f.else_():
                if both_arms:
                    f.load("b", "p", 80, 4)
                else:
                    f.assign("b", 1)
            f.load("d", "p", 40, 4)
        with b.function("main", params=["c"]) as m:
            m.malloc("buf", 256)
            m.call("kernel", [V("buf"), V("c")])
        return b.build()

    def test_check_after_if_with_wider_checks_in_both_arms_dies(self):
        ip = instrument(self._giantsan_program(True), tool=GiantSan())
        # anchored arm checks cover [0, 84) on both paths; the join
        # check [0, 44) is redundant on every path
        assert ip.stats.notes.get("cross_block_eliminated", 0) == 1
        kernel_checks = [
            i
            for i in walk(ip.program.function("kernel").body)
            if isinstance(i, CheckRegion)
        ]
        assert len(kernel_checks) == 2  # one per arm, none after the join

    def test_one_armed_coverage_does_not_eliminate(self):
        ip = instrument(self._giantsan_program(False), tool=GiantSan())
        assert ip.stats.notes.get("cross_block_eliminated", 0) == 0
        kernel_checks = [
            i
            for i in walk(ip.program.function("kernel").body)
            if isinstance(i, CheckRegion)
        ]
        assert len(kernel_checks) == 2  # the arm check AND the join check

    def test_asanmm_join_duplicate_eliminated(self):
        b = ProgramBuilder()
        with b.function("kernel", params=["p", "c"]) as f:
            with f.if_(V("c").gt(0)):
                f.load("a", "p", 40, 4)
            with f.else_():
                f.load("b", "p", 40, 4)
            f.load("d", "p", 40, 4)
        with b.function("main", params=["c"]) as m:
            m.malloc("buf", 256)
            m.call("kernel", [V("buf"), V("c")])
        ip = instrument(b.build(), tool=ASanMinusMinus())
        assert ip.stats.notes.get("cross_block_eliminated", 0) == 1
        kernel_checks = [
            i
            for i in walk(ip.program.function("kernel").body)
            if isinstance(i, CheckAccess)
        ]
        assert len(kernel_checks) == 2

    def test_pre_loop_check_covers_in_loop_duplicate(self):
        b = ProgramBuilder()
        with b.function("kernel", params=["p", "n"]) as f:
            f.load("a", "p", 0, 8)
            with f.loop("i", 0, V("n"), bounded=False) as i:
                f.load("b", "p", 0, 8)
                f.assign("s", V("b") + i)
        with b.function("main", params=["n"]) as m:
            m.malloc("buf", 64)
            m.call("kernel", [V("buf"), V("n")])
        ip = instrument(b.build(), tool=ASanMinusMinus())
        assert ip.stats.notes.get("cross_block_eliminated", 0) >= 1


# ----------------------------------------------------------------------
# static elision + the runtime audit
# ----------------------------------------------------------------------
def _elidable_program():
    b = ProgramBuilder()
    with b.function("main") as f:
        f.malloc("p", 64)
        f.load("x", "p", 0, 4)
        f.load("y", "p", 8, 4)
    return b.build()


class TestElisionAudit:
    def test_elisions_are_recorded_with_proofs(self):
        ip = instrument(_elidable_program(), tool=ASanMinusMinus())
        assert len(ip.stats.elisions) == 2
        for record in ip.stats.elisions:
            assert record.function == "main"
            assert record.site_id >= 0
            assert "size 64" in record.reason

    def test_audit_mode_wraps_instead_of_deleting(self):
        ip = instrument(
            _elidable_program(), tool=ASanMinusMinus(), audit_elisions=True
        )
        markers = [
            i
            for fn in ip.program.functions.values()
            for i in walk(fn.body)
            if isinstance(i, CheckElided)
        ]
        assert len(markers) == len(ip.stats.elisions) == 2
        assert all(isinstance(m.inner, CheckAccess) for m in markers)

    def test_audit_replay_is_invisible(self):
        config = ExecConfig(fastpath=False, memoize=False)
        plain = Session("ASan--", config).run(_elidable_program())
        audited = Session("ASan--", config, audit_elisions=True).run(
            _elidable_program()
        )
        assert audited.elision_audit_failures == []
        assert audited.stats.as_dict() == plain.stats.as_dict()
        assert audited.native_cycles == plain.native_cycles
        assert len(audited.errors) == len(plain.errors) == 0

    def test_unsound_elision_is_caught_and_rolled_back(self):
        # hand-build a marker whose inner check is definitely OOB: the
        # replay must flag it without perturbing stats or the error log
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 16)
        program = b.build()
        program.function("main").body.append(
            CheckElided(
                inner=CheckAccess(
                    base="p",
                    offset=Const(100),
                    width=4,
                    access=AccessType.READ,
                    site_id=7,
                ),
                reason="deliberately bogus proof",
            )
        )
        iprogram = InstrumentedProgram(
            program=program, stats=PassStats(), style="instruction"
        )
        result = Interpreter(GiantSan()).run(iprogram)
        assert len(result.elision_audit_failures) == 1
        failure = result.elision_audit_failures[0]
        assert failure.site_id == 7
        assert "bogus" in failure.reason
        assert len(result.errors) == 0  # rolled back
        assert result.stats.reports == 0

    def test_fuzz_driver_flags_unsound_elisions(self):
        from repro.fuzz.driver import run_case
        from repro.fuzz.generator import generate_case

        for seed in range(20, 26):
            case = generate_case(seed, bug_probability=0.5)
            report = run_case(
                case, tools=("GiantSan", "ASan--"), audit_elisions=True
            )
            assert not [
                d for d in report.divergences if d.kind == "elision"
            ], report.divergences
