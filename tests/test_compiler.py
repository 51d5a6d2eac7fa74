"""Unit coverage for the compile-to-closures engine.

The configuration-matrix harness (:mod:`tests.test_config_matrix`)
proves observation-equivalence end to end; these tests pin the
compiler's own contract: which functions it declines, how declines
fall back, how the compile cache is keyed, and when a memoized run
tiers up.
"""

import pytest

from engines import budget_trip, observables, run_on
from repro.analysis import run_overhead_study
from repro.analysis.detection import (
    run_juliet_study,
    run_linux_flaw_study,
    run_magma_study,
)
from repro.analysis.overhead import PERFORMANCE_TOOLS
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import CheckElided, Const, Var
from repro.ir.program import walk
from repro.passes.instrument import instrument
from repro.sanitizers import GiantSan
from repro.runtime import (
    BudgetExceeded,
    CompiledEngine,
    ExecConfig,
    Interpreter,
    Session,
    compile_function,
    compile_program,
    compiler,
    interpreter,
)
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.runtime.compiler import COMPILE_AFTER_INSTRUCTIONS
from repro.workloads.spec import SPEC_TABLE2_ROWS

COSTS = DEFAULT_COST_MODEL.native


def _compile(program, **kwargs):
    defaults = dict(costs=COSTS, needs_resolve=False)
    defaults.update(kwargs)
    return compile_program(program, **defaults)


def _simple_program():
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 8) as i:
            f.store("buf", i * 8, 8, i)
        f.free("buf")
        f.ret(7)
    return builder.build()


#: ``main``'s argument in the long programs: the bound of a loop that
#: :func:`~repro.runtime.compiler.work_estimate` counts as one trip, so
#: a run reaches the tier-up point only by executing its instructions.
LONG = [COMPILE_AFTER_INSTRUCTIONS]


def _long_program(bound=Var("n")):
    """``main(n)``: a loop of well over COMPILE_AFTER_INSTRUCTIONS
    instructions, ``bound`` trips long (at ``n`` = ``LONG``)."""
    builder = ProgramBuilder()
    with builder.function("main", params=["n"]) as f:
        f.malloc("buf", 64)
        total = f.assign("total", 0)
        with f.loop("i", 0, bound) as i:
            f.store("buf", (i % 8) * 8, 8, i)
            f.assign("total", total + i)
        f.free("buf")
        f.ret(total)
    return builder.build()


# ----------------------------------------------------------------------
# tier-up: a memoized run compiles its program at the first call
# boundary where it reaches COMPILE_AFTER_INSTRUCTIONS, counting a
# callee's work estimate at its entry
# ----------------------------------------------------------------------
def _session_run(program, tool="GiantSan", memoize=True, args=None,
                 **kwargs):
    """The observables of one session run."""
    session = Session(tool, ExecConfig(memoize=memoize), **kwargs)
    return observables(session.run(program, args), session.sanitizer)


def _late_callee_program():
    """``main(n)`` tree-walks past the threshold, then calls ``helper``."""
    builder = ProgramBuilder()
    with builder.function("helper", params=["p"]) as f:
        with f.loop("j", 0, 8) as j:
            f.store("p", j * 8, 8, j)
        f.ret(1)
    with builder.function("main", params=["n"]) as f:
        f.malloc("buf", 64)
        total = f.assign("total", 0)
        with f.loop("i", 0, Var("n")) as i:
            f.assign("total", total + i)
        got = f.call("helper", [Var("buf")], dst="got")
        f.free("buf")
        f.ret(total + got)
    return builder.build()


def test_callee_called_past_the_threshold_runs_compiled(engine_log):
    program = _late_callee_program()
    tiered = _session_run(program, args=LONG)
    assert engine_log == {"tree": ["main"], "compiles": 1}
    assert tiered["instructions"] >= COMPILE_AFTER_INSTRUCTIONS
    assert tiered == _session_run(program, memoize=False, args=LONG)


def test_long_entry_compiles_when_it_returns(engine_log):
    program = _long_program()
    first = _session_run(program, args=LONG)
    assert engine_log == {"tree": ["main"], "compiles": 1}
    second = _session_run(program, args=LONG)
    # the second run finds the table and enters main's closure
    assert engine_log == {"tree": ["main"], "compiles": 1}
    assert first == second


def test_constant_bound_loop_compiles_at_entry(engine_log):
    """``main``'s estimate counts its constant loop's every trip, so the
    run compiles before it executes an instruction."""
    program = _long_program(COMPILE_AFTER_INSTRUCTIONS)
    entered = _session_run(program, args=LONG)
    assert engine_log == {"tree": [], "compiles": 1}
    assert entered == _session_run(program, memoize=False, args=LONG)


def _kernel_call_program(trips):
    """``main`` executes two instructions, then calls ``kernel``, whose
    estimate is ``trips + 2``: its loop, the loop's ``trips`` stores
    and its return."""
    builder = ProgramBuilder()
    with builder.function("kernel", params=["p"]) as f:
        with f.loop("j", 0, trips) as j:
            f.store("p", (j % 8) * 8, 8, j)
        f.ret(1)
    with builder.function("main") as f:
        f.malloc("buf", 64)
        f.call("kernel", [Var("buf")], dst="got")
        f.free("buf")
        f.ret(Var("got"))
    return builder.build()


@pytest.mark.parametrize(
    "short, walked", [(0, ["main"]), (1, ["main", "kernel"])],
    ids=["reaches", "one-short"],
)
def test_callee_whose_estimate_reaches_the_threshold_compiles_at_the_call(
    engine_log, short, walked
):
    """At ``kernel``'s entry the run has executed 2 instructions; 2 plus
    its estimate reaching the threshold compiles there, one short of it
    tree-walks ``kernel`` and compiles when it returns.  Native adds no
    checks, so the estimate is of the program as built."""
    program = _kernel_call_program(COMPILE_AFTER_INSTRUCTIONS - 4 - short)
    instrumented = Session("Native").instrument(program).program
    estimate = compiler.work_estimate(instrumented.functions["kernel"])
    assert 2 + estimate == COMPILE_AFTER_INSTRUCTIONS - short
    tiered = _session_run(program, "Native")
    assert engine_log == {"tree": walked, "compiles": 1}
    assert tiered == _session_run(program, "Native", memoize=False)


def test_work_estimate_counts_constant_trips_and_other_loops_once():
    builder = ProgramBuilder()
    with builder.function("callee") as f:
        with f.loop("k", 0, 1000):
            f.compute(1.0)
    with builder.function("main", params=["n"]) as f:
        with f.loop("i", 2, 12) as i:  # 1 + 10 trips x 2
            f.assign("x", i)
            f.compute(1.0)
        with f.loop("j", 0, Var("n")):  # 1 + 3, counted once
            f.compute(1.0)
            f.compute(1.0)
            f.compute(1.0)
        with f.loop("r", 0, 10, step=3, reverse=True):  # 1 + 3 trips x 1
            f.compute(1.0)
        with f.if_(Var("n")):  # 1 + the larger branch, 2
            f.compute(1.0)
            f.compute(1.0)
        with f.else_():
            f.compute(1.0)
        f.call("callee", [])  # 1: the callee's body is not followed
        f.ret(0)  # 1
    functions = builder.build().functions
    assert compiler.work_estimate(functions["main"]) == 21 + 4 + 4 + 3 + 1 + 1
    assert compiler.work_estimate(functions["callee"]) == 1 + 1000
    # memoized on each function
    assert getattr(functions["main"], compiler._WORK_ATTR) == 34


def test_warm_run_computes_no_estimate(engine_log, monkeypatch):
    estimated = []
    estimate = compiler.work_estimate

    def spy(function):
        estimated.append(function.name)
        return estimate(function)

    monkeypatch.setattr(compiler, "work_estimate", spy)
    program = _kernel_call_program(COMPILE_AFTER_INSTRUCTIONS)
    cold = _session_run(program)
    assert estimated == ["main", "kernel"]
    del estimated[:]
    warm = _session_run(program)
    assert estimated == [] and engine_log["compiles"] == 1
    assert warm == cold


def test_short_program_never_compiles(engine_log):
    program = _simple_program()
    session = Session("GiantSan", ExecConfig(memoize=True))
    iprogram = session.instrument(program)
    results = [session.run(program) for _ in range(3)]
    assert session.instrument(program) is iprogram
    assert not hasattr(iprogram.program, compiler._TABLE_ATTR)
    assert engine_log == {"tree": ["main"] * 3, "compiles": 0}
    assert results[-1].instructions_executed < COMPILE_AFTER_INSTRUCTIONS


def test_memoize_off_never_compiles(engine_log):
    program = _long_program()
    fresh = [_session_run(program, memoize=False, args=LONG)
             for _ in range(2)]
    assert engine_log["compiles"] == 0
    memoized = [_session_run(program, args=LONG) for _ in range(2)]
    assert fresh + memoized == fresh[:1] * 4


def test_run_on_compiled_engine_runs_the_entry_closure(engine_log):
    """``run_on`` compiles first, so the configuration-matrix harness
    compares the closures, not the tree walker, even on short programs."""
    result = run_on(CompiledEngine, _simple_program(), "Native")
    assert result.instructions_executed < COMPILE_AFTER_INSTRUCTIONS
    assert engine_log == {"tree": [], "compiles": 1}


def _assert_tier_up_matches(engine_log, program, tool, args=None, **kwargs):
    """A cold memoized run tiers up mid-run and matches a memo-off run;
    returns the memoized run's tree-walked function names."""
    del engine_log["tree"][:]
    reference = _session_run(program, tool, False, args, **kwargs)
    walked = engine_log["tree"][:]
    del engine_log["tree"][:]
    tiered = _session_run(program, tool, True, args, **kwargs)
    # the tree walker entered fewer calls: a later one ran a closure
    assert len(engine_log["tree"]) < len(walked), tool
    assert tiered == reference, tool
    return engine_log["tree"]


@pytest.mark.parametrize("spec", SPEC_TABLE2_ROWS, ids=lambda s: s.name)
@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
def test_cold_tier_up_matches_tree_on_spec(engine_log, spec, telemetry):
    """Each proxy at its Table 2 scale, where every tool's run calls a
    kernel after it has passed the tier-up point."""
    program = spec.build()
    for tool in ["Native", "GiantSan", "ASan", "ASan--", "LFP"]:
        _assert_tier_up_matches(
            engine_log, program, tool, [spec.default_scale],
            telemetry=telemetry,
        )


@pytest.mark.parametrize(
    "spec", SPEC_TABLE2_ROWS[:6], ids=lambda s: s.name
)
def test_cold_tier_up_with_address_resolution(engine_log, spec):
    """HWASan resolves tagged addresses, so its closures are compiled
    under their own table key."""
    program = spec.build()
    _assert_tier_up_matches(
        engine_log, program, "HWASan", [spec.default_scale]
    )
    session = Session("HWASan", ExecConfig(memoize=True))
    tables = getattr(
        session.instrument(program).program, compiler._TABLE_ATTR
    )
    assert list(tables) == [(session.cost_model.native, True, ())]


def _late_calls_program():
    """``main`` loops well past the tier-up point, then calls a helper
    the compiler declines and one it lowers."""
    builder = ProgramBuilder()
    with builder.function("declined", params=["n"]) as f:
        with f.if_(Const(1)):
            f.assign("x", 1)
        f.ret(Var("x") + Var("n"))
    with builder.function("lowered", params=["p"]) as f:
        with f.loop("j", 0, 8) as j:
            f.store("p", j * 8, 8, j)
        f.ret(1)
    with builder.function("main", params=["n"]) as f:
        f.malloc("buf", 64)
        total = f.assign("total", 0)
        with f.loop("i", 0, Var("n")) as i:
            f.assign("total", total + i)
        a = f.call("declined", [Const(2)], dst="a")
        b = f.call("lowered", [Var("buf")], dst="b")
        f.free("buf")
        f.ret(total + a + b)
    return builder.build()


def test_tier_up_with_an_uncompilable_next_callee(engine_log):
    walked = _assert_tier_up_matches(
        engine_log, _late_calls_program(), "GiantSan", LONG
    )
    assert walked == ["main", "declined"]
    assert engine_log["compiles"] == 1


def test_budget_exceeded_just_past_the_tier_up_point(
    engine_log, monkeypatch
):
    """The budget trips inside a closure entered after the tier-up, at
    the same instruction and with the same state as on the tree walker."""
    builder = ProgramBuilder()
    with builder.function("step", params=["p", "i"]) as f:
        f.store("p", (Var("i") % 8) * 8, 8, Var("i"))
        f.ret(Var("i"))
    with builder.function("main", params=["n"]) as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, Var("n")) as i:
            f.call("step", [Var("buf"), i])
        f.free("buf")
        f.ret(0)
    program = builder.build()
    limit = COMPILE_AFTER_INSTRUCTIONS + 50
    engines = []
    run = Interpreter.run
    monkeypatch.setattr(Interpreter, "run", lambda self, *args: (
        engines.append(self) or run(self, *args)
    ))
    messages = []
    for memoize in (False, True):
        with pytest.raises(BudgetExceeded) as excinfo:
            _session_run(
                program, memoize=memoize, args=LONG, max_instructions=limit
            )
        messages.append(str(excinfo.value))
    tree, tiered = engines
    assert type(tree) is Interpreter and tiered._table is not None
    assert messages[0] == messages[1]
    for engine in engines:
        assert engine.instructions == limit + 1
    # the counters match here because the trip lands in ``step``'s
    # closure at a flush that is also the tree walker's instruction; a
    # trip elsewhere may leave them apart (see the sweep below)
    assert tiered.native_cycles == tree.native_cycles
    assert tiered.protection_counts == tree.protection_counts
    assert tiered.san.stats.as_dict() == tree.san.stats.as_dict()


#: Budgets from the first instructions of a run to past the tier-up point.
BUDGETS = [*range(1, 301, 7), 1000, 3000, 5000]


@pytest.mark.parametrize("tool", ["GiantSan", "ASan", "LFP"])
@pytest.mark.parametrize("spec", SPEC_TABLE2_ROWS[:4], ids=lambda s: s.name)
def test_budget_trip_leaves_the_tree_walkers_state(spec, tool):
    """A run compiled at entry that exceeds its budget raises the tree
    walker's message and leaves the sanitizer's stats and error log as
    the tree walker leaves them, at every budget.  The engine's own
    counters (instructions, cycles, ``protection_counts``) are not
    promised there."""
    program = Session(tool).instrument(spec.build())
    args = [spec.default_scale]
    for limit in BUDGETS:
        assert budget_trip(
            CompiledEngine, program, tool, limit, args
        ) == budget_trip(Interpreter, program, tool, limit, args), limit


def test_cold_table2_pass_tree_walks_less_than_the_threshold_per_run(
    engine_log, monkeypatch
):
    """Every run of a cold Table 2 pass compiles at its first kernel
    call at the latest, so the tree walker executes fewer than
    COMPILE_AFTER_INSTRUCTIONS instructions in it; the pass still makes
    one compile per instrumented program.  Each instruction is counted
    where the walker dispatches it, at its handler table entry."""
    walked = []
    run = Interpreter.run

    def spy_run(self, *args):
        walked.append(0)
        return run(self, *args)

    def counted(handler):
        def spy(self, instr, env):
            walked[-1] += 1
            return handler(self, instr, env)

        return spy

    monkeypatch.setattr(Interpreter, "run", spy_run)
    for kind, handler in list(interpreter._HANDLERS.items()):
        monkeypatch.setitem(interpreter._HANDLERS, kind, counted(handler))
    run_overhead_study(PERFORMANCE_TOOLS)
    assert engine_log["compiles"] == 70
    assert len(walked) == 120
    assert max(walked) < COMPILE_AFTER_INSTRUCTIONS
    assert sum(walked) == 34_046


def test_detect_pass_compiles_nothing(engine_log):
    """Detection runs are short, and no callee's estimate carries one
    to the tier-up point."""
    run_juliet_study()
    run_linux_flaw_study()
    run_magma_study()
    assert engine_log["compiles"] == 0


# ----------------------------------------------------------------------
# coverage and declines
# ----------------------------------------------------------------------
def test_all_spec_functions_compile():
    """Every instrumented function of every Table 2 proxy lowers; a
    silent decline would quietly tree-walk half a benchmark."""
    for spec in SPEC_TABLE2_ROWS:
        program = spec.build()
        table = _compile(program)
        missing = set(program.functions) - set(table)
        assert not missing, (spec.name, missing)


def test_may_undefined_read_declines():
    """A variable assigned on only one If branch is not definitely
    assigned afterwards; the function must stay on the tree walker
    (which shares its NameError-on-actual-use semantics)."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        with f.if_(Const(1)):
            f.assign("x", 41)
        f.ret(Var("x") + Const(1))
    program = builder.build()
    function = program.functions["main"]
    assert (
        compile_function(function, COSTS, False) is None
    )
    # ... but the engine still runs it, via per-function fallback.
    result = run_on(CompiledEngine, program, "Native")
    assert result.return_value == 42


def test_audited_function_declines():
    """A function holding an elided-check marker tree-walks: the
    tree-walker's replay is the only elision-audit implementation."""
    program = SPEC_TABLE2_ROWS[0].build()
    audited = instrument(program, GiantSan(), audit_elisions=True).program
    plain = instrument(program, GiantSan()).program
    marked = [
        name
        for name, function in audited.functions.items()
        if any(type(instr) is CheckElided for instr in walk(function.body))
    ]
    assert marked
    for name in marked:
        args = (COSTS, False)
        assert compile_function(audited.functions[name], *args) is None
        assert compile_function(plain.functions[name], *args) is not None


def test_loop_induction_var_not_definite_after_loop():
    """Zero-trip rule: reading the induction variable after the loop is
    a may-undefined read, so the function declines compilation."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        with f.loop("i", 0, 4):
            f.compute(1.0)
        f.ret(Var("i"))
    function = builder.build().functions["main"]
    assert compile_function(function, COSTS, False) is None


def test_compile_cache_memoized_per_program():
    program = _simple_program()
    first = _compile(program)
    second = _compile(program)
    assert first is second


def test_telemetry_runs_share_one_closure_table(engine_log):
    """Generated code tests telemetry at run time, so a telemetry-on
    and a telemetry-off run of one memoized program compile once and
    share one table."""
    program = _long_program()
    config = ExecConfig(memoize=True)
    sessions = [
        Session("GiantSan", config, telemetry=telemetry)
        for telemetry in (False, True)
    ]
    plain, traced = (session.run(program, LONG) for session in sessions)
    iprogram = sessions[0].instrument(program)
    assert sessions[1].instrument(program) is iprogram
    tables = getattr(iprogram.program, compiler._TABLE_ATTR)
    assert list(tables) == [(COSTS, False, GiantSan.first_stages)]
    assert engine_log == {"tree": ["main"], "compiles": 1}
    assert plain.telemetry is None and traced.telemetry is not None
    traced = observables(traced)
    del traced["telemetry"], traced["superblock"]
    assert observables(plain) == traced


# ----------------------------------------------------------------------
# observable error parity
# ----------------------------------------------------------------------
def test_budget_exceeded_message_matches_tree():
    builder = ProgramBuilder()
    with builder.function("main") as f:
        with f.loop("i", 0, 1000) as i:
            f.assign("x", i)
        f.ret(0)
    program = builder.build()
    messages = {}
    for engine in (Interpreter, CompiledEngine):
        with pytest.raises(BudgetExceeded) as excinfo:
            run_on(engine, program, "Native", max_instructions=100)
        messages[engine] = str(excinfo.value)
    assert messages[Interpreter] == messages[CompiledEngine]
    assert "100" in messages[Interpreter]


def test_wrong_argc_message_matches_tree():
    builder = ProgramBuilder()
    with builder.function("helper", params=["a", "b"]) as f:
        f.ret(0)
    with builder.function("main") as f:
        f.call("helper", [1])
        f.ret(0)
    program = builder.build()
    messages = {}
    for engine in (Interpreter, CompiledEngine):
        with pytest.raises(TypeError) as excinfo:
            run_on(engine, program, "Native")
        messages[engine] = str(excinfo.value)
    assert messages[Interpreter] == messages[CompiledEngine]


def test_compiled_calls_interop_with_tree_fallback():
    """A compiled main calling an uncompilable helper (and vice versa)
    must thread instruction counts and cycles through the shared
    engine state."""
    builder = ProgramBuilder()
    with builder.function("helper", params=["n"]) as f:
        with f.if_(Const(1)):
            f.assign("x", 1)
        f.ret(Var("x") + Var("n"))
    with builder.function("main") as f:
        total = f.assign("total", 0)
        with f.loop("i", 0, 5) as i:
            got = f.call("helper", [i], dst="got")
            f.assign("total", total + got)
        f.ret(total)
    program = builder.build()
    table = _compile(program)
    assert "main" in table and "helper" not in table
    tree = run_on(Interpreter, program, "Native")
    compiled = run_on(CompiledEngine, program, "Native")
    assert compiled.return_value == tree.return_value == 5 + sum(range(5))
    assert compiled.instructions_executed == tree.instructions_executed
    assert compiled.native_cycles == tree.native_cycles


def test_compiled_source_is_inspectable():
    """Generated source is kept on the CompiledFunction for debugging."""
    program = _simple_program()
    table = _compile(program)
    source = table["main"].source
    assert "def _cf(E, e):" in source
    assert "I += 1" in source


@pytest.mark.parametrize("tool", ["ASan", "GiantSan", "LFP", "Native"])
def test_regenerated_source_is_the_compiled_text(tool, monkeypatch):
    """``source`` is emitted again on each read; it must be exactly the
    text each closure was compiled from, under every table key."""
    compiled_text = {}
    define = compiler._Emitter.define

    def recording(self, name, filename):
        compiled_text[id(self.fn)] = "\n".join(self.lines)
        return define(self, name, filename)

    monkeypatch.setattr(compiler._Emitter, "define", recording)
    session = Session(tool, ExecConfig())
    runner = CompiledEngine(
        session.sanitizer, native_costs=session.cost_model.native
    )
    checked = 0
    for spec in SPEC_TABLE2_ROWS[::4]:
        # unmemoized: a fresh program whose tables this test compiles
        program = instrument(spec.build(), session.sanitizer).program
        table = compile_program(program, *runner.table_key())
        for name, compiled in table.items():
            assert compiled.function is program.functions[name]
            assert compiled.source == compiled_text[id(compiled.function)]
            checked += 1
    assert checked > 0
