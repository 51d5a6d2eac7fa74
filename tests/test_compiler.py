"""Unit coverage for the compile-to-closures engine.

The differential suite (:mod:`tests.test_engine_differential`) proves
observation-equivalence end to end; these tests pin the compiler's own
contract: which functions it declines, how declines fall back, how the
compile cache is keyed, and when a session picks the compiled engine.
"""

import importlib

import pytest

from engines import run_on
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Const, Var
from repro.runtime import (
    BudgetExceeded,
    CompiledEngine,
    ExecConfig,
    Interpreter,
    Session,
    compile_function,
    compile_program,
)
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.runtime.session import COMPILE_AFTER_INSTRUCTIONS
from repro.workloads.spec import SPEC_TABLE2_ROWS

COSTS = DEFAULT_COST_MODEL.native


def _compile(program, **kwargs):
    defaults = dict(costs=COSTS, needs_resolve=False, telemetry_on=False)
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


def _long_program():
    """A loop of well over COMPILE_AFTER_INSTRUCTIONS instructions."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        total = f.assign("total", 0)
        with f.loop("i", 0, COMPILE_AFTER_INSTRUCTIONS) as i:
            f.store("buf", (i % 8) * 8, 8, i)
            f.assign("total", total + i)
        f.free("buf")
        f.ret(total)
    return builder.build()


# ----------------------------------------------------------------------
# engine selection: compile a memoized program once its last run was long
# ----------------------------------------------------------------------
@pytest.fixture
def engines_run(monkeypatch):
    """The engine class of every run, in order, over an empty memo."""
    # the module, not the function ``repro.passes.instrument`` exports
    memo_module = importlib.import_module("repro.passes.instrument")
    monkeypatch.setattr(memo_module, "_MEMO", {})
    runs, run = [], Interpreter.run
    monkeypatch.setattr(Interpreter, "run", lambda self, *args: (
        runs.append(type(self)) or run(self, *args)
    ))
    return runs


def _session_run(program, memoize=True):
    return Session("GiantSan", ExecConfig(memoize=memoize)).run(program)


def _observables(result):
    return (
        result.return_value,
        result.native_cycles,
        result.instructions_executed,
        result.stats.as_dict(),
        dict(result.protection_counts),
        [(e.kind, e.address, e.size) for e in result.errors],
    )


def test_memoized_first_run_is_a_tree_run(engines_run):
    result = _session_run(_long_program())
    assert engines_run == [Interpreter]
    assert result.instructions_executed >= COMPILE_AFTER_INSTRUCTIONS


def test_rerun_after_a_long_run_is_compiled(engines_run):
    program = _long_program()
    for _ in range(3):
        _session_run(program)
    assert engines_run == [Interpreter, CompiledEngine, CompiledEngine]


def test_short_program_stays_on_the_tree_engine(engines_run):
    program = _simple_program()
    results = [_session_run(program) for _ in range(3)]
    assert engines_run == [Interpreter] * 3
    assert results[-1].instructions_executed < COMPILE_AFTER_INSTRUCTIONS


def test_memoize_off_always_tree_walks_with_equal_observables(engines_run):
    program = _long_program()
    fresh = [_session_run(program, memoize=False) for _ in range(2)]
    memoized = [_session_run(program) for _ in range(2)]
    assert engines_run == [Interpreter] * 3 + [CompiledEngine]
    observed = [_observables(result) for result in fresh + memoized]
    assert observed == observed[:1] * 4


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
        compile_function(function, COSTS, False, False) is None
    )
    # ... but the engine still runs it, via per-function fallback.
    result = run_on(CompiledEngine, program, "Native")
    assert result.return_value == 42


def test_loop_induction_var_not_definite_after_loop():
    """Zero-trip rule: reading the induction variable after the loop is
    a may-undefined read, so the function declines compilation."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        with f.loop("i", 0, 4):
            f.compute(1.0)
        f.ret(Var("i"))
    function = builder.build().functions["main"]
    assert compile_function(function, COSTS, False, False) is None


def test_compile_cache_memoized_per_program():
    program = _simple_program()
    first = _compile(program)
    second = _compile(program)
    assert first is second
    telemetry_variant = _compile(program, telemetry_on=True)
    assert telemetry_variant is not first


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
