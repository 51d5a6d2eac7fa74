"""Unit coverage for the compile-to-closures engine.

The differential suite (:mod:`tests.test_engine_differential`) proves
observation-equivalence end to end; these tests pin the compiler's own
contract: which functions it declines, how declines fall back, how the
compile cache is keyed, and how the engine is selected.
"""

import pytest

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
    resolve_engine,
)
from repro.runtime.cost_model import DEFAULT_COST_MODEL
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


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------
def test_resolve_engine_names():
    assert resolve_engine("tree") is Interpreter
    assert resolve_engine("compiled") is CompiledEngine


def test_resolve_engine_rejects_unknown():
    with pytest.raises(ValueError, match="compiled"):
        resolve_engine("jit")


def _config(engine):
    return ExecConfig.from_env(engine=engine, memoize=False)


def test_session_engine_parameter():
    def engine(name):
        return Session("Native", ExecConfig.from_env(engine=name)).engine

    assert engine("compiled") is CompiledEngine
    assert engine("tree") is Interpreter
    with pytest.raises(ValueError):
        engine("bytecode")


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
    result = Session("Native", _config("compiled")).run(
        program
    )
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
    for engine in ("tree", "compiled"):
        session = Session(
            "Native", _config(engine), max_instructions=100
        )
        with pytest.raises(BudgetExceeded) as excinfo:
            session.run(program)
        messages[engine] = str(excinfo.value)
    assert messages["tree"] == messages["compiled"]
    assert "100" in messages["tree"]


def test_wrong_argc_message_matches_tree():
    builder = ProgramBuilder()
    with builder.function("helper", params=["a", "b"]) as f:
        f.ret(0)
    with builder.function("main") as f:
        f.call("helper", [1])
        f.ret(0)
    program = builder.build()
    messages = {}
    for engine in ("tree", "compiled"):
        session = Session("Native", _config(engine))
        with pytest.raises(TypeError) as excinfo:
            session.run(program)
        messages[engine] = str(excinfo.value)
    assert messages["tree"] == messages["compiled"]


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
    tree = Session("Native", _config("tree")).run(program)
    compiled = Session("Native", _config("compiled")).run(
        program
    )
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
