"""The tree walker's dispatch table.

:class:`~repro.runtime.Interpreter` runs each instruction through the
handler its type maps to in ``interpreter._HANDLERS``, right after
counting it against the budget.  These tests pin that contract: every
instruction class has a handler, an unknown type is counted and then
refused, and a budget trips before the instruction at the limit runs,
whatever its kind, leaving the compiled engine's state equal to the tree
walker's.
"""

import pytest

from engines import budget_trip, engine_on
from repro.errors import AccessType
from repro.ir import nodes
from repro.ir.nodes import (
    Assign,
    CacheFinalize,
    Call,
    CheckAccess,
    CheckCached,
    CheckElided,
    CheckRegion,
    Compute,
    Const,
    Free,
    GlobalAlloc,
    If,
    Instr,
    Load,
    Loop,
    Malloc,
    Memcpy,
    Memset,
    Protection,
    PtrAdd,
    Return,
    StackAlloc,
    Store,
    Strcpy,
    Var,
)
from repro.ir.program import Function, Program
from repro.passes.base import PassStats
from repro.passes.instrument import InstrumentedProgram
from repro.runtime import (
    BudgetExceeded,
    CompiledEngine,
    Interpreter,
    compiler,
    interpreter,
)
from repro.sanitizers import NativeSanitizer

READ, WRITE = AccessType.READ, AccessType.WRITE


def _instrumented(*functions, cache_count=0):
    program = Program({function.name: function for function in functions})
    return InstrumentedProgram(
        program=program, stats=PassStats(), style="none",
        cache_count=cache_count,
    )


def every_kind_program():
    """Each instruction kind the walker dispatches, the checks placed by
    hand: ``main`` holds every kind but CheckElided, which its callee
    ``audited`` holds (an audited function tree-walks on both engines).
    In bounds throughout, so no check reports."""
    main = Function("main", [], [
        StackAlloc("frame", 32),
        GlobalAlloc("g", 64),
        Malloc("p", Const(64)),
        Compute(3.0),
        Assign("x", Const(5)),
        PtrAdd("q", "p", Const(8)),
        CheckAccess("p", Const(8), 8, WRITE),
        Store("p", Const(8), 8, Var("x")),
        CheckRegion("p", Const(0), Const(16), READ),
        CheckCached(0, "p", Const(8), 8, READ),
        Load("y", "p", Const(8), 8, protection=Protection.CACHED),
        CacheFinalize(0, "p", READ),
        Memset("frame", Const(0), Const(16), Const(0)),
        Memcpy("p", Const(16), "g", Const(0), Const(8)),
        Strcpy("q", Const(32), "g", Const(0)),
        Loop("i", Const(0), Const(3), [
            Store("p", Var("i") * 8, 8, Var("i"),
                  protection=Protection.ELIMINATED),
        ]),
        If(Var("x").gt(3), [Assign("z", Const(1))], [Assign("z", Const(2))]),
        Call("audited", [Var("p")], "r"),
        Free("p"),
        Return(Var("y") + Var("r")),
    ])
    audited = Function("audited", ["s"], [
        CheckElided(CheckAccess("s", Const(8), 8, READ), "in bounds"),
        Load("v", "s", Const(8), 8, protection=Protection.ELIDED),
        Return(Var("v")),
    ])
    return _instrumented(main, audited, cache_count=1)


def _dispatch_log(monkeypatch):
    """The instruction types the walker dispatches, in order, from here
    on: every table entry is wrapped to log its type first."""
    log = []

    def logged(kind, handler):
        def spy(self, instr, env):
            log.append(kind)
            return handler(self, instr, env)

        return spy

    for kind, handler in list(interpreter._HANDLERS.items()):
        monkeypatch.setitem(interpreter._HANDLERS, kind, logged(kind, handler))
    return log


def test_every_instruction_class_has_a_handler():
    concrete = {
        value
        for value in vars(nodes).values()
        if isinstance(value, type)
        and issubclass(value, Instr)
        and value is not Instr
    }
    assert set(interpreter._HANDLERS) == concrete


def test_every_kind_program_dispatches_every_kind(monkeypatch):
    log = _dispatch_log(monkeypatch)
    result = Interpreter(NativeSanitizer()).run(every_kind_program())
    assert set(log) == set(interpreter._HANDLERS)
    assert result.instructions_executed == len(log)
    assert result.return_value == 5 + 1  # y, then the loop's p[8]


class Bogus(Instr):
    """An instruction type no engine knows."""


def test_unknown_instruction_is_counted_then_refused():
    program = _instrumented(Function("main", [], [Compute(1.0), Bogus()]))
    runner = Interpreter(NativeSanitizer())
    with pytest.raises(TypeError, match=r"cannot execute Bogus\(\)"):
        runner.run(program)
    assert runner.instructions == 2
    assert runner.native_cycles == 1.0


def test_unknown_instruction_at_the_limit_trips_the_budget():
    program = _instrumented(Function("main", [], [Compute(1.0), Bogus()]))
    runner = Interpreter(NativeSanitizer(), max_instructions=1)
    with pytest.raises(BudgetExceeded, match="exceeded 1 executed"):
        runner.run(program)
    assert runner.instructions == 2


def test_a_subclass_of_a_known_type_is_unknown():
    """Dispatch is by exact type, as the ``type(instr) is`` chain was."""

    class TaggedCompute(Compute):
        pass

    program = _instrumented(Function("main", [], [TaggedCompute(2.0)]))
    with pytest.raises(TypeError, match="cannot execute"):
        Interpreter(NativeSanitizer()).run(program)


def _first_position_of_each_kind(monkeypatch):
    """``{kind: index}``: where in a full tree walk of
    :func:`every_kind_program` each kind is first dispatched."""
    log = _dispatch_log(monkeypatch)
    Interpreter(NativeSanitizer()).run(every_kind_program())
    first = {}
    for index, kind in enumerate(log):
        first.setdefault(kind, index)
    monkeypatch.undo()
    return first, log


@pytest.mark.parametrize("tool", ["GiantSan", "ASan"])
def test_budget_trips_before_the_instruction_at_the_limit(tool, monkeypatch):
    """With a budget of ``k`` the walk counts the ``k+1``-th instruction,
    raises before dispatching it, and leaves the first ``k`` dispatched;
    at every kind's first position the compiled engine's trip leaves the
    tree walker's message, stats and error log."""
    first, full = _first_position_of_each_kind(monkeypatch)
    assert set(first) == set(interpreter._HANDLERS)
    program = every_kind_program()
    # the compiled side runs ``main`` as a closure; only ``audited`` walks
    runner, _ = engine_on(CompiledEngine, program, tool)
    table = compiler.compile_program(program.program, *runner.table_key())
    assert set(table) == {"main"}
    for kind, limit in sorted(first.items(), key=lambda item: item[1]):
        log = _dispatch_log(monkeypatch)
        runner, iprogram = engine_on(
            Interpreter, program, tool, max_instructions=limit
        )
        with pytest.raises(BudgetExceeded):
            runner.run(iprogram)
        monkeypatch.undo()
        assert log == full[:limit], kind.__name__
        assert runner.instructions == limit + 1, kind.__name__
        assert budget_trip(
            CompiledEngine, program, tool, limit
        ) == budget_trip(Interpreter, program, tool, limit), kind.__name__
