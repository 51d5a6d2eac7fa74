"""What a caller can reach after a compiled closure raises.

A closure charges the instruction budget once per straight-line run and
tallies each inlined first stage's hits in a local that its ``finally``
applies to the sanitizer's stats.  So when a run raises mid-closure
(the budget runs out, or a check halts on its first error), the engine's
own counters may differ from the tree walker's, but nothing the caller
can still reach may: the exception's message, the sanitizer's stats,
its error log, its shadow, its live and quarantined allocations and the
bytes of its address space.  The program places its checks by hand, so
each of ASan, LFP and GiantSan runs its inlined stage on most iterations
and its check methods elsewhere, with the fast path off so every
iteration runs inside the closures.
"""

from hashlib import sha256

import pytest

from engines import engine_on
from repro.errors import AccessType, SanitizerError
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import CheckAccess, CheckCached, CheckRegion, Var
from repro.passes.base import PassStats
from repro.passes.instrument import InstrumentedProgram
from repro.runtime import (
    BudgetExceeded,
    CompiledEngine,
    ExecConfig,
    Interpreter,
    Session,
    compiler,
)

READ, WRITE = AccessType.READ, AccessType.WRITE

#: The tools whose check methods have an inlined first stage.
STAGED_TOOLS = ("ASan", "LFP", "GiantSan")

#: Elements of the checked buffer; a run over ``TRIPS + 1`` overflows.
TRIPS = 16


def _program():
    """``main(n)``: check and store ``n`` elements of a ``TRIPS``-element
    buffer with every check kind, then load them back through a branch
    and a call whose callee checks again, and free a second buffer."""
    builder = ProgramBuilder()
    with builder.function("main", params=["n"]) as f:
        f.malloc("p", TRIPS * 8)
        f.malloc("q", 48)
        with f.loop("i", 0, Var("n")) as i:
            f._emit(CheckAccess("p", i * 8, 8, WRITE))
            f._emit(CheckRegion("p", i * 8, i * 8 + 8, WRITE))
            f._emit(CheckCached(0, "p", i * 8, 8, WRITE))
            f.store("p", i * 8, 8, i * 3 + 1)
            f.compute(2)
        f.assign("t", 0)
        with f.loop("j", 0, 6) as j:
            x = f.load("x", "p", j * 8, 8)
            with f.if_(x & 1):
                f.assign("t", Var("t") + x)
            with f.else_():
                f.store("q", j * 8, 8, x)
            got = f.call("helper", [Var("q"), j], dst="got")
            f.assign("t", Var("t") + got)
        f.free("q")
        f.ret(Var("t"))
    with builder.function("helper", params=["b", "k"]) as f:
        f._emit(CheckAccess("b", Var("k") * 8, 8, READ))
        f._emit(CheckRegion("b", Var("k") * 8, Var("k") * 8 + 8, READ))
        f._emit(CheckCached(1, "b", Var("k") * 8, 8, READ))
        y = f.load("y", "b", Var("k") * 8, 8)
        f.ret(y)
    return builder.build()


PROGRAM = _program()


def _reachable(san):
    """What the caller of a run still reaches through its sanitizer."""
    return {
        "stats": san.stats.as_dict(),
        "errors": [
            (e.kind, e.address, e.size, e.access, e.shadow_value,
             e.allocation_id, e.detail)
            for e in san.log
        ],
        "live": san.allocator.live_allocations,
        "quarantined": list(san.quarantine._queue),
        "shadow": sha256(san.shadow.view(0, len(san.shadow))).hexdigest(),
        "memory": sha256(san.space._mem).hexdigest(),
    }


def _raised(engine, tool, n, **session_kwargs):
    """``(exception text or None, reachable state, engine counters)``
    after one run of :data:`PROGRAM` with ``n`` trips on ``engine``."""
    config = ExecConfig(fastpath=False, memoize=False)
    session = Session(tool, config, **session_kwargs)
    runner = engine(
        session.sanitizer,
        native_costs=session.cost_model.native,
        max_instructions=session.max_instructions,
        fastpath=False,
    )
    if engine is CompiledEngine:
        table = compiler.compile_program(PROGRAM, *runner.table_key())
        assert set(table) == set(PROGRAM.functions)
        assert "_h1 += 1" in table["main"].source
    raised = None
    try:
        runner.run(InstrumentedProgram(PROGRAM, PassStats(), "region"), [n])
    except (BudgetExceeded, SanitizerError) as error:
        raised = f"{type(error).__name__}: {error}"
    counters = (
        runner.instructions,
        runner.native_cycles,
        dict(runner.protection_counts),
    )
    return raised, _reachable(session.sanitizer), counters


@pytest.mark.parametrize("tool", STAGED_TOOLS)
def test_budget_edge_leaves_the_tree_walkers_state(tool):
    """At every instruction budget from 0 to the run's length, the
    closures raise the tree walker's BudgetExceeded, or finish, and
    leave the sanitizer as the tree walker leaves it."""
    raised, complete, (length, _, _) = _raised(Interpreter, tool, TRIPS)
    assert raised is None and not complete["errors"]
    for budget in range(length + 1):
        tree = _raised(Interpreter, tool, TRIPS, max_instructions=budget)
        compiled = _raised(CompiledEngine, tool, TRIPS, max_instructions=budget)
        assert compiled[:2] == tree[:2], budget
        assert (tree[0] is None) == (budget == length), budget


@pytest.mark.parametrize("tool", STAGED_TOOLS)
def test_halt_on_error_after_fast_hits_leaves_the_tree_walkers_state(tool):
    """A SanitizerError on the last of ``TRIPS + 1`` iterations, after
    ``TRIPS`` inlined-stage hits, leaves the sanitizer as the tree
    walker leaves it.  A check is charged before it runs, so even the
    engine's own counters match."""
    tree = _raised(Interpreter, tool, TRIPS + 1, halt_on_error=True)
    compiled = _raised(CompiledEngine, tool, TRIPS + 1, halt_on_error=True)
    assert tree[0] is not None and tree[0].startswith("SanitizerError")
    assert tree[1]["stats"]["checks_executed"] > TRIPS
    assert compiled == tree


def test_raising_call_argument_leaves_the_engines_counters_equal():
    """A Call whose argument raises is charged no cycles, as on the
    tree walker."""
    builder = ProgramBuilder()
    with builder.function("main", params=["n"]) as f:
        f.assign("x", 3)
        f.call("helper", [Var("x") << Var("n")], dst="r")
        f.ret(Var("r"))
    with builder.function("helper", params=["a"]) as f:
        f.ret(Var("a"))
    program = builder.build()
    counters = []
    for engine in (Interpreter, CompiledEngine):
        runner, iprogram = engine_on(
            engine, program, "Native", ExecConfig(memoize=False)
        )
        with pytest.raises(ValueError):
            runner.run(iprogram, [-1])
        counters.append((runner.instructions, runner.native_cycles))
    assert counters[0] == counters[1]
