"""Directed fast-path decline shapes: what each one reports.

The fast path must refuse (or safely handle) the awkward loops — zero
trips, tiny trip counts, negative strides, final accesses landing
exactly on the usable/redzone boundary, unbounded trip counts.  These
are the edges the fuzzer's random programs only occasionally hit, so
each is registered once in :data:`corpus.DIRECTED`, and the
configuration-matrix harness (:mod:`test_config_matrix`) runs it in
every execution cell against the reference walker.  Here each shape's
verdict is pinned in the reference cell: which tools report it, and
what it returns.
"""

import pytest

from corpus import DIRECTED, TOOLS
from engines import engine_on, run_on
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Var
from repro.runtime import CompiledEngine, ExecConfig, Interpreter, Session

REFERENCE = ExecConfig(fastpath=False, memoize=False)
#: The fast path on, instrumenting afresh on every run.
FASTPATH = ExecConfig(memoize=False)

#: The shapes some tool reports, and the tools that do; every other
#: shape stays in bounds under every tool.
REPORTED = {
    # i=8 writes bytes [64, 72); 64 is an exact LFP size class and a
    # HWASan granule multiple, so every protected tool sees it
    "reverse_overflow": {"GiantSan", "ASan", "ASan--", "LFP", "HWASan"},
    # LFP rounds 61 up to its 64-byte size class and HWASan to granule
    # 64, so byte 61 is inside their usable slack
    "one_past_partial_tail": {"GiantSan", "ASan", "ASan--"},
}

#: The shapes that return something other than 0.
RETURNS = {
    "reverse_in_bounds": sum(range(16)),
    "memory_effects": sum(i * 1000 + 7 for i in range(32)),
}


@pytest.mark.parametrize("shape", sorted(DIRECTED))
def test_shape_verdict(shape):
    program = DIRECTED[shape]()
    for tool in TOOLS:
        result = Session(tool, REFERENCE).run(program)
        assert bool(result.errors) == (tool in REPORTED.get(shape, ())), tool
        assert result.return_value == RETURNS.get(shape, 0), tool


def _variable_shift_program():
    """Fill a buffer, then store ``a[i] << n`` with ``n`` a parameter,
    so constant propagation cannot turn the amount into a constant."""
    builder = ProgramBuilder()
    with builder.function("main", params=["n"]) as f:
        f.malloc("a", 64)
        with f.loop("i", 0, 8) as i:
            f.store("a", i * 8, 8, i + 1)
        with f.loop("i", 0, 8) as i:
            x = f.load("x", "a", i * 8, 8)
            f.store("a", i * 8, 8, x << Var("n"))
        f.free("a")
        f.ret(0)
    return builder.build()


@pytest.mark.parametrize("engine", [Interpreter, CompiledEngine])
def test_variable_shift_declines_as_ineligible(engine):
    """A superblock must never raise after its first store, so a
    runner only shifts by non-negative constants; a variable amount
    leaves the loop to the per-iteration path on both engines."""
    result = run_on(
        engine,
        _variable_shift_program(),
        "GiantSan",
        config=FASTPATH,
        args=[1],
        telemetry=True,
    )
    declines = result.telemetry.superblock_declines
    assert declines == {"ineligible_body": 1}
    assert result.telemetry.counters["superblock_loops"] == 1  # the fill


@pytest.mark.parametrize("tool", ["GiantSan", "ASan"])
def test_negative_shift_raises_alike_on_both_engines(tool):
    """A negative amount raises in the shift loop, after the fill
    loop's stores: both engines raise the same error from the same
    state."""
    program = _variable_shift_program()
    states, messages = [], []
    for engine in (Interpreter, CompiledEngine):
        runner, iprogram = engine_on(engine, program, tool, FASTPATH)
        with pytest.raises(ValueError) as excinfo:
            runner.run(iprogram, [-1])
        messages.append(str(excinfo.value))
        states.append(
            (
                runner.instructions,
                runner.native_cycles,
                runner.san.stats.as_dict(),
                bytes(runner.san.space._mem),
            )
        )
    assert messages[0] == messages[1]
    assert states[0] == states[1]
