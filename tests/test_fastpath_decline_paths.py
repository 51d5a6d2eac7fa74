"""Directed differentials for superblock fast-path *decline* paths.

The fast path must refuse (or safely handle) the awkward loops — zero
trips, tiny trip counts, negative strides, final accesses landing
exactly on the usable/redzone boundary, unbounded trip counts — and in
every case the observables must match the reference walker exactly.
These are the edges the fuzzer's random programs only occasionally hit,
so each gets a pinned, deterministic test here.
"""

import pytest

from engines import engine_on, run_on
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Var
from repro.runtime import CompiledEngine, ExecConfig, Interpreter, Session

TOOLS = ["Native", "GiantSan", "ASan", "ASan--", "LFP", "HWASan"]


def _config(fastpath):
    return ExecConfig.from_env(fastpath=fastpath, memoize=False)


def _observables(result):
    return {
        "native_cycles": result.native_cycles,
        "instructions": result.instructions_executed,
        "return_value": result.return_value,
        "stats": result.stats.as_dict(),
        "protection": dict(result.protection_counts),
        "errors": [(e.kind, e.address) for e in result.errors],
    }


def _assert_paths_match(program, expect_errors_from=()):
    for tool in TOOLS:
        on = Session(tool, _config(True)).run(program)
        off = Session(tool, _config(False)).run(program)
        assert _observables(on) == _observables(off), tool
        if tool in expect_errors_from:
            assert off.errors, f"{tool} missed the planted bug"


def test_zero_trip_loop():
    """start == end: the loop body never runs, no checks are emitted."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 0) as i:
            f.store("buf", i * 8, 8, i)
        f.free("buf")
        f.ret(0)
    _assert_paths_match(builder.build())


def test_trip_count_below_minimum():
    """Trip counts under MIN_TRIP_COUNT decline folding but still check."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 3) as i:
            f.store("buf", i * 8, 8, i)
        f.free("buf")
        f.ret(0)
    _assert_paths_match(builder.build())


def test_reverse_walk_in_bounds():
    """Negative-stride traversal (Figure 11c pattern) within bounds."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 128)
        with f.loop("i", 0, 16, reverse=True) as i:
            f.store("buf", i * 8, 8, i)
        total = f.assign("total", 0)
        with f.loop("j", 0, 16, reverse=True) as j:
            loaded = f.load("x", "buf", j * 8, 8)
            f.assign("total", total + loaded)
        f.free("buf")
        f.ret(total)
    program = builder.build()
    _assert_paths_match(program)
    result = Session("Native", _config(False)).run(program)
    assert result.return_value == sum(range(16))


def test_reverse_walk_overflowing():
    """Negative stride whose *first* access is past the end: both paths
    must report, at the same address, the same number of times."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 9, reverse=True) as i:
            f.store("buf", i * 8, 8, i)  # i=8 writes bytes [64, 72)
        f.free("buf")
        f.ret(0)
    # 64 is an exact LFP size class and a HWASan granule multiple, so
    # every protected tool sees bytes [64, 72) as out of bounds
    _assert_paths_match(
        builder.build(),
        expect_errors_from=("GiantSan", "ASan", "ASan--", "LFP", "HWASan"),
    )


def test_final_access_exactly_at_usable_boundary():
    """The last iteration's access ends exactly at base + size: fully
    addressable, so the fast path may fold it — but must not report."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 8) as i:
            f.store("buf", i * 8, 8, i)  # last write ends at offset 64
        f.free("buf")
        f.ret(0)
    program = builder.build()
    _assert_paths_match(program)
    for tool in TOOLS:
        result = Session(tool, _config(True)).run(program)
        assert not result.errors, tool


def test_final_partial_segment_on_redzone_boundary():
    """Object size not segment-aligned: the final in-bounds access ends
    inside a partial segment, one byte short of the redzone."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 61)  # 7 good segments + 5-partial tail
        with f.loop("i", 0, 61) as i:
            f.store("buf", i, 1, 7)
        f.free("buf")
        f.ret(0)
    program = builder.build()
    _assert_paths_match(program)
    for tool in TOOLS:
        result = Session(tool, _config(True)).run(program)
        assert not result.errors, tool


def test_loop_one_past_redzone_boundary():
    """Same shape, one extra iteration: the access at offset 61 is the
    first poisoned byte. Fast path must decline the fold and report the
    same error the walker does."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 61)
        with f.loop("i", 0, 62) as i:
            f.store("buf", i, 1, 7)
        f.free("buf")
        f.ret(0)
    # LFP rounds 61 up to its 64-byte size class and HWASan to granule
    # 64, so byte 61 is inside their usable slack — no report expected
    _assert_paths_match(
        builder.build(), expect_errors_from=("GiantSan", "ASan", "ASan--")
    )


def test_unbounded_loop_takes_cached_path():
    """bounded=False forbids SCEV promotion; GiantSan's CheckCached
    history-based protection must behave identically on both paths."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 256)
        with f.loop("i", 0, 32, bounded=False) as i:
            f.store("buf", i * 8, 8, i)
        f.free("buf")
        f.ret(0)
    _assert_paths_match(builder.build())


def test_non_affine_subscript_declines():
    """A quadratic subscript defeats SCEV: the reference walker runs."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 1024)
        with f.loop("i", 0, 10) as i:
            f.store("buf", i * i * 8, 8, i)
        f.free("buf")
        f.ret(0)
    _assert_paths_match(builder.build())


@pytest.mark.parametrize("size", [8, 16, 24, 56, 64, 72, 4096])
def test_exact_fit_walk_across_sizes(size):
    """Exact-fit 8-byte walks across segment-aligned sizes never report
    and never diverge between the two execution paths."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", size)
        with f.loop("i", 0, size // 8) as i:
            f.store("buf", i * 8, 8, 1)
        f.free("buf")
        f.ret(0)
    _assert_paths_match(builder.build())


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
        config=_config(True),
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
        runner, iprogram = engine_on(engine, program, tool, _config(True))
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
