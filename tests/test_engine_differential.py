"""Differential regression: compiled closure engine vs reference walker.

The compile-to-closures engine (:mod:`repro.runtime.compiler`) is an
acceleration of the tree-walking interpreter, not a semantic change.
This suite is the proof: every Table 2 proxy, the directed fast-path
decline shapes, and a slice of the fuzzer corpus all run under both
engines — with the superblock fast path both on and off — and every
observable must match exactly: CheckStats, simulated cycle totals,
instruction counts, Figure 10 protection categories, return values,
full error reports, the bytes of the address space after the run,
telemetry counters, and elision-audit replays.
The same holds for a session's memoized run, which starts on the tree
walker and switches to closures mid-run.
"""

from typing import NamedTuple

import pytest

from engines import engine_on, memory_digest
from repro.fuzz import build_case, case_seed_for, generate_case
from repro.fuzz.driver import CASE_MAX_INSTRUCTIONS
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Const, Var
from repro.runtime import (
    BudgetExceeded,
    CompiledEngine,
    ExecConfig,
    Interpreter,
    Session,
    compiler,
)
from repro.runtime.compiler import COMPILE_AFTER_INSTRUCTIONS
from repro.workloads.spec import SPEC_TABLE2_ROWS

#: Reduced iteration scale keeps the proxy matrix quick.
SCALE = 2

TOOLS = ["Native", "GiantSan", "ASan", "ASan--", "LFP"]

#: Corpus slice: enough seeds to cover mallocs/frees/loops/planted bugs
#: without dominating tier-1 wall clock.
FUZZ_SEED = 20260806
FUZZ_CASES = 20


class Run(NamedTuple):
    """One run's result and a digest of its final address space."""

    result: object
    memory: str


def _observables(run):
    """Everything a run can tell the caller, timings excluded.

    Error reports are compared field-by-field (not just kind/address):
    the compiled engine must reproduce shadow values, access sizes and
    allocation ids bit-for-bit.  The proxies return None, so the memory
    digest is what compares the bytes superblocks store.
    """
    result = run.result
    return {
        "native_cycles": result.native_cycles,
        "instructions": result.instructions_executed,
        "return_value": result.return_value,
        "stats": result.stats.as_dict(),
        "protection": dict(result.protection_counts),
        "errors": [
            (
                e.kind,
                e.address,
                e.size,
                e.access,
                e.shadow_value,
                e.allocation_id,
                e.detail,
            )
            for e in result.errors
        ],
        "audit_failures": list(result.elision_audit_failures),
        "memory": run.memory,
    }


def _run(program, tool, engine, fastpath, args=None, **kwargs):
    config = ExecConfig.from_env(fastpath=fastpath, memoize=False)
    runner, iprogram = engine_on(engine, program, tool, config, **kwargs)
    result = runner.run(iprogram, args)
    return Run(result, memory_digest(runner.san))


def _assert_engines_match(program, tools=TOOLS, args=None, **kwargs):
    for tool in tools:
        for fastpath in (True, False):
            tree = _run(
                program, tool, Interpreter, fastpath, args=args, **kwargs
            )
            compiled = _run(
                program, tool, CompiledEngine, fastpath, args=args, **kwargs
            )
            assert _observables(tree) == _observables(compiled), (
                tool,
                fastpath,
            )


# ----------------------------------------------------------------------
# Table 2 proxy kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SPEC_TABLE2_ROWS, ids=lambda s: s.name)
@pytest.mark.parametrize("tool", TOOLS)
def test_compiled_matches_tree_on_spec(spec, tool):
    """Every proxy x tool cell, superblock fast path on (the default
    production configuration)."""
    program = spec.build()
    tree = _run(program, tool, Interpreter, True, args=[SCALE])
    compiled = _run(program, tool, CompiledEngine, True, args=[SCALE])
    assert _observables(tree) == _observables(compiled)


@pytest.mark.parametrize("spec", SPEC_TABLE2_ROWS, ids=lambda s: s.name)
def test_compiled_matches_tree_without_fastpath(spec):
    """Fast path off exercises the compiled per-iteration loop bodies."""
    program = spec.build()
    tree = _run(program, "GiantSan", Interpreter, False, args=[SCALE])
    compiled = _run(program, "GiantSan", CompiledEngine, False, args=[SCALE])
    assert _observables(tree) == _observables(compiled)


# ----------------------------------------------------------------------
# Directed fast-path decline shapes (mirrors the decline-path suite)
# ----------------------------------------------------------------------
def _decline_programs():
    programs = {}

    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 0) as i:
            f.store("buf", i * 8, 8, i)
        f.free("buf")
        f.ret(0)
    programs["zero_trip"] = builder.build()

    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 3) as i:
            f.store("buf", i * 8, 8, i)
        f.free("buf")
        f.ret(0)
    programs["below_min_trip"] = builder.build()

    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 9, reverse=True) as i:
            f.store("buf", i * 8, 8, i)
        f.free("buf")
        f.ret(0)
    programs["reverse_overflow"] = builder.build()

    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 61)
        with f.loop("i", 0, 62) as i:
            f.store("buf", i, 1, 7)
        f.free("buf")
        f.ret(0)
    programs["one_past_partial_tail"] = builder.build()

    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 256)
        with f.loop("i", 0, 32, bounded=False) as i:
            f.store("buf", i * 8, 8, i)
        f.free("buf")
        f.ret(0)
    programs["unbounded_cached"] = builder.build()

    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 1024)
        with f.loop("i", 0, 10) as i:
            f.store("buf", i * i * 8, 8, i)
        f.free("buf")
        f.ret(0)
    programs["non_affine"] = builder.build()

    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 8) as i:
            with f.if_(i % 2):
                f.store("buf", i * 4, 4, i)
        f.free("buf")
        f.ret(0)
    programs["branch_in_body"] = builder.build()

    return programs


@pytest.mark.parametrize(
    "name", sorted(_decline_programs()), ids=lambda n: n
)
def test_compiled_matches_tree_on_decline_shape(name):
    program = _decline_programs()[name]
    _assert_engines_match(program, tools=TOOLS + ["HWASan"])


# ----------------------------------------------------------------------
# Fuzzer corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index", range(FUZZ_CASES))
def test_compiled_matches_tree_on_fuzz_case(index):
    """Randomized allocation/loop/bug soup, byte-identical observables."""
    case = generate_case(case_seed_for(FUZZ_SEED, index))
    program = build_case(case)
    for tool in ("GiantSan", "ASan", "LFP", "HWASan"):
        for fastpath in (True, False):
            tree = _run(
                program,
                tool,
                Interpreter,
                fastpath,
                max_instructions=CASE_MAX_INSTRUCTIONS,
            )
            compiled = _run(
                program,
                tool,
                CompiledEngine,
                fastpath,
                max_instructions=CASE_MAX_INSTRUCTIONS,
            )
            assert _observables(tree) == _observables(compiled), (
                index,
                tool,
                fastpath,
            )


# ----------------------------------------------------------------------
# Telemetry and elision-audit equivalence
# ----------------------------------------------------------------------
def _telemetry_view(run):
    """Telemetry surface minus wall-clock phase timings (the one field
    that legitimately differs between engines)."""
    snapshot = run.result.telemetry
    assert snapshot is not None
    return {
        "counters": dict(snapshot.counters),
        "convergence": dict(snapshot.convergence_per_site),
        "declines": dict(snapshot.superblock_declines),
        "quarantine_peak": snapshot.quarantine_peak_bytes,
        "phase_names": sorted(snapshot.phases),
    }


@pytest.mark.parametrize(
    "spec", SPEC_TABLE2_ROWS[:6], ids=lambda s: s.name
)
def test_telemetry_counters_match(spec):
    program = spec.build()
    tree = _run(
        program, "GiantSan", Interpreter, True, args=[SCALE], telemetry=True
    )
    compiled = _run(
        program, "GiantSan", CompiledEngine, True, args=[SCALE], telemetry=True
    )
    assert _observables(tree) == _observables(compiled)
    assert _telemetry_view(tree) == _telemetry_view(compiled)


def test_telemetry_counters_match_on_planted_bug():
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 61)
        with f.loop("i", 0, 62) as i:
            f.store("buf", i, 1, 7)
        f.free("buf")
        f.ret(0)
    program = builder.build()
    tree = _run(program, "GiantSan", Interpreter, True, telemetry=True)
    compiled = _run(program, "GiantSan", CompiledEngine, True, telemetry=True)
    assert tree.result.errors and compiled.result.errors
    assert _telemetry_view(tree) == _telemetry_view(compiled)


@pytest.mark.parametrize(
    "spec", SPEC_TABLE2_ROWS[:6], ids=lambda s: s.name
)
def test_elision_audit_matches(spec):
    """audit_elisions replays statically elided checks against the
    shadow oracle; the compiled engine must reach identical verdicts."""
    program = spec.build()
    tree = _run(
        program,
        "GiantSan",
        Interpreter,
        False,
        args=[SCALE],
        audit_elisions=True,
    )
    compiled = _run(
        program,
        "GiantSan",
        CompiledEngine,
        False,
        args=[SCALE],
        audit_elisions=True,
    )
    assert _observables(tree) == _observables(compiled)


def test_fuzz_corpus_elision_audit_matches():
    for index in range(6):
        case = generate_case(case_seed_for(FUZZ_SEED, index))
        program = build_case(case)
        tree = _run(
            program,
            "GiantSan",
            Interpreter,
            False,
            max_instructions=CASE_MAX_INSTRUCTIONS,
            audit_elisions=True,
        )
        compiled = _run(
            program,
            "GiantSan",
            CompiledEngine,
            False,
            max_instructions=CASE_MAX_INSTRUCTIONS,
            audit_elisions=True,
        )
        assert _observables(tree) == _observables(compiled), index


# ----------------------------------------------------------------------
# Configuration matrix: tree with the fast path on is the reference
# cell; every other (engine x fastpath) combination must reproduce it.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec", SPEC_TABLE2_ROWS[:6], ids=lambda s: s.name
)
@pytest.mark.parametrize("tool", ["GiantSan", "ASan"])
def test_engine_fastpath_matrix_matches_reference(spec, tool):
    program = spec.build()
    reference = _observables(
        _run(program, tool, Interpreter, True, args=[SCALE])
    )
    for engine in (Interpreter, CompiledEngine):
        for fastpath in (True, False):
            if (engine, fastpath) == (Interpreter, True):
                continue
            got = _observables(
                _run(program, tool, engine, fastpath, args=[SCALE])
            )
            assert got == reference, (engine, fastpath)


# ----------------------------------------------------------------------
# Tier-up: a cold memoized session run tree-walks until it passes
# COMPILE_AFTER_INSTRUCTIONS, then runs closures from the next call on;
# a memo-off run tree-walks throughout.
# ----------------------------------------------------------------------
def _session_run(program, tool, memoize, args=None, **kwargs):
    config = ExecConfig.from_env(memoize=memoize)
    session = Session(tool, config, **kwargs)
    result = session.run(program, args)
    return Run(result, memory_digest(session.sanitizer))


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
    assert _observables(tiered) == _observables(reference), tool
    if kwargs.get("telemetry"):
        assert _telemetry_view(tiered) == _telemetry_view(reference), tool
    return engine_log["tree"]


@pytest.mark.parametrize("spec", SPEC_TABLE2_ROWS, ids=lambda s: s.name)
@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
def test_cold_tier_up_matches_tree_on_spec(engine_log, spec, telemetry):
    """Each proxy at its Table 2 scale, where every tool's run calls a
    kernel after it has passed the tier-up point."""
    program = spec.build()
    for tool in TOOLS:
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
    session = Session("HWASan", ExecConfig.from_env(memoize=True))
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
    with builder.function("main") as f:
        f.malloc("buf", 64)
        total = f.assign("total", 0)
        with f.loop("i", 0, COMPILE_AFTER_INSTRUCTIONS) as i:
            f.assign("total", total + i)
        a = f.call("declined", [Const(2)], dst="a")
        b = f.call("lowered", [Var("buf")], dst="b")
        f.free("buf")
        f.ret(total + a + b)
    return builder.build()


def test_tier_up_with_an_uncompilable_next_callee(engine_log):
    walked = _assert_tier_up_matches(
        engine_log, _late_calls_program(), "GiantSan"
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
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, COMPILE_AFTER_INSTRUCTIONS) as i:
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
            _session_run(program, "GiantSan", memoize, max_instructions=limit)
        messages.append(str(excinfo.value))
    tree, tiered = engines
    assert type(tree) is Interpreter and tiered._table is not None
    assert messages[0] == messages[1]
    for engine in engines:
        assert engine.instructions == limit + 1
    assert tiered.native_cycles == tree.native_cycles
    assert tiered.protection_counts == tree.protection_counts
    assert tiered.san.stats.as_dict() == tree.san.stats.as_dict()
