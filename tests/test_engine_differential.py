"""Differential regression: compiled closure engine vs reference walker.

The compile-to-closures engine (:mod:`repro.runtime.compiler`) is an
acceleration of the tree-walking interpreter, not a semantic change.
This suite is the proof: every Table 2 proxy, the directed fast-path
decline shapes, and a slice of the fuzzer corpus all run under both
engines — with the superblock fast path both on and off — and every
observable must match exactly: CheckStats, simulated cycle totals,
instruction counts, Figure 10 protection categories, return values,
full error reports, telemetry counters, and elision-audit replays.
"""

import pytest

from engines import run_on
from repro.fuzz import build_case, case_seed_for, generate_case
from repro.fuzz.driver import CASE_MAX_INSTRUCTIONS
from repro.ir.builder import ProgramBuilder
from repro.runtime import CompiledEngine, ExecConfig, Interpreter
from repro.workloads.spec import SPEC_TABLE2_ROWS

#: Reduced iteration scale keeps the proxy matrix quick.
SCALE = 2

TOOLS = ["Native", "GiantSan", "ASan", "ASan--", "LFP"]

#: Corpus slice: enough seeds to cover mallocs/frees/loops/planted bugs
#: without dominating tier-1 wall clock.
FUZZ_SEED = 20260806
FUZZ_CASES = 20


def _observables(result):
    """Everything a run can tell the caller, timings excluded.

    Error reports are compared field-by-field (not just kind/address):
    the compiled engine must reproduce shadow values, access sizes and
    allocation ids bit-for-bit.
    """
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
    }


def _run(program, tool, engine, fastpath, args=None, **kwargs):
    config = ExecConfig.from_env(fastpath=fastpath, memoize=False)
    return run_on(engine, program, tool, config, args, **kwargs)


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
def _telemetry_view(result):
    """Telemetry surface minus wall-clock phase timings (the one field
    that legitimately differs between engines)."""
    snapshot = result.telemetry
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
    assert tree.errors and compiled.errors
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
