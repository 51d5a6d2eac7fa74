"""Differential regression: superblock fast path vs reference walker.

Every SPEC proxy runs under every sanitizer twice — fast path ON and
OFF — and every observable must match exactly: CheckStats, simulated
cycle totals, instruction counts, Figure 10 protection categories,
return values, error logs, and the bytes of the address space after
the run.  The fast path is an acceleration, not a
semantic change; this suite is the proof.
"""

import pytest

from engines import memory_digest
from repro.runtime import ExecConfig, Session
from repro.runtime.fastpath import analyze_loop
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Loop
from repro.workloads.spec import SPEC_TABLE2_ROWS

#: Reduced iteration scale keeps the 24 x 5 x 2 matrix quick.
SCALE = 2

TOOLS = ["Native", "GiantSan", "ASan", "ASan--", "LFP"]


def _config(fastpath):
    return ExecConfig.from_env(fastpath=fastpath, memoize=False)


def _observables(result, sanitizer):
    """The run's observables; the proxies return None, so ``memory``
    is what shows that superblock stores wrote the walker's bytes."""
    return {
        "native_cycles": result.native_cycles,
        "instructions": result.instructions_executed,
        "return_value": result.return_value,
        "stats": result.stats.as_dict(),
        "protection": dict(result.protection_counts),
        "errors": [(e.kind, e.address) for e in result.errors],
        "memory": memory_digest(sanitizer),
    }


def _run(spec, tool, fastpath):
    session = Session(tool, _config(fastpath))
    result = session.run(spec.build(), [SCALE])
    return _observables(result, session.sanitizer)


@pytest.mark.parametrize("spec", SPEC_TABLE2_ROWS, ids=lambda s: s.name)
@pytest.mark.parametrize("tool", TOOLS)
def test_fastpath_matches_reference(spec, tool):
    on = _run(spec, tool, fastpath=True)
    off = _run(spec, tool, fastpath=False)
    assert on == off


def test_fastpath_actually_fires():
    """At least one proxy loop compiles to a superblock plan.

    Guards against the differential suite passing vacuously because
    eligibility silently regressed to 'nothing qualifies'.
    """
    planned = 0
    for spec in SPEC_TABLE2_ROWS:
        program = spec.build()
        for function in program.functions.values():
            stack = list(function.body)
            while stack:
                instr = stack.pop()
                if isinstance(instr, Loop):
                    if analyze_loop(instr) is not None:
                        planned += 1
                    stack.extend(instr.body)
    assert planned > 0


def test_fastpath_falls_back_on_data_dependent_loop():
    """A loop with branching control flow must take the reference path."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 8) as i:
            with f.if_(i % 2):
                f.store("buf", i * 4, 4, i)
        f.free("buf")
    program = builder.build()
    on = Session("GiantSan", _config(True)).run(program)
    off = Session("GiantSan", _config(False)).run(program)
    assert on.native_cycles == off.native_cycles
    assert on.stats.as_dict() == off.stats.as_dict()


def test_fastpath_preserves_memory_effects():
    """Superblock stores land in the same bytes the walker writes."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 256)
        with f.loop("i", 0, 32) as i:
            f.store("buf", i * 8, 8, i * 1000 + 7)
        total = f.assign("total", 0)
        with f.loop("j", 0, 32) as j:
            loaded = f.load("x", "buf", j * 8, 8)
            f.assign("total", total + loaded)
        f.free("buf")
        f.ret(total)
    program = builder.build()
    expected = sum(i * 1000 + 7 for i in range(32))
    for tool in TOOLS:
        on = Session(tool, _config(True)).run(program)
        off = Session(tool, _config(False)).run(program)
        assert on.return_value == expected
        assert off.return_value == expected
        assert on.stats.as_dict() == off.stats.as_dict()
