"""Run a program on a chosen engine class, and what a run shows.

:meth:`repro.runtime.Session.run` picks the engine from the config;
tests that compare the two engines pick one explicitly instead:
instrument with ``Session.instrument``, then run
:class:`~repro.runtime.Interpreter` or
:class:`~repro.runtime.CompiledEngine` on the result.  The compiled
engine gets its closure table up front, so it runs closures from the
entry call instead of tree-walking until it tiers up.

:func:`observables` is the one surface every differential test
compares; a test about one part of a run adds or drops keys.
"""

import sys
from hashlib import sha256

from repro.passes.instrument import InstrumentedProgram
from repro.runtime import CompiledEngine, ExecConfig, Session, compiler


class MemoryImage(bytes):
    """Every byte of a simulated address space: what a run stored,
    which its return value may not show.  Compares as bytes (copying
    and comparing cost a fifth of hashing the 5 MiB); prints as a
    digest."""

    def __repr__(self):
        return f"<memory sha256:{sha256(self).hexdigest()[:16]}>"


#: Linux's MADV_POPULATE_READ (5.14+) maps every page of a range in one
#: call; faulting in the untouched pages of a 5 MiB space one by one
#: takes three times as long as the copy.
_POPULATE_READ = 22 if sys.platform.startswith("linux") else None


def memory_image(sanitizer):
    """The bytes of ``sanitizer``'s address space after a run."""
    memory = sanitizer.space._mem
    if _POPULATE_READ is not None:
        try:
            memory.madvise(_POPULATE_READ)
        except OSError:  # an older kernel
            pass
    return MemoryImage(memory)


def telemetry_views(snapshot):
    """A telemetry snapshot minus its wall-clock phase timings, as
    ``(telemetry, superblock)``: the second is what it says about the
    superblock fast path's own work (its counters, decline reasons and
    timed phase names), on which only runs with the same ``fastpath``
    agree."""
    own = {
        name: count
        for name, count in snapshot.counters.items()
        if name.startswith("superblock_")
    }
    return {
        "counters": {
            name: count
            for name, count in snapshot.counters.items()
            if name not in own
        },
        "convergence": dict(snapshot.convergence_per_site),
        "quarantine_peak": snapshot.quarantine_peak_bytes,
    }, {
        "counters": own,
        "declines": dict(snapshot.superblock_declines),
        "phase_names": sorted(snapshot.phases),
    }


def observables(result, sanitizer=None):
    """Everything a run can tell its caller, timings excluded.

    Errors compare field by field: shadow values, access sizes and
    allocation ids too.  The proxies return None, so the image of
    ``sanitizer``'s address space is what compares the bytes a run
    stored; it is left out when no sanitizer is given.  The two
    telemetry views are there when the run had telemetry on.
    """
    observed = {
        "native_cycles": result.native_cycles,
        "instructions": result.instructions_executed,
        "return_value": result.return_value,
        "stats": result.stats.as_dict(),
        "protection": dict(result.protection_counts),
        "errors": [
            (e.kind, e.address, e.size, e.access, e.shadow_value,
             e.allocation_id, e.detail)
            for e in result.errors
        ],
        "audit_failures": list(result.elision_audit_failures),
    }
    if sanitizer is not None:
        observed["memory"] = memory_image(sanitizer)
    if result.telemetry is not None:
        observed["telemetry"], observed["superblock"] = telemetry_views(
            result.telemetry
        )
    return observed


#: :func:`run_on`'s cell: every run instruments afresh.
UNMEMOIZED = ExecConfig(memoize=False)


def engine_on(engine, program, tool, config=UNMEMOIZED, **session_kwargs):
    """The engine of class ``engine`` that :func:`run_on` runs, and the
    instrumented program, unrun: a test that expects the run to raise
    reads the engine's state afterwards.  An already instrumented
    ``program`` runs as given."""
    session = Session(tool, config, **session_kwargs)
    iprogram = (
        program
        if isinstance(program, InstrumentedProgram)
        else session.instrument(program)
    )
    runner = engine(
        session.sanitizer,
        native_costs=session.cost_model.native,
        max_instructions=session.max_instructions,
        fastpath=config.fastpath,
        telemetry=session.telemetry,
    )
    if issubclass(engine, CompiledEngine):
        compiler.compile_program(iprogram.program, *runner.table_key())
    return runner, iprogram


def run_on(engine, program, tool, config=UNMEMOIZED, args=None,
           **session_kwargs):
    """Run ``program`` under ``tool`` on the engine class ``engine``
    (by default in the :data:`UNMEMOIZED` cell)."""
    runner, iprogram = engine_on(engine, program, tool, config, **session_kwargs)
    return runner.run(iprogram, args)
