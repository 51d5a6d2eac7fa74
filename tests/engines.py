"""Run a program on a chosen engine class, bypassing Session's rule.

:meth:`repro.runtime.Session.run` picks the engine from the config;
tests that compare the two engines pick one explicitly instead:
instrument with ``Session.instrument``, then run
:class:`~repro.runtime.Interpreter` or
:class:`~repro.runtime.CompiledEngine` on the result.  The compiled
engine gets its closure table up front, so it runs closures from the
entry call instead of tree-walking until it tiers up.
"""

from hashlib import blake2b

from repro.runtime import CompiledEngine, ExecConfig, Session, compiler


def memory_digest(sanitizer):
    """A digest of every byte of ``sanitizer``'s simulated address
    space: what a run stored, which its return value may not show."""
    return blake2b(sanitizer.space._mem).hexdigest()


def engine_on(engine, program, tool, config=None, **session_kwargs):
    """The engine of class ``engine`` that :func:`run_on` runs, and the
    instrumented program, unrun: a test that expects the run to raise
    reads the engine's state afterwards."""
    if config is None:
        config = ExecConfig.from_env(memoize=False)
    session = Session(tool, config, **session_kwargs)
    iprogram = session.instrument(program)
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


def run_on(engine, program, tool, config=None, args=None, **session_kwargs):
    """Run ``program`` under ``tool`` on the engine class ``engine``.

    ``config`` defaults to ``ExecConfig.from_env(memoize=False)``:
    every run instruments afresh.
    """
    runner, iprogram = engine_on(engine, program, tool, config, **session_kwargs)
    return runner.run(iprogram, args)
