"""Run a program on a chosen engine class, bypassing Session's rule.

:meth:`repro.runtime.Session.run` picks the engine from the config;
tests that compare the two engines pick one explicitly instead:
instrument with ``Session.instrument``, then run
:class:`~repro.runtime.Interpreter` or
:class:`~repro.runtime.CompiledEngine` on the result.  The compiled
engine gets its closure table up front, so it runs closures from the
entry call instead of tree-walking until it tiers up.
"""

from repro.runtime import CompiledEngine, ExecConfig, Session, compiler


def run_on(engine, program, tool, config=None, args=None, **session_kwargs):
    """Run ``program`` under ``tool`` on the engine class ``engine``.

    ``config`` defaults to ``ExecConfig.from_env(memoize=False)``:
    every run instruments afresh.
    """
    if config is None:
        config = ExecConfig.from_env(memoize=False)
    session = Session(tool, config, **session_kwargs)
    iprogram = session.instrument(program)
    runner = engine(
        session.sanitizer,
        max_instructions=session.max_instructions,
        fastpath=config.fastpath,
        telemetry=session.telemetry,
    )
    if issubclass(engine, CompiledEngine):
        compiler.compile_program(
            iprogram.program,
            runner.costs,
            runner._needs_resolve,
            runner.telemetry is not None,
        )
    return runner.run(iprogram, args)
