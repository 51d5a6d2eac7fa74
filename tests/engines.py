"""Run a program on a chosen engine class, bypassing Session's rule.

:meth:`repro.runtime.Session.run` picks the engine per run; tests that
compare the two engines pick one explicitly instead: instrument with
``Session.instrument``, then run :class:`~repro.runtime.Interpreter` or
:class:`~repro.runtime.CompiledEngine` on the result.
"""

from repro.runtime import ExecConfig, Session


def run_on(engine, program, tool, config=None, args=None, **session_kwargs):
    """Run ``program`` under ``tool`` on the engine class ``engine``.

    ``config`` defaults to ``ExecConfig.from_env(memoize=False)``:
    every run instruments afresh.
    """
    if config is None:
        config = ExecConfig.from_env(memoize=False)
    session = Session(tool, config, **session_kwargs)
    return engine(
        session.sanitizer,
        max_instructions=session.max_instructions,
        fastpath=config.fastpath,
        telemetry=session.telemetry,
    ).run(session.instrument(program), args)
