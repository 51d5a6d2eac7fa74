"""Session: the one-call API tying instrumentation and execution together.

A session owns a fresh sanitizer, instruments a program for it, runs the
program, and returns the :class:`RunResult`.  The benchmark harness and
the examples both drive everything through this module.

How a session executes is one frozen :class:`ExecConfig`; only the
``repro`` CLI calls :meth:`ExecConfig.from_env`, the one reader of the
``REPRO_*`` switches, and everything else receives the value.  Which
engine runs is not a switch: with ``memoize`` on, :meth:`Session.run`
runs the :class:`CompiledEngine`, which tree-walks a run until a call
boundary reaches
:data:`~repro.runtime.compiler.COMPILE_AFTER_INSTRUCTIONS` and compiles
the program there: a call's entry when the instructions executed plus
the callee's :func:`~repro.runtime.compiler.work_estimate` reach it, a
return when the instructions executed do; with it off, the reference
:class:`Interpreter` tree-walks every run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..ir.program import Program
from ..passes.instrument import (
    FoldedProgram,
    InstrumentedProgram,
    instrument,
    instrument_cached,
)
from ..sanitizers import SANITIZER_FACTORIES
from ..sanitizers.base import Sanitizer
from ..telemetry import Telemetry
from .compiler import CompiledEngine
from .cost_model import CostModel, DEFAULT_COST_MODEL
from .interpreter import Interpreter, RunResult

_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


def _switch(default, env: str):
    """A field that :meth:`ExecConfig.from_env` reads from ``env``."""
    return field(default=default, metadata={"env": env})


@dataclass(frozen=True)
class ExecConfig:
    """The execution cell a session runs in.

    The superblock ``fastpath`` and the instrumentation ``memoize``
    cache never change a result.
    """

    fastpath: bool = _switch(True, "REPRO_FASTPATH")
    memoize: bool = _switch(True, "REPRO_INSTRUMENT_CACHE")

    @classmethod
    def from_env(cls) -> "ExecConfig":
        """The config named by the ``REPRO_*`` switches; unset (or
        empty) ones keep their defaults.  Only the ``repro`` CLI calls
        this: library entry points take the value as an argument.

        Each accepts ``1/true/on/yes`` and ``0/false/off/no`` in any
        case; anything else raises ``ValueError`` naming the variable.
        """
        values = {}
        for switch in fields(cls):
            var = switch.metadata["env"]
            raw = os.environ.get(var, "")
            value = raw.strip().lower()
            if value and value not in _TRUE + _FALSE:
                raise ValueError(
                    f"invalid {var}={raw!r}: expected one of "
                    f"{', '.join(_TRUE + _FALSE)}"
                )
            if value:
                values[switch.name] = value in _TRUE
        return cls(**values)


class Session:
    """One tool + one program, ready to execute.

    ``config`` is the :class:`ExecConfig` to run under.  ``audit_elisions``
    keeps statically elided checks as :class:`~repro.ir.nodes.CheckElided`
    markers that the interpreter replays against the shadow oracle,
    surfacing unsound elisions in ``RunResult.elision_audit_failures``.

    ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry`
    registry (pass an existing registry to share counters across
    sessions of the *same* sanitizer).  When on, each run's
    ``RunResult.telemetry`` carries a counter snapshot; when off,
    nothing is attached and the run is byte-identical to a
    pre-telemetry session.
    """

    def __init__(
        self,
        tool: str | Sanitizer,
        config: ExecConfig = ExecConfig(),
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_instructions: int = 50_000_000,
        audit_elisions: bool = False,
        telemetry: bool | Telemetry = False,
        **sanitizer_kwargs,
    ):
        if isinstance(tool, Sanitizer):
            if sanitizer_kwargs:
                raise ValueError(
                    "pass sanitizer kwargs only with a tool *name*"
                )
            self.sanitizer = tool
        else:
            try:
                factory = SANITIZER_FACTORIES[tool]
            except KeyError:
                known = ", ".join(sorted(SANITIZER_FACTORIES))
                raise ValueError(
                    f"unknown tool {tool!r}; known tools: {known}"
                ) from None
            self.sanitizer = factory(**sanitizer_kwargs)
        self.config = config
        self.cost_model = cost_model
        self.max_instructions = max_instructions
        self.audit_elisions = audit_elisions
        self.telemetry = None
        if telemetry:
            self.telemetry = (
                telemetry
                if isinstance(telemetry, Telemetry)
                else Telemetry()
            )
            self.telemetry.attach(self.sanitizer)

    def instrument(
        self, program: Program | FoldedProgram
    ) -> InstrumentedProgram:
        run = instrument_cached if self.config.memoize else instrument
        return run(
            program,
            tool=self.sanitizer,
            audit_elisions=self.audit_elisions,
        )

    def run(
        self,
        program: Program | FoldedProgram | InstrumentedProgram,
        args: Optional[List[int]] = None,
    ) -> RunResult:
        """Instrument and execute ``program`` under this session's tool:
        on the tiering :class:`CompiledEngine` when ``memoize`` is on,
        on the tree-walking :class:`Interpreter` when it is off.

        A :class:`~repro.passes.instrument.FoldedProgram` handle keeps
        its fingerprint and fold across sessions, so callers running one
        source under many tools fingerprint and fold it at most once; a
        plain :class:`Program` gets a handle of its own.  An
        :class:`InstrumentedProgram` runs as given: it must have been
        instrumented for this session's tool and ``audit_elisions``
        setting.
        """
        iprogram = (
            program
            if isinstance(program, InstrumentedProgram)
            else self.instrument(program)
        )
        engine = CompiledEngine if self.config.memoize else Interpreter
        return engine(
            self.sanitizer,
            native_costs=self.cost_model.native,
            max_instructions=self.max_instructions,
            fastpath=self.config.fastpath,
        ).run(iprogram, args)


def run_with_tools(
    program: Program | FoldedProgram,
    tools: List[str],
    args: Optional[List[int]] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    sanitizer_kwargs: Optional[Dict[str, dict]] = None,
    config: ExecConfig = ExecConfig(),
) -> Dict[str, RunResult]:
    """Run one program under several tools with fresh state each, from
    one :class:`~repro.passes.instrument.FoldedProgram` handle.

    ``sanitizer_kwargs`` optionally maps tool name -> constructor kwargs
    (e.g. ``{"ASan": {"redzone": 512}}``).
    """
    if not isinstance(program, FoldedProgram):
        program = FoldedProgram(program)
    results: Dict[str, RunResult] = {}
    for tool in tools:
        kwargs = (sanitizer_kwargs or {}).get(tool, {})
        session = Session(tool, config, cost_model=cost_model, **kwargs)
        results[tool] = session.run(program, args)
    return results
