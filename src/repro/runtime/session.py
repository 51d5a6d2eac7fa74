"""Session: the one-call API tying instrumentation and execution together.

A session owns a fresh sanitizer, instruments a program for it, runs the
program, and returns the :class:`RunResult`.  The benchmark harness and
the examples both drive everything through this module.

How a session executes is one frozen :class:`ExecConfig`;
:meth:`ExecConfig.from_env` is the only reader of the ``REPRO_*``
execution switches, and everything else receives the value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..ir.program import Program
from ..passes.instrument import (
    InstrumentedProgram,
    instrument,
    instrument_cached,
)
from ..sanitizers import SANITIZER_FACTORIES
from ..sanitizers.base import Sanitizer
from ..telemetry import Telemetry
from .compiler import ENGINES, resolve_engine
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

    ``engine`` (``"tree"`` or ``"compiled"``), the superblock
    ``fastpath``, ``interprocedural`` check elision and the
    instrumentation ``memoize`` cache never change a result;
    ``invariants`` attaches a raising
    :class:`~repro.fuzz.invariants.ShadowInvariantChecker`.
    """

    engine: str = _switch("tree", "REPRO_ENGINE")
    fastpath: bool = _switch(True, "REPRO_FASTPATH")
    interprocedural: bool = _switch(True, "REPRO_INTERPROC")
    memoize: bool = _switch(True, "REPRO_INSTRUMENT_CACHE")
    invariants: bool = _switch(False, "REPRO_INVARIANTS")

    @classmethod
    def from_env(cls, **pinned) -> "ExecConfig":
        """The config named by the ``REPRO_*`` switches; unset (or
        empty) ones keep their defaults, and ``pinned`` fields override
        them (``--engine``, or a test's or bench cell's own switches).

        Booleans accept ``1/true/on/yes`` and ``0/false/off/no`` in any
        case; anything else raises ``ValueError`` naming the variable.
        """
        values = {}
        for switch in fields(cls):
            var = switch.metadata["env"]
            raw = os.environ.get(var, "")
            value = raw.strip().lower()
            boolean = isinstance(switch.default, bool)
            accepted = _TRUE + _FALSE if boolean else sorted(ENGINES)
            if value and value not in accepted:
                raise ValueError(
                    f"invalid {var}={raw!r}: expected one of "
                    f"{', '.join(accepted)}"
                )
            if value:
                values[switch.name] = value in _TRUE if boolean else value
        return cls(**{**values, **pinned})


class Session:
    """One tool + one program, ready to execute.

    ``config`` is the :class:`ExecConfig` to run under (None =
    :meth:`ExecConfig.from_env`).  ``audit_elisions`` keeps statically
    elided checks as :class:`~repro.ir.nodes.CheckElided` markers that
    the interpreter replays against the shadow oracle, surfacing
    unsound elisions in ``RunResult.elision_audit_failures``.

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
        config: Optional[ExecConfig] = None,
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
        self.config = ExecConfig.from_env() if config is None else config
        self.cost_model = cost_model
        self.max_instructions = max_instructions
        self.engine = resolve_engine(self.config.engine)
        self.audit_elisions = audit_elisions
        self.telemetry = None
        if telemetry:
            self.telemetry = (
                telemetry
                if isinstance(telemetry, Telemetry)
                else Telemetry()
            )
            self.telemetry.attach(self.sanitizer)
        self.invariant_checker = None
        if self.config.invariants:
            # local import: repro.fuzz itself drives Sessions
            from ..fuzz.invariants import ShadowInvariantChecker

            self.invariant_checker = ShadowInvariantChecker.attach(
                self.sanitizer, raise_on_violation=True
            )

    def instrument(self, program: Program) -> InstrumentedProgram:
        run = instrument_cached if self.config.memoize else instrument
        return run(
            program,
            tool=self.sanitizer,
            audit_elisions=self.audit_elisions,
            interprocedural=self.config.interprocedural,
        )

    def run(
        self, program: Program, args: Optional[List[int]] = None
    ) -> RunResult:
        """Instrument and execute ``program`` under this session's tool."""
        iprogram = self.instrument(program)
        interpreter = self.engine(
            self.sanitizer,
            max_instructions=self.max_instructions,
            fastpath=self.config.fastpath,
            telemetry=self.telemetry,
        )
        return interpreter.run(iprogram, args)


def run_with_tools(
    program: Program,
    tools: List[str],
    args: Optional[List[int]] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    sanitizer_kwargs: Optional[Dict[str, dict]] = None,
) -> Dict[str, RunResult]:
    """Run one program under several tools with fresh state each.

    ``sanitizer_kwargs`` optionally maps tool name -> constructor kwargs
    (e.g. ``{"ASan": {"redzone": 512}}``).
    """
    results: Dict[str, RunResult] = {}
    for tool in tools:
        kwargs = (sanitizer_kwargs or {}).get(tool, {})
        session = Session(tool, cost_model=cost_model, **kwargs)
        results[tool] = session.run(program, args)
    return results
