"""Session: the one-call API tying instrumentation and execution together.

A session owns a fresh sanitizer, instruments a program for it, runs the
program, and returns the :class:`RunResult`.  The benchmark harness and
the examples both drive everything through this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import os

from ..ir.program import Program
from ..passes.instrument import (
    InstrumentedProgram,
    instrument,
    instrument_cached,
)
from ..sanitizers import SANITIZER_FACTORIES
from ..sanitizers.base import Sanitizer
from ..telemetry import Telemetry, telemetry_enabled_default
from .compiler import resolve_engine
from .cost_model import CostModel, DEFAULT_COST_MODEL
from .interpreter import Interpreter, RunResult


def _memoize_default() -> bool:
    return os.environ.get("REPRO_INSTRUMENT_CACHE", "1").lower() not in (
        "0",
        "false",
        "off",
    )


def _invariants_default() -> bool:
    return os.environ.get("REPRO_INVARIANTS", "0").lower() in (
        "1",
        "true",
        "on",
    )


class Session:
    """One tool + one program, ready to execute.

    ``fastpath`` toggles the superblock fast path (None = the
    ``REPRO_FASTPATH`` process default); ``memoize`` reuses memoized
    instrumentation across sessions (None = the ``REPRO_INSTRUMENT_CACHE``
    process default).  Both are result-invariant accelerations.
    ``invariants`` attaches a raising
    :class:`~repro.fuzz.invariants.ShadowInvariantChecker` to the
    sanitizer so every allocator/frame event re-verifies shadow and
    accounting invariants (None = the ``REPRO_INVARIANTS`` process
    default, normally off).  ``audit_elisions`` keeps statically elided
    checks as :class:`~repro.ir.nodes.CheckElided` markers that the
    interpreter replays against the shadow oracle, surfacing unsound
    elisions in ``RunResult.elision_audit_failures``.
    ``interprocedural`` turns the summary-based analysis layer on or
    off for the static pipeline (None = the ``REPRO_INTERPROC`` process
    default, normally on): call sites consume function summaries
    instead of clobbering every dataflow fact, enabling cross-call
    check elision.

    ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry`
    registry (None = the ``REPRO_TELEMETRY`` process default, normally
    off; pass an existing registry to share counters across sessions of
    the *same* sanitizer).  When on, each run's ``RunResult.telemetry``
    carries a counter snapshot; when off, nothing is attached and the
    run is byte-identical to a pre-telemetry session.

    ``engine`` selects the execution engine: ``"tree"`` (the reference
    tree-walking interpreter) or ``"compiled"`` (the compile-to-closures
    engine in :mod:`repro.runtime.compiler`, observation-equivalent and
    differentially tested).  None resolves the ``REPRO_ENGINE`` process
    default, which is ``tree``.
    """

    def __init__(
        self,
        tool: str | Sanitizer,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_instructions: int = 50_000_000,
        fastpath: bool | None = None,
        memoize: bool | None = None,
        invariants: bool | None = None,
        audit_elisions: bool = False,
        telemetry: bool | Telemetry | None = None,
        engine: str | None = None,
        interprocedural: bool | None = None,
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
        self.cost_model = cost_model
        self.max_instructions = max_instructions
        self.fastpath = fastpath
        self.engine = resolve_engine(engine)
        self.memoize = _memoize_default() if memoize is None else memoize
        self.audit_elisions = audit_elisions
        self.interprocedural = interprocedural
        if telemetry is None:
            telemetry = telemetry_enabled_default()
        self.telemetry = None
        if telemetry:
            self.telemetry = (
                telemetry
                if isinstance(telemetry, Telemetry)
                else Telemetry()
            )
            self.telemetry.attach(self.sanitizer)
        if invariants is None:
            invariants = _invariants_default()
        self.invariant_checker = None
        if invariants:
            # local import: repro.fuzz itself drives Sessions
            from ..fuzz.invariants import ShadowInvariantChecker

            self.invariant_checker = ShadowInvariantChecker.attach(
                self.sanitizer, raise_on_violation=True
            )

    def instrument(self, program: Program) -> InstrumentedProgram:
        if self.memoize:
            return instrument_cached(
                program,
                tool=self.sanitizer,
                audit_elisions=self.audit_elisions,
                interprocedural=self.interprocedural,
            )
        return instrument(
            program,
            tool=self.sanitizer,
            audit_elisions=self.audit_elisions,
            interprocedural=self.interprocedural,
        )

    def run(
        self, program: Program, args: Optional[List[int]] = None
    ) -> RunResult:
        """Instrument and execute ``program`` under this session's tool."""
        iprogram = self.instrument(program)
        interpreter = self.engine(
            self.sanitizer,
            max_instructions=self.max_instructions,
            fastpath=self.fastpath,
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
