"""The run-job service: one IR program, one (tool × engine × fastpath)
cell, executed through a Session built from the validated request over
the server's :class:`~repro.runtime.session.ExecConfig` defaults.

The result payload carries the full observable surface of the run:
return value, cycle/instruction counts, CheckStats, the structured
error list, the rendered ASan-style error reports (byte-identical to a
direct :class:`~repro.runtime.session.Session` run of the same
program), and the telemetry snapshot when the request asked for one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict

from ...reporting import format_all_reports
from ...runtime.session import ExecConfig, Session
from ..jobs import JobContext
from ..models import RunJobRequest
from ..programs import build_job_program
from .common import TelemetryAggregate


def build_session(
    config, defaults: ExecConfig, max_instructions: int
) -> Session:
    """A Session for an :class:`ExecutionConfig` over ``defaults``."""
    overrides = config.model_dump(
        include={"engine", "fastpath", "interprocedural"}, exclude_none=True
    )
    return Session(
        config.tool,
        replace(defaults, **overrides),
        max_instructions=max_instructions,
        telemetry=config.telemetry,
    )


def run_result_payload(session: Session, result) -> Dict[str, Any]:
    """The JSON-ready observable surface of one run."""
    return {
        "tool": result.tool,
        "return_value": result.return_value,
        "native_cycles": result.native_cycles,
        "total_cycles": result.total_cycles(),
        "instructions_executed": result.instructions_executed,
        "stats": result.stats.as_dict(),
        "protection_counts": {
            str(kind.value if hasattr(kind, "value") else kind): count
            for kind, count in result.protection_counts.items()
        },
        "errors": [
            {
                "kind": report.kind.value,
                "address": report.address,
                "size": report.size,
                "access": report.access.value,
                "detail": report.detail,
            }
            for report in result.errors.reports
        ],
        "reports": format_all_reports(session.sanitizer),
        "telemetry": (
            result.telemetry.as_dict() if result.telemetry is not None else None
        ),
    }


def execute_run_job(
    context: JobContext,
    request: RunJobRequest,
    defaults: ExecConfig,
    aggregate: TelemetryAggregate,
) -> Dict[str, Any]:
    program, args = build_job_program(request.program)
    context.check_cancelled()
    context.progress("instrumenting and executing", tool=request.config.tool)
    session = build_session(
        request.config, defaults, request.max_instructions
    )
    result = session.run(program, args)
    if result.telemetry is not None:
        aggregate.merge(result.telemetry)
    payload = run_result_payload(session, result)
    context.progress(
        "run complete",
        errors=len(payload["errors"]),
        instructions=payload["instructions_executed"],
    )
    return payload
