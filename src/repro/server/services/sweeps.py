"""The sweep-job service: regenerate a paper table/figure as a job.

Table 2 — the acceptance workload — runs in program-sized chunks
through the shared fabric with a cancellation checkpoint between
chunks, so ``DELETE /jobs/{id}`` takes effect mid-sweep instead of
after the final row.  The other targets reuse their study runners
whole (they are seconds-scale).  Results include the rendered text
exactly as the CLI prints it, so a sweep job is byte-comparable to
``python -m repro <target>``.

Every runner receives the server's
:class:`~repro.runtime.session.ExecConfig` defaults, so sweeps never
read or write the process environment and run concurrently.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from ...runtime.session import ExecConfig
from ..jobs import JobContext
from ..models import SweepJobRequest


def _run_table2(
    context: JobContext, request: SweepJobRequest, config: ExecConfig
) -> Dict[str, Any]:
    from ...analysis import (
        PERFORMANCE_TOOLS,
        OverheadStudy,
        overhead_to_rows,
        render_table2,
        run_overhead_study,
    )
    from ...workloads.spec import SPEC_TABLE2_ROWS

    tools = list(PERFORMANCE_TOOLS)
    rows = []
    # chunk size: a couple of fills of the worker fleet between
    # cancellation checkpoints; jobs=1 checkpoints every other program
    chunk = max(request.jobs, 1) * 2
    programs = list(SPEC_TABLE2_ROWS)
    for start in range(0, len(programs), chunk):
        context.check_cancelled()
        rows += run_overhead_study(
            tools,
            programs[start:start + chunk],
            request.scale,
            jobs=request.jobs,
            config=config,
        ).rows
        context.progress(
            "table2 progress", completed=len(rows), total=len(programs)
        )
    study = OverheadStudy(rows=rows, tools=tools)
    return {
        "rendered": render_table2(study),
        "rows": overhead_to_rows(study),
        "geomeans": study.geometric_means(),
    }


def execute_sweep_job(
    context: JobContext,
    request: SweepJobRequest,
    defaults: ExecConfig,
) -> Dict[str, Any]:
    from ...analysis import render_study
    from ...analysis.parallel import fabric_stats

    started = time.perf_counter()
    if request.target == "table2":
        payload = _run_table2(context, request, defaults)
    else:
        context.check_cancelled()
        payload = {
            "rendered": render_study(
                request.target, request.jobs, request.scale, defaults
            )
        }
    stats = fabric_stats()
    payload.update(
        {
            "target": request.target,
            "wall_seconds": time.perf_counter() - started,
            "fabric": stats,
        }
    )
    return payload
