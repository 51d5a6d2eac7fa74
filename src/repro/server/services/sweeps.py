"""The sweep-job service: regenerate a paper table/figure as a job.

Table 2 — the acceptance workload — runs in program-sized chunks
through the shared fabric with a cancellation checkpoint between
chunks, so ``DELETE /jobs/{id}`` takes effect mid-sweep instead of
after the final row.  The other targets reuse their study runners
whole (they are seconds-scale).  Results include the rendered text
exactly as the CLI prints it, so a sweep job is byte-comparable to
``python -m repro <target>``.

Sweep workers resolve ``REPRO_*`` process defaults (and the fabric is
keyed on them), so the whole body holds the environment lease; see
:mod:`repro.server.services.common`.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from ..config import ExecutionDefaults
from ..jobs import JobContext
from ..models import SweepJobRequest
from .common import env_lease


def _run_table2(context: JobContext, request: SweepJobRequest) -> Dict[str, Any]:
    from ...analysis import (
        PERFORMANCE_TOOLS,
        OverheadStudy,
        overhead_to_rows,
        render_table2,
    )
    from ...analysis.parallel import overhead_worker, parallel_map
    from ...runtime.cost_model import DEFAULT_COST_MODEL
    from ...workloads.spec import SPEC_TABLE2_ROWS

    tools = list(PERFORMANCE_TOOLS)
    rows = []
    # chunk size: a couple of fills of the worker fleet between
    # cancellation checkpoints; jobs=1 checkpoints every other program
    chunk = max(request.jobs, 1) * 2
    programs = list(SPEC_TABLE2_ROWS)
    for start in range(0, len(programs), chunk):
        context.check_cancelled()
        batch = programs[start:start + chunk]
        rows.extend(
            parallel_map(
                overhead_worker,
                [
                    (spec.name, tools, request.scale, DEFAULT_COST_MODEL)
                    for spec in batch
                ],
                request.jobs,
                shard_keys=[spec.name for spec in batch],
            )
        )
        context.progress(
            "table2 progress", completed=len(rows), total=len(programs)
        )
    study = OverheadStudy(rows=rows, tools=tools)
    return {
        "rendered": render_table2(study),
        "rows": overhead_to_rows(study),
        "geomeans": study.geometric_means(),
    }


def _run_simple_target(
    context: JobContext, request: SweepJobRequest
) -> Dict[str, Any]:
    from ... import analysis

    context.check_cancelled()
    if request.target == "table3":
        study = analysis.run_juliet_study(jobs=request.jobs)
        return {"rendered": analysis.render_table3(study)}
    if request.target == "table4":
        study = analysis.run_linux_flaw_study(jobs=request.jobs)
        return {"rendered": analysis.render_table4(study)}
    if request.target == "table5":
        study = analysis.run_magma_study(jobs=request.jobs)
        return {"rendered": analysis.render_table5(study)}
    if request.target == "fig10":
        study = analysis.run_figure10_study(
            scale=request.scale, jobs=request.jobs
        )
        return {"rendered": analysis.render_figure10(study)}
    study = analysis.run_figure11_study(jobs=request.jobs)
    return {"rendered": analysis.render_figure11(study)}


def execute_sweep_job(
    context: JobContext,
    request: SweepJobRequest,
    defaults: ExecutionDefaults,
) -> Dict[str, Any]:
    started = time.perf_counter()
    with env_lease(context, {"REPRO_ENGINE": request.engine}):
        if request.target == "table2":
            payload = _run_table2(context, request)
        else:
            payload = _run_simple_target(context, request)
        from ...analysis.parallel import fabric_stats

        stats = fabric_stats()
    payload.update(
        {
            "target": request.target,
            "wall_seconds": time.perf_counter() - started,
            "fabric": stats,
        }
    )
    return payload
