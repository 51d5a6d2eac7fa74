"""Liveness and process-level observability endpoints."""

from __future__ import annotations

import dataclasses

from ..asgi import Router

router = Router()


@router.get("/healthz")
async def healthz(request):
    manager = request.state.manager
    return {
        "status": "ok" if manager.accepting else "draining",
        "accepting": manager.accepting,
        "jobs": manager.counts(),
    }


@router.get("/stats")
async def stats(request):
    from ...analysis.parallel import fabric_stats
    from ...passes.instrument import instrumentation_cache_stats

    state = request.state
    return {
        "jobs": state.manager.counts(),
        "config": state.config.model_dump(),
        "defaults": dataclasses.asdict(state.defaults),
        "fabric": fabric_stats(),
        "instrumentation_cache": instrumentation_cache_stats(),
        "telemetry_totals": state.telemetry_totals.as_dict(),
    }
