"""Liveness and process-level observability endpoints."""

from __future__ import annotations

import dataclasses


def healthz(request):
    manager = request.state.manager
    return 200, {
        "status": "ok" if manager.accepting else "draining",
        "accepting": manager.accepting,
        "jobs": manager.counts(),
    }


def stats(request):
    from ...analysis.parallel import fabric_stats
    from ...passes.instrument import instrumentation_cache_stats

    state = request.state
    return 200, {
        "jobs": state.manager.counts(),
        "config": state.config.model_dump(),
        "defaults": dataclasses.asdict(state.defaults),
        "fabric": fabric_stats(),
        "instrumentation_cache": instrumentation_cache_stats(),
        "telemetry_totals": state.telemetry_totals.as_dict(),
    }


ROUTES = {
    ("GET", "/healthz"): healthz,
    ("GET", "/stats"): stats,
}
