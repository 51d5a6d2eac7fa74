"""Application factory for the sanitizer-as-a-service control plane.

``create_app`` wires the validated server config, the execution
defaults (one :class:`~repro.runtime.session.ExecConfig`, chosen by the
caller: ``repro serve`` passes the CLI's), the job manager, and the
process telemetry aggregate into the route table that
:class:`repro.server.http.Server` serves.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.session import ExecConfig
from .config import ServerConfig, config_from_env
from .http import App
from .jobs import JobManager
from .routers import health, jobs
from .services.common import TelemetryAggregate


def create_app(
    config: Optional[ServerConfig] = None,
    defaults: ExecConfig = ExecConfig(),
) -> App:
    """Build the control-plane app; ``config=None`` reads REPRO_SERVE_*
    and ``defaults`` is the execution cell every job starts from."""
    config = config or config_from_env()
    return App(
        {**health.ROUTES, **jobs.ROUTES},
        config=config,
        defaults=defaults,
        manager=JobManager(config),
        telemetry_totals=TelemetryAggregate(),
    )
