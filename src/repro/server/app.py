"""Application factory for the sanitizer-as-a-service control plane.

``create_app`` wires the validated server config, the execution
defaults (one :class:`~repro.runtime.session.ExecConfig`, resolved once
at creation time), the async job manager, and
the process telemetry aggregate into an ASGI 3 application.  The app
is framework-free (see :mod:`repro.server.asgi`) so it runs under the
bundled stdlib server, the in-process test client, or any external
ASGI server without new dependencies.
"""

from __future__ import annotations

from typing import Optional

from .asgi import App
from ..runtime.session import ExecConfig
from .config import ServerConfig, config_from_env
from .jobs import JobManager
from .routers import health, jobs
from .services.common import TelemetryAggregate


def create_app(
    config: Optional[ServerConfig] = None,
    defaults: Optional[ExecConfig] = None,
) -> App:
    """Build the control-plane app; ``config=None`` reads REPRO_SERVE_*
    and ``defaults=None`` reads the ``REPRO_*`` execution switches."""
    config = config or config_from_env()
    defaults = ExecConfig.from_env() if defaults is None else defaults
    manager = JobManager(config)

    app = App()
    app.state.config = config
    app.state.defaults = defaults
    app.state.manager = manager
    app.state.telemetry_totals = TelemetryAggregate()
    app.include(health.router)
    app.include(jobs.router)
    app.on_startup.append(manager.startup)
    app.on_shutdown.append(manager.shutdown)
    return app
