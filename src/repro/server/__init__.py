"""Sanitizer-as-a-service control plane.

``repro serve`` puts :class:`~repro.runtime.session.Session` and the
study runners behind a small REST service
(:func:`repro.server.app.create_app`): clients submit jobs — run an IR
program under a chosen (tool × fastpath × interprocedural) config, run a
table/figure sweep, launch a bounded fuzz campaign — that execute on a
thread-pool job manager backed by the persistent process pool, and
read job status, results, telemetry, and error reports via
``GET /jobs/{id}`` plus a streamed event feed.

The package mirrors the API+worker layering of production FastAPI
services (``app.py`` / ``routers/`` / ``services/`` / ``models.py`` /
``config.py``); the transport is one threaded standard-library HTTP
server (:mod:`repro.server.http`), so pydantic is the only dependency.

See ``docs/SERVICE.md`` for the endpoint and job-model reference.
"""

from .app import create_app
from .config import ServerConfig

__all__ = ["create_app", "ServerConfig"]
