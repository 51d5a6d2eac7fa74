"""Sanitizer-as-a-service control plane.

``repro serve`` turns :class:`~repro.runtime.session.Session` from a
library entry point into a multi-tenant runtime: an ASGI application
(:func:`repro.server.app.create_app`) accepts jobs over REST — run an
IR program under a chosen (tool × engine × fastpath) config,
run a table/figure sweep, launch a bounded fuzz campaign — executes
them on an async job manager backed by the persistent sharded fabric,
and exposes job status, results, telemetry, and error reports via
``GET /jobs/{id}`` plus a streamed event feed.

The package mirrors the API+worker layering of production FastAPI
services (``app.py`` / ``routers/`` / ``services/`` / ``models.py`` /
``config.py``), but is built on the dependency-free ASGI micro-kernel
in :mod:`repro.server.asgi` so the control plane runs on the stock
toolchain; any ASGI server (uvicorn, hypercorn) can host the app, and
:mod:`repro.server.http` provides a stdlib fallback server.

See ``docs/SERVICE.md`` for the endpoint and job-model reference.
"""

from .app import create_app
from .config import ServerConfig

__all__ = ["create_app", "ServerConfig"]
