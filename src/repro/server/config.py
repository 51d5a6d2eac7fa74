"""Server configuration: validated settings sourced from REPRO_SERVE_*.

Per-job execution settings travel inside each request's validated
model (see :mod:`repro.server.models`); this module only holds the
process-level knobs of the control plane itself.  The execution
*defaults* are one :class:`~repro.runtime.session.ExecConfig`, given to
the app when it is created and passed to every job.
"""

from __future__ import annotations

import os

from pydantic import BaseModel, ConfigDict, Field


class ServerConfig(BaseModel):
    """Process-level settings for ``repro serve``."""

    model_config = ConfigDict(extra="forbid")

    host: str = "127.0.0.1"
    port: int = Field(default=8321, ge=0, le=65535)
    #: Concurrent job threads.  Jobs are GIL-bound Python; real
    #: parallelism comes from each job's fabric workers, so a small
    #: thread pool is the right shape.
    max_concurrency: int = Field(default=2, ge=1, le=32)
    #: Terminal jobs retained for ``GET /jobs/{id}`` before eviction.
    max_retained_jobs: int = Field(default=256, ge=8)
    #: Upper bound a fuzz-campaign request may ask for.
    fuzz_iteration_cap: int = Field(default=2000, ge=1)
    #: Upper bound on per-job fabric workers (``jobs`` in requests).
    worker_cap: int = Field(default=8, ge=1)
    #: Seconds the graceful shutdown waits for running jobs before
    #: cancelling them (the fabric drain happens after either way).
    drain_timeout: float = Field(default=30.0, gt=0)


_ENV_FIELDS = {
    "REPRO_SERVE_HOST": ("host", str),
    "REPRO_SERVE_PORT": ("port", int),
    "REPRO_SERVE_CONCURRENCY": ("max_concurrency", int),
    "REPRO_SERVE_RETAINED_JOBS": ("max_retained_jobs", int),
    "REPRO_SERVE_FUZZ_CAP": ("fuzz_iteration_cap", int),
    "REPRO_SERVE_WORKER_CAP": ("worker_cap", int),
    "REPRO_SERVE_DRAIN_TIMEOUT": ("drain_timeout", float),
}


def config_from_env(**overrides) -> ServerConfig:
    """A ServerConfig from REPRO_SERVE_* plus explicit overrides."""
    values = {}
    for env_name, (field, cast) in _ENV_FIELDS.items():
        raw = os.environ.get(env_name)
        if raw is None:
            continue
        try:
            values[field] = cast(raw)
        except ValueError:
            raise SystemExit(
                f"invalid {env_name}={raw!r}: expected {cast.__name__}"
            ) from None
    values.update(
        {key: value for key, value in overrides.items() if value is not None}
    )
    return ServerConfig(**values)
