"""Runtime telemetry: counters, quasi-bound convergence, phase timings.

See :mod:`repro.telemetry.registry` for the design and
``docs/OBSERVABILITY.md`` for the user-facing guide.
"""

from .registry import (
    Telemetry,
    TelemetrySnapshot,
    merge_snapshots,
)

__all__ = [
    "Telemetry",
    "TelemetrySnapshot",
    "merge_snapshots",
]
