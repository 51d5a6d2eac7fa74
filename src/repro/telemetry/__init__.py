"""Runtime telemetry: counters, quasi-bound convergence, phase profiler.

See :mod:`repro.telemetry.registry` for the design and
``docs/OBSERVABILITY.md`` for the user-facing guide.
"""

from .profiler import PhaseProfiler, PhaseStat
from .registry import (
    Telemetry,
    TelemetrySnapshot,
    merge_snapshots,
)

__all__ = [
    "PhaseProfiler",
    "PhaseStat",
    "Telemetry",
    "TelemetrySnapshot",
    "merge_snapshots",
]
