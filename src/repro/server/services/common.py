"""Shared service plumbing: telemetry aggregation.

Each run job's snapshot is merged into a per-tool process aggregate via
the explicit :func:`repro.telemetry.merge_snapshots` API; ``GET /stats``
serves the totals.  Registries themselves stay scoped to one Session —
the aggregate only ever sees immutable snapshots.
"""

from __future__ import annotations

import threading
from typing import Dict

from ...telemetry import TelemetrySnapshot, merge_snapshots


class TelemetryAggregate:
    """Per-tool merged snapshots across every telemetry-enabled run job."""

    def __init__(self):
        self._lock = threading.Lock()
        self._per_tool: Dict[str, TelemetrySnapshot] = {}
        self.runs = 0

    def merge(self, snapshot: TelemetrySnapshot) -> None:
        with self._lock:
            self.runs += 1
            previous = self._per_tool.get(snapshot.tool)
            self._per_tool[snapshot.tool] = (
                snapshot
                if previous is None
                else merge_snapshots([previous, snapshot])
            )

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "runs": self.runs,
                "tools": {
                    tool: snapshot.as_dict()
                    for tool, snapshot in sorted(self._per_tool.items())
                },
            }
