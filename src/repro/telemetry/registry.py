"""Low-overhead runtime counter registry (the observability tentpole).

The paper's performance story is told in *events* — fast vs. slow
region checks (§4.2, Table 1), quasi-bound cache hits and the
``ceil(log2(n/8))`` convergence claim (§4.3), shadow bytes touched,
redzone bytes poisoned, quarantine occupancy — and this module makes
every one of them observable at runtime without perturbing the numbers
it measures:

* **Zero cost when disabled.**  A session without telemetry attaches
  nothing: the sanitizer's ``observers`` stay empty, the interpreter's
  only added work is one attribute test per *loop execution* (not per
  iteration), and the sanitizer check paths are untouched — they keep
  feeding :class:`~repro.sanitizers.base.CheckStats` exactly as before.
* **Stats mirroring, not double counting.**  Counters the sanitizer
  already maintains (``fast_checks``, ``slow_checks``,
  ``shadow_loads`` …) are *mirrored into the snapshot* at collection
  time rather than incremented a second time on the hot path.
* **Probes for everything else.**  Quantities no CheckStats field
  covers — redzone bytes poisoned, per-site quasi-bound convergence
  steps, superblock entry/decline counts, phase timings — come from
  the registry's ``observe`` hook on the sanitizer and explicitly gated
  call sites in the interpreter and fast path.

Enable per session with ``Session(tool, telemetry=True)``; read the
result from ``RunResult.telemetry`` (a :class:`TelemetrySnapshot`), the
``repro profile`` CLI, or :func:`repro.analysis.export.telemetry_to_rows`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..sanitizers.base import EventKind
from .profiler import PhaseProfiler, PhaseStat


#: CheckStats fields mirrored into every snapshot, renamed to the
#: telemetry vocabulary the paper's sections use.
_STATS_MIRROR = {
    "checks_executed": "checks_executed",
    "instruction_checks": "instruction_checks",
    "region_checks": "region_checks",
    "fast_checks": "fast_check_hits",
    "slow_checks": "slow_path_entries",
    "shadow_loads": "shadow_bytes_loaded",
    "shadow_stores": "shadow_bytes_stored",
    "cached_hits": "quasi_bound_hits",
    "cache_updates": "quasi_bound_updates",
    "segments_scanned": "segments_scanned",
    "allocations": "allocations",
    "frees": "frees",
    "reports": "reports",
}


@dataclass
class TelemetrySnapshot:
    """One collection of every counter a telemetry-enabled run produced.

    ``counters`` holds both the mirrored CheckStats events and the
    probe-only counters; ``convergence_per_site`` maps a history-cache
    site id to the number of quasi-bound *updates* (cache misses that
    extended the bound) it took — the paper claims at most
    ``ceil(log2(n/8))`` per object for forward walks.  Plain dicts
    throughout so snapshots pickle cleanly across worker processes.
    """

    tool: str
    counters: Dict[str, int] = field(default_factory=dict)
    convergence_per_site: Dict[int, int] = field(default_factory=dict)
    superblock_declines: Dict[str, int] = field(default_factory=dict)
    quarantine_peak_bytes: int = 0
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # -- derived views -------------------------------------------------
    @property
    def fast_slow_split(self) -> tuple:
        """(fast-check hits, slow-path entries) — the §4.2 split."""
        return (
            self.counters.get("fast_check_hits", 0),
            self.counters.get("slow_path_entries", 0),
        )

    @property
    def fast_fraction(self) -> float:
        """Fast-only share of the region checks that took either path."""
        fast, slow = self.fast_slow_split
        total = fast + slow
        return fast / total if total else 0.0

    @property
    def convergence_max_steps(self) -> int:
        return max(self.convergence_per_site.values(), default=0)

    @property
    def convergence_total_steps(self) -> int:
        return sum(self.convergence_per_site.values())

    def as_dict(self) -> dict:
        """Structured JSON-ready form (the export schema)."""
        return {
            "tool": self.tool,
            "counters": dict(self.counters),
            "quasi_bound_convergence": {
                "sites": len(self.convergence_per_site),
                "max_steps": self.convergence_max_steps,
                "total_steps": self.convergence_total_steps,
                "per_site": {
                    str(site): steps
                    for site, steps in sorted(
                        self.convergence_per_site.items()
                    )
                },
            },
            "superblock_declines": dict(self.superblock_declines),
            "quarantine_peak_bytes": self.quarantine_peak_bytes,
            "phases": {
                name: dict(stat) for name, stat in self.phases.items()
            },
        }


def merge_snapshots(
    snapshots: Iterable[TelemetrySnapshot],
) -> TelemetrySnapshot:
    """Combine same-tool snapshots into one additive snapshot.

    This is the *only* sanctioned way to aggregate telemetry across
    Sessions: registries stay scoped to one Session each, and callers
    (the server's process aggregate, sweep roll-ups) merge the immutable
    snapshots afterwards.  Counters, per-site convergence steps,
    superblock declines, and phase events/samples/seconds add;
    ``quarantine_peak_bytes`` takes the max (peaks of disjoint runs do
    not sum).  Merging snapshots from different tools raises — that is
    exactly the cross-contamination this API exists to prevent.
    """
    snapshots = list(snapshots)
    if not snapshots:
        raise ValueError("merge_snapshots needs at least one snapshot")
    tools = {snapshot.tool for snapshot in snapshots}
    if len(tools) > 1:
        raise ValueError(
            f"refusing to merge snapshots from different tools: "
            f"{sorted(tools)}"
        )

    counters: Dict[str, int] = {}
    convergence: Dict[int, int] = {}
    declines: Dict[str, int] = {}
    phases: Dict[str, PhaseStat] = {}
    quarantine_peak = 0
    for snapshot in snapshots:
        for name, value in snapshot.counters.items():
            counters[name] = counters.get(name, 0) + value
        for site, steps in snapshot.convergence_per_site.items():
            convergence[site] = convergence.get(site, 0) + steps
        for reason, count in snapshot.superblock_declines.items():
            declines[reason] = declines.get(reason, 0) + count
        for name, stat in snapshot.phases.items():
            merged = phases.setdefault(name, PhaseStat())
            merged.events += int(stat.get("events", 0))
            merged.samples += int(stat.get("samples", 0))
            merged.sampled_seconds += float(stat.get("sampled_seconds", 0.0))
        quarantine_peak = max(quarantine_peak, snapshot.quarantine_peak_bytes)
    return TelemetrySnapshot(
        tool=snapshots[0].tool,
        counters=counters,
        convergence_per_site=convergence,
        superblock_declines=declines,
        quarantine_peak_bytes=quarantine_peak,
        phases={name: stat.as_dict() for name, stat in phases.items()},
    )


class Telemetry:
    """Counter registry + probes for one sanitizer's lifetime.

    Create one per :class:`~repro.runtime.session.Session` (the session
    does this when ``telemetry`` resolves to on) and :meth:`attach` it
    to the sanitizer; the interpreter and fast path receive the same
    object and feed the probe counters.  Counters accumulate across
    runs exactly like ``CheckStats`` does.
    """

    def __init__(self, sample_interval: int = 8):
        self.counters: Dict[str, int] = {}
        self.convergence: Dict[int, int] = {}
        self.declines: Dict[str, int] = {}
        self.profiler = PhaseProfiler(sample_interval=sample_interval)
        # set by attach(), weakly, for snapshot() with no argument
        self._sanitizer: Optional[weakref.ref] = None

    # -- hot-path probes (every call site is gated on `is not None`) ---
    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def note_convergence(self, site_id: int) -> None:
        """One quasi-bound update at history-cache site ``site_id``."""
        self.convergence[site_id] = self.convergence.get(site_id, 0) + 1

    def note_superblock_decline(self, reason: str) -> None:
        self.declines[reason] = self.declines.get(reason, 0) + 1

    # -- explicit aggregation ------------------------------------------
    def merge(self, other: "Telemetry") -> "Telemetry":
        """Fold another registry's *probe* counters into this one.

        Registries are scoped to one Session each; merging is the
        explicit opt-in for roll-ups (never implicit sharing).  Only the
        probe side merges — CheckStats mirrors belong to each
        sanitizer's own snapshot, so merging attached registries' raw
        counters directly would double-count.  Use
        :func:`merge_snapshots` to combine *collected* snapshots.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for site, steps in other.convergence.items():
            self.convergence[site] = self.convergence.get(site, 0) + steps
        for reason, count in other.declines.items():
            self.declines[reason] = self.declines.get(reason, 0) + count
        for name, stat in other.profiler.phases.items():
            merged = self.profiler.phases.setdefault(name, PhaseStat())
            merged.events += stat.events
            merged.samples += stat.samples
            merged.sampled_seconds += stat.sampled_seconds
        return self

    # -- attachment ----------------------------------------------------
    def attach(self, sanitizer) -> "Telemetry":
        """Add this registry to ``sanitizer``'s observers, where it
        counts redzone bytes poisoned and global definitions, and make
        it ``sanitizer.telemetry``, the probe the check paths feed.

        Idempotent for the same sanitizer; attaching one registry to two
        different sanitizers is a bug (their counters would blur) and
        raises.  The registry holds the sanitizer weakly.
        """
        if self._sanitizer is not None:
            if self._sanitizer() is sanitizer:
                return self
            raise ValueError(
                "telemetry registry is already attached to another sanitizer"
            )
        self._sanitizer = weakref.ref(sanitizer)
        sanitizer.telemetry = self
        sanitizer.observers += (self,)
        return self

    def observe(self, sanitizer, kind, address, size, subject) -> None:
        if kind is EventKind.MALLOC:
            self.incr(
                "redzone_bytes_poisoned",
                subject.left_redzone + subject.right_redzone,
            )
        elif kind is EventKind.GLOBAL:
            self.incr("global_definitions")

    # -- collection ----------------------------------------------------
    def snapshot(self, sanitizer=None) -> TelemetrySnapshot:
        """Merge probe counters with the sanitizer's CheckStats mirror."""
        if sanitizer is None and self._sanitizer is not None:
            sanitizer = self._sanitizer()
        counters = dict(self.counters)
        counters.setdefault("redzone_bytes_poisoned", 0)
        quarantine_peak = 0
        tool = "?"
        if sanitizer is not None:
            tool = sanitizer.name
            stats = sanitizer.stats.as_dict()
            for stats_name, telemetry_name in _STATS_MIRROR.items():
                counters[telemetry_name] = stats[stats_name]
            quarantine_peak = sanitizer.quarantine.peak_held_bytes
        return TelemetrySnapshot(
            tool=tool,
            counters=counters,
            convergence_per_site=dict(self.convergence),
            superblock_declines=dict(self.declines),
            quarantine_peak_bytes=quarantine_peak,
            phases=self.profiler.summary(),
        )
