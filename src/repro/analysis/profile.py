"""Telemetry profiling study: the backend of ``repro profile``.

Runs workloads with the telemetry registry enabled and aggregates the
counter snapshots into the table the paper's performance narrative
needs: the fast-check / slow-check split of ``CI(L, R)`` (§4.2), the
quasi-bound convergence steps against the ``ceil(log2(n/8))`` claim
(§4.3), shadow traffic, quarantine occupancy, and redzone volume.

The study also doubles as the CI wiring-regression detector:
:func:`wiring_problems` flags a run whose check counters are all zero —
the signature of a refactor that silently disconnected the counters the
overhead model feeds on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

from ..passes.instrument import FoldedProgram
from ..runtime import ExecConfig, Session
from ..sanitizers import SANITIZER_FACTORIES
from ..telemetry import TelemetrySnapshot, merge_snapshots
from ..workloads.spec import SPEC_TABLE2_ROWS, SpecProgram

#: Default tool for the profile sweep (the paper's subject).
DEFAULT_PROFILE_TOOL = "GiantSan"


def quasi_bound_limit(object_bytes: int) -> int:
    """The paper's §4.3 bound: at most ``ceil(log2(n/8))`` quasi-bound
    updates for a forward walk over an ``n``-byte object."""
    if object_bytes <= 8:
        return 0
    return math.ceil(math.log2(object_bytes / 8))


@dataclass
class ProgramProfile:
    """One profiled run: the snapshot plus its wall-clock cost."""

    program: str
    tool: str
    snapshot: TelemetrySnapshot
    seconds: float


@dataclass
class ProfileStudy:
    """All profiled rows for one tool."""

    tool: str
    rows: List[ProgramProfile]

    def merged(self) -> TelemetrySnapshot:
        """Every row's snapshot, merged by :func:`merge_snapshots`."""
        return merge_snapshots(row.snapshot for row in self.rows)

    def totals(self) -> dict:
        """Counter sums across every row (split preserved)."""
        return self.merged().counters


def profile_program(
    spec: SpecProgram, tool: str = DEFAULT_PROFILE_TOOL,
    scale: Optional[int] = None,
    config: ExecConfig = ExecConfig(),
) -> ProgramProfile:
    """Run one Table 2 proxy with telemetry on and snapshot it."""
    program = FoldedProgram(spec.build())
    args = [scale if scale is not None else spec.default_scale]
    session = Session(tool, config, telemetry=True)
    started = time.perf_counter()
    result = session.run(program, args)
    elapsed = time.perf_counter() - started
    return ProgramProfile(
        program=spec.name,
        tool=tool,
        snapshot=result.telemetry,
        seconds=round(elapsed, 4),
    )


def run_profile_study(
    tool: str = DEFAULT_PROFILE_TOOL,
    programs: Optional[List[SpecProgram]] = None,
    scale: Optional[int] = None,
    jobs: int = 1,
    config: ExecConfig = ExecConfig(),
) -> ProfileStudy:
    """Profile the Table 2 kernel sweep (or a subset) under one tool."""
    from .parallel import map_specs, profile_worker

    if tool not in SANITIZER_FACTORIES:
        known = ", ".join(sorted(SANITIZER_FACTORIES))
        raise ValueError(f"unknown tool {tool!r}; known tools: {known}")
    rows = map_specs(
        profile_worker, profile_program, programs or SPEC_TABLE2_ROWS,
        (tool, scale, config), jobs,
    )
    return ProfileStudy(tool=tool, rows=rows)


def wiring_problems(study: ProfileStudy) -> List[str]:
    """Counter-wiring regressions: rows whose check telemetry is dead.

    Every tool that instruments checks must report a non-zero
    ``checks_executed``; tools with the O(1) region check (GiantSan and
    its ablations) must additionally show a live fast/slow split —
    all-zero split counters mean ``CI(L, R)`` stopped feeding the
    registry, which is exactly the regression CI should catch.
    """
    problems: List[str] = []
    sanitizer = SANITIZER_FACTORIES[study.tool]()
    instruments_checks = sanitizer.name != "Native"
    wants_split = sanitizer.capabilities.constant_time_region
    for row in study.rows:
        counters = row.snapshot.counters
        if not instruments_checks:
            continue
        if counters.get("checks_executed", 0) == 0:
            problems.append(
                f"{row.program}: checks_executed is 0 under {row.tool}"
            )
            continue
        if wants_split:
            fast, slow = row.snapshot.fast_slow_split
            if fast == 0 and slow == 0:
                problems.append(
                    f"{row.program}: fast/slow split counters are all "
                    f"zero under {row.tool}"
                )
    return problems


def render_profile(study: ProfileStudy) -> str:
    """The ``repro profile`` table layout."""
    lines = [
        f"Telemetry profile under {study.tool} "
        "(fast/slow = CI(L,R) split; conv = quasi-bound update steps)",
        f"{'Program':20s} {'checks':>9s} {'fast':>9s} {'slow':>8s} "
        f"{'fast%':>6s} {'qb-hit':>9s} {'qb-upd':>7s} {'conv':>5s} "
        f"{'shadow-ld':>10s} {'quar-peak':>10s} {'redzone':>9s} "
        f"{'sblk':>5s} {'sblk-iter':>10s} {'sliced':>10s} {'sec':>7s}",
    ]
    for row in study.rows:
        snap = row.snapshot
        lines.append(_profile_line(
            row.program, snap, snap.convergence_max_steps, row.seconds
        ))
    merged = study.merged()
    # steps add per site id in a merge and site ids repeat across
    # programs, so the Total row's conv is the largest row's
    lines.append(_profile_line(
        "Total", merged,
        max(row.snapshot.convergence_max_steps for row in study.rows),
        sum(row.seconds for row in study.rows),
    ))
    if merged.phases:
        lines.append("")
        lines.append("phase timings (wall time across the sweep):")
        lines.append(f"  {'phase':<18s} {'events':>10s} {'seconds':>10s}")
        for name, stat in sorted(
            merged.phases.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"  {name:<18s} {stat['events']:>10d} "
                f"{stat['seconds']:>10.4f}"
            )
    if merged.superblock_declines:
        lines.append("")
        lines.append("superblock declines by reason:")
        for reason, count in sorted(
            merged.superblock_declines.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {reason:<28s} {count:>10d}")
    return "\n".join(lines)


def _profile_line(
    label: str, snap: TelemetrySnapshot, conv: int, seconds: float
) -> str:
    """One row of the :func:`render_profile` table."""
    counters = snap.counters
    fast, slow = snap.fast_slow_split
    return (
        f"{label:20s} {counters.get('checks_executed', 0):>9d} "
        f"{fast:>9d} {slow:>8d} {snap.fast_fraction * 100:>5.1f}% "
        f"{counters.get('quasi_bound_hits', 0):>9d} "
        f"{counters.get('quasi_bound_updates', 0):>7d} "
        f"{conv:>5d} "
        f"{counters.get('shadow_bytes_loaded', 0):>10d} "
        f"{snap.quarantine_peak_bytes:>10d} "
        f"{counters.get('redzone_bytes_poisoned', 0):>9d} "
        f"{counters.get('superblock_loops', 0):>5d} "
        f"{counters.get('superblock_iterations', 0):>10d} "
        f"{counters.get('superblock_bulk_iterations', 0):>10d} "
        f"{seconds:>7.3f}"
    )
