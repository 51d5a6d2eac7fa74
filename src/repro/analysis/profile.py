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
from ..telemetry import TelemetrySnapshot
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

    def totals(self) -> dict:
        """Counter sums across every row (split preserved)."""
        merged: dict = {}
        for row in self.rows:
            for name, value in row.snapshot.counters.items():
                merged[name] = merged.get(name, 0) + value
        return merged


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
        counters = snap.counters
        fast, slow = snap.fast_slow_split
        lines.append(
            f"{row.program:20s} {counters.get('checks_executed', 0):>9d} "
            f"{fast:>9d} {slow:>8d} {snap.fast_fraction * 100:>5.1f}% "
            f"{counters.get('quasi_bound_hits', 0):>9d} "
            f"{counters.get('quasi_bound_updates', 0):>7d} "
            f"{snap.convergence_max_steps:>5d} "
            f"{counters.get('shadow_bytes_loaded', 0):>10d} "
            f"{snap.quarantine_peak_bytes:>10d} "
            f"{counters.get('redzone_bytes_poisoned', 0):>9d} "
            f"{counters.get('superblock_loops', 0):>5d} "
            f"{counters.get('superblock_iterations', 0):>10d} "
            f"{counters.get('superblock_bulk_iterations', 0):>10d} "
            f"{row.seconds:>7.3f}"
        )
    totals = study.totals()
    fast = totals.get("fast_check_hits", 0)
    slow = totals.get("slow_path_entries", 0)
    split = fast + slow
    lines.append(
        f"{'Total':20s} {totals.get('checks_executed', 0):>9d} "
        f"{fast:>9d} {slow:>8d} "
        f"{(fast / split * 100 if split else 0.0):>5.1f}% "
        f"{totals.get('quasi_bound_hits', 0):>9d} "
        f"{totals.get('quasi_bound_updates', 0):>7d} "
        f"{max((r.snapshot.convergence_max_steps for r in study.rows), default=0):>5d} "
        f"{totals.get('shadow_bytes_loaded', 0):>10d} "
        f"{max((r.snapshot.quarantine_peak_bytes for r in study.rows), default=0):>10d} "
        f"{totals.get('redzone_bytes_poisoned', 0):>9d} "
        f"{totals.get('superblock_loops', 0):>5d} "
        f"{totals.get('superblock_iterations', 0):>10d} "
        f"{totals.get('superblock_bulk_iterations', 0):>10d} "
        f"{sum(r.seconds for r in study.rows):>7.3f}"
    )
    phases = _merged_phases(study)
    if phases:
        lines.append("")
        lines.append("phase profile (sampled wall time across the sweep):")
        lines.append(
            f"  {'phase':<18s} {'events':>10s} {'samples':>9s} "
            f"{'est. seconds':>13s}"
        )
        for name, stat in sorted(
            phases.items(), key=lambda kv: -kv[1]["estimated_seconds"]
        ):
            lines.append(
                f"  {name:<18s} {stat['events']:>10d} "
                f"{stat['samples']:>9d} {stat['estimated_seconds']:>13.4f}"
            )
    declines = _merged_declines(study)
    if declines:
        lines.append("")
        lines.append("superblock declines by reason:")
        for reason, count in sorted(declines.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {reason:<28s} {count:>10d}")
    return "\n".join(lines)


def _merged_phases(study: ProfileStudy) -> dict:
    merged: dict = {}
    for row in study.rows:
        for name, stat in row.snapshot.phases.items():
            into = merged.setdefault(
                name,
                {"events": 0, "samples": 0, "estimated_seconds": 0.0},
            )
            into["events"] += int(stat["events"])
            into["samples"] += int(stat["samples"])
            into["estimated_seconds"] += stat["estimated_seconds"]
    return merged


def _merged_declines(study: ProfileStudy) -> dict:
    merged: dict = {}
    for row in study.rows:
        for reason, count in row.snapshot.superblock_declines.items():
            merged[reason] = merged.get(reason, 0) + count
    return merged
