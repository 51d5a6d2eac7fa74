"""Process-parallel experiment runner on the persistent execution fabric.

The (proxy × sanitizer) matrices behind Tables 2-5 and Figures 10/11 are
embarrassingly parallel: every cell is an isolated Session over a freshly
built program.  This module fans work units out across the long-lived
worker processes of :class:`repro.analysis.fabric.ExecutionFabric` and
merges results back in deterministic submission order, so parallel runs
are byte-identical to ``--jobs 1`` runs.

Work units are dispatched *by name/index* into the canonical registries
(:data:`repro.workloads.spec.SPEC_BY_NAME` and friends) rather than by
pickling built programs: a worker rebuilds its program locally, which
keeps payloads tiny and sidesteps pickling closures.  Results travel
back as plain dataclasses (RunResult, CheckStats, ErrorLog) through each
worker's shared-memory scratch segment.

Callers pass ``jobs``: ``1`` (the default everywhere) runs inline with
no multiprocessing machinery at all; anything larger uses the shared
fabric.  Custom program lists that are not in the canonical registries
fall back to inline execution since workers cannot rebuild them.

Every payload carries its :class:`~repro.runtime.session.ExecConfig`,
so one fabric serves any mix of configs.  The fabric persists across
``parallel_map`` calls — consecutive tables of one sweep invocation
reuse warm workers (and their instrumentation memo / compiled-closure
caches).  A map asking for fewer workers than the fabric has runs on
the first ``jobs`` of them, so concurrent sweeps with different
``--jobs`` share it; only a request for *more* workers retires it, as a
graceful *drain* (workers finish in-flight units and exit cleanly); the
hard ``terminate`` path is reserved for process exit.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import Callable, List, Optional, Sequence, TypeVar

from .fabric import DrainReport, ExecutionFabric

T = TypeVar("T")
U = TypeVar("U")

#: The shared fabric.  One ``repro`` sweep invocation runs many tables
#: back to back; recreating workers per table paid fork + cold caches
#: every time, which is what made ``--jobs 2`` lose to ``--jobs 1`` in
#: earlier BENCH_interpreter.json snapshots.
_FABRIC: Optional[ExecutionFabric] = None

#: Serializes every touch of the shared fabric.  A fabric ``map`` is a
#: stateful conversation (scheduler, in-flight table, event queue);
#: interleaving two maps from different threads — which the server's
#: concurrent sweep/fuzz jobs would otherwise do — corrupts both.
#: Re-entrant so a worker function that (inline) calls ``parallel_map``
#: again on the same thread cannot deadlock against itself.
_FABRIC_LOCK = threading.RLock()


def default_jobs() -> int:
    """A sensible worker count for ``--jobs`` defaults.

    Uses the scheduler's CPU *affinity* mask (which reflects cgroup /
    container quotas and ``taskset`` pinning) rather than the raw
    ``cpu_count()``, which oversubscribes containerized runs; falls back
    to ``cpu_count()`` where affinity is unsupported (macOS, Windows).
    """
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except (AttributeError, OSError):
        return max(os.cpu_count() or 1, 1)


def drain_pool(timeout: float = 30.0) -> Optional[DrainReport]:
    """Gracefully retire the shared fabric (it had too few workers).

    Workers finish any in-flight unit, then exit cleanly — nothing is
    killed unless a worker wedges past ``timeout``.  Returns the
    fabric's :class:`~repro.analysis.fabric.DrainReport` (None when no
    fabric was live) so callers can see — and re-queue — anything a
    non-clean drain dropped.
    """
    global _FABRIC
    with _FABRIC_LOCK:
        report = None
        if _FABRIC is not None:
            report = _FABRIC.drain(timeout=timeout)
        _FABRIC = None
        return report


def shutdown_pool() -> None:
    """Hard-stop the shared fabric (atexit hook and test isolation)."""
    global _FABRIC
    with _FABRIC_LOCK:
        if _FABRIC is not None:
            _FABRIC.terminate()
        _FABRIC = None


def kill_workers() -> None:
    """Kill the shared fabric's workers without taking the fabric lock.

    For an abort while a map holds that lock: the map sees its workers
    die within a second, retires the fabric and raises, which frees the
    lock for :func:`shutdown_pool`.
    """
    fabric = _FABRIC
    if fabric is not None:
        for process in fabric.processes:
            process.terminate()


atexit.register(shutdown_pool)


def _shared_fabric(processes: int) -> ExecutionFabric:
    """A persistent fabric with at least ``processes`` workers, recreated
    only when the live one is smaller."""
    global _FABRIC
    if (
        _FABRIC is not None
        and _FABRIC.workers >= processes
        and not _FABRIC._closed
    ):
        return _FABRIC
    drain_pool()
    _FABRIC = ExecutionFabric(processes)
    return _FABRIC


def fabric_stats() -> Optional[dict]:
    """Aggregate counters of the live fabric (None when inline-only).

    Includes per-worker unit counts and instrumentation-memo hit/miss
    counters, which is how tests assert warm-cache reuse across
    consecutive tables.
    """
    with _FABRIC_LOCK:
        if _FABRIC is None or _FABRIC._closed:
            return None
        stats = _FABRIC.stats()
        stats["worker_stats"] = _FABRIC.worker_stats()
        return stats


def parallel_map(
    worker: Callable[[T], U],
    payloads: Sequence[T],
    jobs: Optional[int],
    shard_keys: Optional[Sequence] = None,
) -> List[U]:
    """Ordered map over ``payloads`` with up to ``jobs`` fabric workers.

    ``jobs`` of None/0/1 (or a single payload) runs inline.  Workers
    must be module-level functions and payloads picklable.  Results come
    back in submission order regardless of completion order, which is
    what makes parallel table sweeps deterministic.

    ``shard_keys`` (one per payload, typically the program name) pin
    units to home workers so repeated sweeps reuse warm per-worker
    caches; idle workers steal from the largest remaining shard.  When
    omitted, units round-robin by index.
    """
    payloads = list(payloads)
    jobs = max(int(jobs or 1), 1)
    if jobs == 1 or len(payloads) <= 1:
        return [worker(payload) for payload in payloads]
    # One map at a time: the fabric's dispatch state is a single
    # conversation, and the server runs parallel_map from several job
    # threads concurrently.
    with _FABRIC_LOCK:
        return _shared_fabric(jobs).map(
            worker, payloads, shard_keys=shard_keys, workers=jobs
        )


def chunk_ranges(total: int, jobs: int) -> List[tuple]:
    """Split ``range(total)`` into at most ``jobs`` contiguous spans."""
    jobs = max(min(jobs, total), 1)
    base, extra = divmod(total, jobs)
    spans = []
    start = 0
    for worker_index in range(jobs):
        size = base + (1 if worker_index < extra else 0)
        if size:
            spans.append((start, start + size))
            start += size
    return spans


#: Spans per worker when slicing for the fabric: finer-grained than one
#: span per worker so work stealing has units to move when one slice
#: straggles.  Results stay byte-identical for any granularity because
#: spans are merged back in ascending submission order.
STEAL_GRANULARITY = 4


def steal_spans(total: int, jobs: int) -> List[tuple]:
    """Contiguous spans sized for work stealing: ``jobs * 4`` slices.

    ``jobs <= 1`` degrades to a single span (the inline path).
    """
    jobs = max(int(jobs or 1), 1)
    if jobs == 1:
        return chunk_ranges(total, 1)
    return chunk_ranges(total, jobs * STEAL_GRANULARITY)


def map_specs(worker, measure, programs, args, jobs) -> list:
    """``measure(spec, *args)`` for every SPEC proxy, in order.

    Registry proxies run as ``worker((name, *args))`` units sharded by
    program, so consecutive tables touching the same proxy land on the
    same warm fabric worker; other programs run inline, since workers
    rebuild programs by name.
    """
    from ..workloads.spec import SPEC_BY_NAME

    if all(SPEC_BY_NAME.get(spec.name) is spec for spec in programs):
        names = [spec.name for spec in programs]
        return parallel_map(
            worker, [(name, *args) for name in names], jobs, names
        )
    return [measure(spec, *args) for spec in programs]


# ----------------------------------------------------------------------
# module-level workers (must be importable for the fabric)
# ----------------------------------------------------------------------
def overhead_worker(payload):
    """One Table 2 row: run one SPEC proxy under every tool."""
    from ..workloads.spec import SPEC_BY_NAME
    from .overhead import measure_program

    name, *args = payload
    return measure_program(SPEC_BY_NAME[name], *args)


def figure10_worker(payload):
    """One Figure 10 bar: GiantSan check breakdown for one proxy."""
    from ..workloads.spec import SPEC_BY_NAME
    from .figures import measure_check_breakdown

    name, *args = payload
    return measure_check_breakdown(SPEC_BY_NAME[name], *args)


def figure11_worker(payload):
    """One Figure 11 cell: one traversal pattern at one size, all tools."""
    pattern_index, size, cost_model, config = payload
    from ..runtime import Session
    from ..workloads.traversals import FIGURE11_PATTERNS
    from .figures import FIGURE11_TOOLS, TraversalPoint

    pattern = FIGURE11_PATTERNS[pattern_index]
    program = pattern.build(size)
    points = []
    for tool in FIGURE11_TOOLS:
        result = Session(tool, config, cost_model=cost_model).run(program)
        points.append(
            TraversalPoint(
                pattern=pattern.name,
                size=size,
                tool=tool,
                cycles=result.total_cycles(cost_model),
            )
        )
    return points


def profile_worker(payload):
    """One ``repro profile`` row: telemetry run of one SPEC proxy."""
    from ..workloads.spec import SPEC_BY_NAME
    from .profile import profile_program

    name, *args = payload
    return profile_program(SPEC_BY_NAME[name], *args)


def juliet_worker(payload):
    """One contiguous slice of the Juliet suite under every tool.

    The suite is generated once per worker process (persistent fabric
    workers keep it across slices and tables) instead of being rebuilt
    from scratch for every slice, which made each unit pay O(total
    suite) generation work for an O(slice) run.
    """
    lo, hi, tools, config = payload
    from ..runtime import Session
    from ..workloads.juliet import juliet_suite_cached

    cases = juliet_suite_cached()[lo:hi]
    outcomes = []
    for offset, case in enumerate(cases):
        row = {
            tool: bool(Session(tool, config).run(case.program).errors)
            for tool in tools
        }
        outcomes.append((lo + offset, row))
    return outcomes


def linux_flaw_worker(payload):
    """One Table 4 row: run one CVE scenario under every tool."""
    scenario_index, tools, config = payload
    from ..workloads.linux_flaw import TABLE4_SCENARIOS
    from .detection import cve_row

    scenario = TABLE4_SCENARIOS[scenario_index]
    return scenario.cve_id, cve_row(scenario, tools, config)


def magma_worker(payload):
    """One Table 5 row: one Magma project under every configuration."""
    project_index, config = payload
    from ..workloads.magma import TABLE5_PROJECTS
    from .detection import magma_row

    project = TABLE5_PROJECTS[project_index]
    return project.name, magma_row(project, config), project.total
