"""Process-parallel experiment runner on one persistent process pool.

The (proxy × sanitizer) matrices behind Tables 2-5 and Figures 10/11 are
embarrassingly parallel: every cell is an isolated Session over a freshly
built program.  This module fans work units out over one module-level
:class:`concurrent.futures.ProcessPoolExecutor` and reads the results
back in submission order, so parallel runs are byte-identical to
``--jobs 1`` runs whichever worker ran what.

Work units are dispatched *by name/index* into the canonical registries
(:data:`repro.workloads.spec.SPEC_BY_NAME` and friends) rather than by
pickling built programs: a worker rebuilds its program locally, which
keeps payloads tiny and sidesteps pickling closures.  Results travel
back as plain dataclasses (RunResult, CheckStats, ErrorLog).

Callers pass ``jobs``: ``1`` (the default everywhere) runs inline and
never imports ``multiprocessing`` or ``concurrent.futures``; anything
larger uses the shared pool.  Custom program lists that are not in the
canonical registries fall back to inline execution since workers cannot
rebuild them.

Every payload carries its :class:`~repro.runtime.session.ExecConfig`,
so one pool serves any mix of configs.  The pool persists across
``parallel_map`` calls: consecutive tables of one invocation reuse the
same forked workers, and with them each worker's instrumentation memo
and compiled closures.  A map sizes the pool to ``min(jobs, units)``
and replaces it only when it needs more workers than the pool has; the
old pool finishes the units already queued on it and its workers exit.
Units are deterministic, so when a worker dies mid-map the map
resubmits its unfinished units once on a fresh pool.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
U = TypeVar("U")

#: The shared ``ProcessPoolExecutor``, or None.  One ``repro`` sweep
#: invocation runs many tables back to back; a pool rebuilt per table
#: paid fork + cold caches every time, which is what made ``--jobs 2``
#: lose to ``--jobs 1`` in earlier BENCH_interpreter.json snapshots.
_POOL = None

#: Serializes choosing or replacing the pool and submitting a map's
#: units.  Waiting for results happens outside it, so concurrent maps
#: (the server's job threads) share the pool's queue.
_LOCK = threading.Lock()

#: Maps resubmitted after a worker death since the pool was last retired.
_RETRIES = 0

#: Bumped by every retirement (:func:`drain_pool`, :func:`shutdown_pool`):
#: a map whose pool broke after one re-raises instead of retrying, so an
#: abort stays an abort.
_RETIREMENTS = 0


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


def _init_worker() -> None:
    """Signal setup of every pool worker.

    A terminal Ctrl-C delivers SIGINT to the whole foreground process
    group, which would kill workers mid-unit *before* the parent's
    cleanup ran.  Workers ignore SIGINT; the parent owns interrupt
    cleanup and retires them.  A forked worker also inherits the
    parent's SIGTERM handler and signal wakeup fd (``repro serve``'s,
    the CLI's): reset both, so terminate() gets the default action and a
    signal sent to a worker never wakes the parent.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)


def _pool(workers: int):
    """The shared pool, replaced when it is broken or has fewer than
    ``workers`` workers.  The caller holds ``_LOCK``."""
    global _POOL
    if _POOL is None or _POOL._broken or _POOL._max_workers < workers:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if _POOL is not None:
            # units other maps queued on it still run to the end
            _POOL.shutdown(wait=False)
        _POOL = ProcessPoolExecutor(
            workers,
            # AddressSpace maps MAP_PRIVATE memory, so every platform
            # that can run a session is POSIX and has fork.
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
        )
    return _POOL


def _retire():
    """Detach the shared pool (None when there was none)."""
    global _POOL, _RETIREMENTS, _RETRIES
    with _LOCK:
        pool, _POOL = _POOL, None
        _RETIREMENTS += 1
        _RETRIES = 0
    return pool


def drain_pool(timeout: float = 30.0) -> None:
    """Gracefully retire the shared pool.

    Units no worker has picked up are cancelled; workers finish the
    ones they hold and exit.  A worker still alive at ``timeout`` is
    wedged and gets terminated.
    """
    pool = _retire()
    if pool is None:
        return
    processes = list(pool._processes.values())
    pool.shutdown(wait=False, cancel_futures=True)
    deadline = time.monotonic() + timeout
    for process in processes:
        process.join(max(deadline - time.monotonic(), 0.0))
        if process.is_alive():
            process.terminate()
            process.join()


def shutdown_pool() -> None:
    """Hard-stop the shared pool: terminate every worker now.

    For interrupts, the server's aborted drain and test isolation.  A
    map still waiting on the pool raises rather than retrying.
    """
    pool = _retire()
    if "multiprocessing" not in sys.modules:
        return  # no pool was ever started
    import multiprocessing

    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)
    children = multiprocessing.active_children()
    for process in children:
        process.terminate()
    for process in children:
        process.join()


def fabric_stats() -> Optional[dict]:
    """Size, worker pids and retry count of the shared pool (None when
    there is no pool)."""
    with _LOCK:
        if _POOL is None:
            return None
        return {
            "workers": _POOL._max_workers,
            "pids": sorted(_POOL._processes.copy()),
            "retries": _RETRIES,
        }


def parallel_map(
    worker: Callable[[T], U], payloads: Sequence[T], jobs: Optional[int]
) -> List[U]:
    """Ordered map over ``payloads`` on up to ``jobs`` pool workers.

    ``jobs`` of None/0/1 (or a single payload) runs inline.  Workers
    must be module-level functions and payloads picklable.  Results come
    back in submission order regardless of completion order, which is
    what makes parallel table sweeps deterministic.  A worker exception
    cancels the map's queued units and propagates.  A worker death
    resubmits the unfinished units once on a fresh pool; a second death,
    or one after the pool was retired, raises ``BrokenProcessPool``.
    """
    global _RETRIES
    payloads = list(payloads)
    jobs = max(int(jobs or 1), 1)
    if jobs == 1 or len(payloads) <= 1:
        return [worker(payload) for payload in payloads]
    from concurrent.futures.process import BrokenProcessPool

    workers = min(jobs, len(payloads))
    results = {}
    todo = list(range(len(payloads)))
    retried = False
    while True:
        futures = []
        try:
            with _LOCK:
                retirements = _RETIREMENTS
                pool = _pool(workers)
                for index in todo:
                    futures.append(
                        (index, pool.submit(worker, payloads[index]))
                    )
            for index, future in futures:
                results[index] = future.result()
            return [results[index] for index in range(len(payloads))]
        except BrokenProcessPool:
            with _LOCK:
                if retried or _RETIREMENTS != retirements:
                    raise
                _RETRIES += 1
            retried = True
            for index, future in futures:
                if future.done() and future.exception() is None:
                    results[index] = future.result()
            todo = [index for index in todo if index not in results]
        except BaseException:
            for _, future in futures:
                future.cancel()
            raise


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


#: Spans per worker when slicing for the pool: finer-grained than one
#: span per worker, so the shared queue keeps every worker busy when one
#: slice straggles.  Results stay byte-identical for any granularity
#: because spans are merged back in ascending submission order.
STEAL_GRANULARITY = 4


def steal_spans(total: int, jobs: int) -> List[tuple]:
    """Contiguous spans that balance a shared queue: ``jobs * 4`` slices.

    ``jobs <= 1`` degrades to a single span (the inline path).
    """
    jobs = max(int(jobs or 1), 1)
    if jobs == 1:
        return chunk_ranges(total, 1)
    return chunk_ranges(total, jobs * STEAL_GRANULARITY)


def map_specs(worker, measure, programs, args, jobs) -> list:
    """``measure(spec, *args)`` for every SPEC proxy, in order.

    Registry proxies run as ``worker((name, *args))`` units; other
    programs run inline, since workers rebuild programs by name.
    """
    from ..workloads.spec import SPEC_BY_NAME

    if all(SPEC_BY_NAME.get(spec.name) is spec for spec in programs):
        return parallel_map(
            worker, [(spec.name, *args) for spec in programs], jobs
        )
    return [measure(spec, *args) for spec in programs]


# ----------------------------------------------------------------------
# module-level workers (the pool pickles them by reference)
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

    The suite is generated once per worker process (persistent pool
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
