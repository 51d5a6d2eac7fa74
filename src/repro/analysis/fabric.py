"""Persistent sharded execution fabric.

The per-sweep ``multiprocessing.Pool`` paid process spawn plus cold
instrumentation/compilation caches for every table, which is why
``--jobs 2`` trailed the single-process compiled engine on small boxes
(see BENCH_interpreter.json history).  This module replaces it with a
fabric of *long-lived* worker processes that a whole ``repro``
invocation shares:

* **Persistent workers.**  Workers survive across ``map`` calls, so the
  instrumentation memo cache (:mod:`repro.passes.instrument`) and the
  compiled closures memoized on the cached programs stay warm from one
  table to the next.  Work units carry their execution config in the
  payload, and a map may run on just the first ``workers`` workers, so
  only a request for more workers than it has retires a fabric — and
  that retirement *drains* (finish in-flight units, then exit) rather
  than terminating mid-unit.

* **Sharded dispatch with work stealing.**  Every work unit carries a
  shard key (typically the program name); a deterministic CRC of the key
  pins each shard to a home worker so repeated sweeps over the same
  programs land on the same warm caches.  An idle worker whose own
  shards are empty *steals* from the shard with the most pending units,
  so a straggler slice (magma/juliet) never serializes the sweep.
  Results are reassembled in submission order, which keeps parallel runs
  byte-identical to ``--jobs 1`` no matter who ran what.

* **Shared-memory result transport.**  Each worker owns a
  :class:`multiprocessing.shared_memory.SharedMemory` scratch segment,
  created before the fork so children inherit the mapping directly
  (no name re-attach, no resource-tracker churn).  Workers serialize
  results into their segment and post only ``(seq, length)`` over the
  event queue; the parent deserializes straight out of the shared
  buffer.  Oversized results fall back to inline queue transport.
  Since the scheduler keeps at most one unit in flight per worker and
  assigns the next unit only after consuming the previous result, the
  segment needs no further synchronization.

Work units are dispatched *by reference* (``module:qualname`` of a
module-level worker function) plus a small picklable payload, exactly
like the old pool — workers rebuild programs locally from the canonical
registries, so nothing heavyweight ever crosses the pipe.
"""

from __future__ import annotations

import importlib
import os
import pickle
import queue as queue_module
import signal
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: Size of each worker's shared-memory scratch segment.  Table
#: rows (RunResult bundles) pickle to a few hundred KiB at most; results
#: that outgrow the segment transparently fall back to queue transport.
DEFAULT_SCRATCH_BYTES = 1 << 20


def worker_ref(func: Callable) -> str:
    """The ``module:qualname`` reference a work unit dispatches by."""
    return f"{func.__module__}:{func.__qualname__}"


def _resolve_worker(ref: str, _cache: Dict[str, Callable] = {}) -> Callable:
    """Import-resolve a worker reference (memoized per process)."""
    func = _cache.get(ref)
    if func is None:
        module_name, _, qualname = ref.partition(":")
        func = importlib.import_module(module_name)
        for part in qualname.split("."):
            func = getattr(func, part)
        _cache[ref] = func
    return func


def shard_slot(key, workers: int) -> int:
    """Deterministic home worker for a shard key.

    ``zlib.crc32`` over the key's ``repr`` — stable across processes and
    runs (unlike ``hash()`` under hash randomization), so consecutive
    sweeps pin the same programs to the same warm workers.
    """
    return zlib.crc32(repr(key).encode("utf-8")) % max(workers, 1)


class FabricError(RuntimeError):
    """A work unit raised inside a fabric worker."""


@dataclass
class DrainReport:
    """What a graceful :meth:`ExecutionFabric.drain` actually observed.

    A clean drain between maps loses nothing.  But a drain that hits a
    wedged worker used to terminate it and *silently discard* whatever
    unit that worker was executing — the caller had no way to know its
    sweep was missing results.  The report makes every loss explicit:

    * ``stuck_workers`` — workers that ignored ``stop`` past the
      timeout and had to be terminated;
    * ``lost_units`` — in-flight units those workers took down with
      them (``{worker, seq, ref}``), so a caller can re-queue them;
    * ``unclaimed_results`` — finished results still sitting in the
      event queue that no ``map`` call will ever collect (an aborted
      map's leftovers);
    * ``pending_units`` — scheduler units that were never dispatched.
    """

    stuck_workers: List[str] = field(default_factory=list)
    lost_units: List[dict] = field(default_factory=list)
    unclaimed_results: int = 0
    pending_units: int = 0

    @property
    def clean(self) -> bool:
        return not (
            self.stuck_workers
            or self.lost_units
            or self.unclaimed_results
            or self.pending_units
        )

    def as_dict(self) -> dict:
        return {
            "clean": self.clean,
            "stuck_workers": list(self.stuck_workers),
            "lost_units": [dict(unit) for unit in self.lost_units],
            "unclaimed_results": self.unclaimed_results,
            "pending_units": self.pending_units,
        }


class _Scheduler:
    """Pending units grouped by shard, with affinity-first dispatch.

    ``take(worker_id)`` prefers a shard homed on that worker; when the
    worker's own shards are dry it steals from the shard with the most
    pending units, which is exactly the straggler that would otherwise
    serialize the tail of the sweep.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._shards: Dict[object, List[tuple]] = {}
        self.steals = 0
        self.dispatched = 0

    def submit(self, units: Sequence[tuple], shard_keys: Sequence) -> None:
        for unit, key in zip(units, shard_keys):
            self._shards.setdefault(key, []).append(unit)

    @property
    def pending(self) -> int:
        return sum(len(units) for units in self._shards.values())

    def take(self, worker_id: int) -> Optional[tuple]:
        """The next unit for ``worker_id``, or None when none remain."""
        home = victim = None
        for key, units in self._shards.items():
            if not units:
                continue
            if shard_slot(key, self.workers) == worker_id:
                home = key
                break
            if victim is None or len(units) > len(self._shards[victim]):
                victim = key
        key = home if home is not None else victim
        if key is None:
            return None
        if home is None:
            self.steals += 1
        self.dispatched += 1
        unit = self._shards[key].pop(0)
        if not self._shards[key]:
            del self._shards[key]
        return unit


def _worker_main(worker_id: int, inbox, events, scratch) -> None:
    """The long-lived worker loop: run units until told to stop."""
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group, which used to kill workers mid-unit *before* the parent's
    # cleanup ran — leaking /dev/shm scratch segments whose unlink raced
    # the dying children.  Workers ignore SIGINT; the parent owns
    # interrupt cleanup and retires them via ``stop`` or terminate().
    # A forked worker also inherits the parent's SIGTERM handler and
    # signal wakeup fd (``repro serve``'s, the CLI's): reset both, so
    # terminate() gets the default action and a signal sent to a worker
    # never wakes the parent.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    units_executed = 0
    while True:
        message = inbox.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "stat":
            from ..passes.instrument import instrumentation_cache_stats

            events.put(
                (
                    "stat",
                    worker_id,
                    {
                        "worker": worker_id,
                        "pid": os.getpid(),
                        "units_executed": units_executed,
                        "instrumentation_cache": instrumentation_cache_stats(),
                    },
                )
            )
            continue
        _, seq, ref, payload = message
        try:
            result = _resolve_worker(ref)(payload)
        except Exception:  # noqa: BLE001 - ship the traceback to the parent
            events.put(("error", worker_id, seq, traceback.format_exc()))
            continue
        finally:
            units_executed += 1
        data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        if scratch is not None and len(data) <= scratch.size:
            scratch.buf[: len(data)] = data
            events.put(("result", worker_id, seq, len(data)))
        else:
            events.put(("result-inline", worker_id, seq, data))


class ExecutionFabric:
    """A persistent set of worker processes plus their dispatch state."""

    def __init__(self, workers: int):
        import multiprocessing

        self.workers = workers
        try:
            self._context = multiprocessing.get_context("fork")
            forked = True
        except ValueError:  # platforms without fork: workers re-import
            self._context = multiprocessing.get_context()
            forked = False
        self._events = self._context.Queue()
        self._inboxes = [self._context.SimpleQueue() for _ in range(workers)]
        # Shared-memory scratch only with fork: children must inherit
        # the mapping (attaching by name from a spawned child would
        # re-register the segment with the resource tracker).
        self._scratch = []
        if forked:
            try:
                from multiprocessing import shared_memory

                for _ in range(workers):
                    self._scratch.append(
                        shared_memory.SharedMemory(
                            create=True, size=DEFAULT_SCRATCH_BYTES
                        )
                    )
            except Exception:  # no /dev/shm etc.: inline transport
                self._release_scratch()
        scratch = self._scratch or [None] * workers
        self._processes = [
            self._context.Process(
                target=_worker_main,
                args=(wid, self._inboxes[wid], self._events, scratch[wid]),
                daemon=True,
                name=f"repro-fabric-{wid}",
            )
            for wid in range(workers)
        ]
        for process in self._processes:
            process.start()
        self._idle = set(range(workers))
        self._scheduler = _Scheduler(workers)
        #: worker id -> the (seq, ref, payload) unit it is executing;
        #: drain() turns leftovers into the DrainReport's lost_units.
        self._inflight: Dict[int, tuple] = {}
        self._closed = False
        self.maps_completed = 0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def map(
        self,
        worker: Callable,
        payloads: Sequence,
        shard_keys: Optional[Sequence] = None,
        workers: Optional[int] = None,
    ) -> List:
        """Ordered map over ``payloads`` across the fabric's first
        ``workers`` workers (all of them by default)."""
        if self._closed:
            raise RuntimeError("fabric has been shut down")
        payloads = list(payloads)
        if shard_keys is None:
            shard_keys = list(range(len(payloads)))
        if len(shard_keys) != len(payloads):
            raise ValueError("shard_keys must align with payloads")
        ref = worker_ref(worker)
        units = [
            (seq, ref, payload) for seq, payload in enumerate(payloads)
        ]
        # The scheduler is empty between maps, so re-homing its shards
        # onto the active workers cannot strand a unit.
        active = min(workers or self.workers, self.workers)
        self._scheduler.workers = active
        self._scheduler.submit(units, shard_keys)
        results: Dict[int, object] = {}
        errors: List[str] = []
        for worker_id in sorted(self._idle):
            if worker_id < active:
                self._assign(worker_id)
        while len(results) + len(errors) < len(payloads):
            message = self._next_event()
            kind, worker_id = message[0], message[1]
            if kind == "result":
                seq, length = message[2], message[3]
                results[seq] = pickle.loads(
                    bytes(self._scratch[worker_id].buf[:length])
                )
            elif kind == "result-inline":
                seq, data = message[2], message[3]
                results[seq] = pickle.loads(data)
            elif kind == "error":
                errors.append(message[3])
            else:  # pragma: no cover - stat replies never interleave
                raise RuntimeError(f"unexpected fabric event {kind!r}")
            self._inflight.pop(worker_id, None)
            self._assign(worker_id)
        self.maps_completed += 1
        if errors:
            raise FabricError(
                f"{len(errors)} work unit(s) failed; first failure:\n"
                + errors[0]
            )
        return [results[seq] for seq in range(len(payloads))]

    def _assign(self, worker_id: int) -> None:
        unit = self._scheduler.take(worker_id)
        if unit is None:
            self._idle.add(worker_id)
            return
        self._idle.discard(worker_id)
        self._inflight[worker_id] = unit
        self._inboxes[worker_id].put(("run",) + unit)

    def _next_event(self, timeout: float = 1.0):
        """Next worker event, watching for silently-dead workers."""
        while True:
            try:
                return self._events.get(timeout=timeout)
            except queue_module.Empty:
                dead = [
                    process.name
                    for process in self._processes
                    if not process.is_alive()
                ]
                if dead:
                    self.terminate()
                    raise FabricError(
                        f"fabric worker(s) died mid-unit: {', '.join(dead)}"
                    )

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def worker_stats(self) -> List[dict]:
        """Per-worker counters (pid, units run, instrumentation cache).

        Only valid between ``map`` calls — workers must be idle so stat
        replies cannot interleave with results.
        """
        if self._closed:
            return []
        for inbox in self._inboxes:
            inbox.put(("stat",))
        stats = []
        while len(stats) < self.workers:
            message = self._next_event()
            if message[0] != "stat":  # pragma: no cover
                raise RuntimeError("stat reply interleaved with results")
            stats.append(message[2])
        return sorted(stats, key=lambda item: item["worker"])

    def stats(self) -> dict:
        """Aggregate dispatch counters for tests and telemetry."""
        return {
            "workers": self.workers,
            "maps_completed": self.maps_completed,
            "units_dispatched": self._scheduler.dispatched,
            "units_stolen": self._scheduler.steals,
            "units_inflight": len(self._inflight),
            "shared_memory": bool(self._scratch),
        }

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 30.0) -> DrainReport:
        """Graceful shutdown: let every worker finish and exit cleanly.

        This is the *invalidation* path (a map needs more workers): no
        in-flight unit is killed unless its worker ignores ``stop`` past
        ``timeout``.  The returned
        :class:`DrainReport` accounts for everything a non-clean drain
        left behind — stuck workers, the in-flight units they dropped,
        results no map will ever claim, and never-dispatched units —
        instead of silently discarding them.
        """
        if self._closed:
            return DrainReport()
        self._closed = True
        report = DrainReport(pending_units=self._scheduler.pending)
        for inbox in self._inboxes:
            inbox.put(("stop",))
        stuck_ids = []
        for worker_id, process in enumerate(self._processes):
            process.join(timeout=timeout)
            if process.is_alive():
                report.stuck_workers.append(process.name)
                stuck_ids.append(worker_id)
                process.terminate()
                process.join()
        # Workers that exited cleanly posted any last result before
        # taking ``stop``; sweep those events so completed units are
        # counted as unclaimed rather than lost.
        while True:
            try:
                message = self._events.get(timeout=0.05)
            except queue_module.Empty:
                break
            if message[0] in ("result", "result-inline", "error"):
                self._inflight.pop(message[1], None)
                report.unclaimed_results += 1
        for worker_id in sorted(self._inflight):
            seq, ref, _payload = self._inflight[worker_id]
            report.lost_units.append(
                {
                    "worker": self._processes[worker_id].name,
                    "seq": seq,
                    "ref": ref,
                }
            )
        self._inflight.clear()
        self._release_scratch()
        return report

    def terminate(self) -> None:
        """Hard shutdown (atexit / worker-death recovery only)."""
        if self._closed:
            return
        self._closed = True
        for process in self._processes:
            process.terminate()
        for process in self._processes:
            process.join()
        self._inflight.clear()
        self._release_scratch()

    def _release_scratch(self) -> None:
        for segment in self._scratch:
            try:
                segment.close()
                segment.unlink()
            except Exception:  # pragma: no cover - already gone
                pass
        self._scratch = []

    @property
    def processes(self) -> list:
        """The worker ``Process`` objects (tests inspect exit codes)."""
        return list(self._processes)
