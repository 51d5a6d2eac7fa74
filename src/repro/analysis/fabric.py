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

* **Inline result transport.**  Each worker posts its events —
  pickled results included — on its own pipe, whose write end only that
  worker holds.  A worker that dies, even halfway through a large
  result, therefore reads as end-of-file (a :class:`FabricError`), never
  as a torn frame the parent would wait on forever.  Table 2 rows pickle
  to 63 KB on average and 909 KB at most, more than a pipe buffers, so
  whoever waits for a worker to exit keeps reading its pipe meanwhile.
  The fabric keeps no ``/dev/shm`` state to leak.

Work units are dispatched *by reference* (``module:qualname`` of a
module-level worker function) plus a small picklable payload, exactly
like the old pool — workers rebuild programs locally from the canonical
registries, so nothing heavyweight ever crosses the pipe.
"""

from __future__ import annotations

import importlib
import os
import signal
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


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
      event pipes that no ``map`` call will ever collect (an aborted
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


def _worker_main(worker_id: int, inbox, outbox) -> None:
    """The long-lived worker loop: run units until told to stop."""
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group, which would kill workers mid-unit *before* the parent's
    # cleanup ran.  Workers ignore SIGINT; the parent owns interrupt
    # cleanup and retires them via ``stop`` or terminate().
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

            outbox.send(
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
            outbox.send(("error", worker_id, seq, traceback.format_exc()))
            continue
        finally:
            units_executed += 1
        outbox.send(("result", worker_id, seq, result))


class ExecutionFabric:
    """A persistent set of worker processes plus their dispatch state."""

    def __init__(self, workers: int):
        import multiprocessing

        self.workers = workers
        # AddressSpace maps MAP_PRIVATE memory, so every platform that
        # can run a session is POSIX and has fork.
        self._context = multiprocessing.get_context("fork")
        self._inboxes = [self._context.SimpleQueue() for _ in range(workers)]
        #: worker id -> the read end of that worker's event pipe.  The
        #: parent closes each write end once its worker has forked, and
        #: later workers fork after that, so a worker's exit is EOF.
        self._outboxes = []
        self._processes = []
        for wid in range(workers):
            reader, writer = self._context.Pipe(duplex=False)
            process = self._context.Process(
                target=_worker_main,
                args=(wid, self._inboxes[wid], writer),
                daemon=True,
                name=f"repro-fabric-{wid}",
            )
            process.start()
            writer.close()
            self._outboxes.append(reader)
            self._processes.append(process)
        self._idle = set(range(workers))
        self._scheduler = _Scheduler(workers)
        #: worker id -> the (seq, ref, payload) unit it is executing;
        #: drain() turns leftovers into the DrainReport's lost_units.
        self._inflight: Dict[int, tuple] = {}
        #: the worker whose pipe a read is under way on (see _receive)
        self._receiving: Optional[int] = None
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
                results[message[2]] = message[3]
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
        """Next worker event, watching for workers that died."""
        # imported here, like multiprocessing itself in __init__, so a
        # process that never starts a fabric never loads it
        from multiprocessing.connection import wait

        while True:
            ready = wait(self._outboxes, timeout)
            dead = []
            for conn in ready:
                worker_id = self._outboxes.index(conn)
                message = self._receive(worker_id)
                if message is not None:
                    return message
                dead.append(self._processes[worker_id].name)
            if not ready:
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

    def _receive(self, worker_id: int):
        """One event from a worker's pipe, or None once its worker is gone.

        ``_receiving`` stays set if an exception (Ctrl-C, the CLI's
        SIGTERM exit) interrupts the read, which tells :meth:`drain`
        that the pipe now starts mid-frame.
        """
        self._receiving = worker_id
        try:
            message = self._outboxes[worker_id].recv()
        except (EOFError, OSError):  # OSError: EOF inside a frame
            message = None
        self._receiving = None
        return message

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
        }

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 30.0) -> DrainReport:
        """Graceful shutdown: let every worker finish and exit cleanly.

        This is the *invalidation* path (a map needs more workers): no
        in-flight unit is killed unless its worker ignores ``stop`` past
        ``timeout`` or an interrupted read left its result half-read.
        The returned
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
        waiting = set(range(self.workers))
        torn = self._receiving
        if torn is not None:
            # an interrupted read: the rest of that frame is unreadable,
            # so the unit it carried is lost and its worker is killed
            self._processes[torn].terminate()
            waiting.discard(torn)
        # Keep reading while the workers exit: a worker blocks writing a
        # result larger than the pipe buffer until someone reads it, so
        # joining first would deadlock.  Events read here are results no
        # map will claim; the worker is done once its pipe reads EOF.
        from multiprocessing.connection import wait

        deadline = time.monotonic() + timeout
        while waiting and time.monotonic() < deadline:
            ready = wait(
                [self._outboxes[wid] for wid in waiting],
                min(deadline - time.monotonic(), 0.1),
            )
            for worker_id in sorted(waiting):
                conn = self._outboxes[worker_id]
                if conn in ready:
                    message = self._receive(worker_id)
                    if message is None:
                        waiting.discard(worker_id)
                    elif message[0] in ("result", "error"):
                        self._inflight.pop(worker_id, None)
                        report.unclaimed_results += 1
                elif not (
                    self._processes[worker_id].is_alive() or conn.poll()
                ):
                    # exited with an empty pipe whose EOF is held back
                    # by another process that inherited the write end
                    waiting.discard(worker_id)
        for worker_id in sorted(waiting):
            process = self._processes[worker_id]
            if process.is_alive():
                report.stuck_workers.append(process.name)
                process.terminate()
        for process in self._processes:
            process.join()
        for conn in self._outboxes:
            conn.close()
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
        for conn in self._outboxes:
            conn.close()
        self._inflight.clear()

    @property
    def processes(self) -> list:
        """The worker ``Process`` objects (tests inspect exit codes)."""
        return list(self._processes)
