"""Job manager: lifecycle, store, cancellation, graceful drain.

Jobs move ``queued → running → done | failed | cancelled``.  Job
bodies are synchronous sanitizer work; each runs on a thread of a
``ThreadPoolExecutor`` with ``max_concurrency`` workers, which is the
concurrency bound, while the HTTP server's own threads keep serving
status reads and new submissions.  Real parallelism inside a job comes
from the persistent execution fabric (``--jobs`` style), not from the
thread pool.

Cancellation is cooperative: every job carries a ``threading.Event``
and the services poll it between work units (fuzz spans, sweep rows).
``DELETE /jobs/{id}`` flips the event; a queued job dies before it
starts, a running one raises :class:`JobCancelled` at its next
checkpoint.

Graceful shutdown (:meth:`JobManager.shutdown`, run by both ``repro
serve``'s signal handler and the test client's exit): stop accepting,
cancel queued jobs, give running jobs ``drain_timeout`` seconds, then
cancel them too — and finally drain the shared execution fabric so
worker processes exit cleanly and their shared-memory scratch segments
are released.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
import traceback
import uuid
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from .config import ServerConfig
from .http import HTTPError


class JobCancelled(Exception):
    """Raised by a service at a cancellation checkpoint."""


class JobStatus(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL = (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


@dataclass
class Job:
    """One unit of control-plane work and everything it produced."""

    id: str
    kind: str
    request: Dict[str, Any]
    status: JobStatus = JobStatus.QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Append-only event feed ({seq, time, type, ...}); appended under
    #: ``changed``, which wakes every follower of the feed.
    events: List[Dict[str, Any]] = field(default_factory=list)
    changed: threading.Condition = field(default_factory=threading.Condition)
    cancel_event: threading.Event = field(default_factory=threading.Event)
    _event_seq: "itertools.count" = field(default_factory=itertools.count)

    @property
    def is_terminal(self) -> bool:
        return self.status in TERMINAL

    def post_event(self, event_type: str, **data) -> None:
        with self.changed:
            self.events.append(
                {
                    "seq": next(self._event_seq),
                    "time": time.time(),
                    "type": event_type,
                    **data,
                }
            )
            self.changed.notify_all()

    def set_status(self, status: JobStatus) -> None:
        """Move to ``status`` and post its event in one step, so no
        follower sees a settled job whose last event is missing."""
        with self.changed:
            self.status = status
            if status is JobStatus.RUNNING:
                self.started_at = time.time()
            elif status in TERMINAL:
                self.finished_at = time.time()
            self.post_event("status", status=status.value)

    def summary(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status.value,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    def detail(self) -> Dict[str, Any]:
        payload = self.summary()
        payload.update(
            {
                "request": self.request,
                "error": self.error,
                "result": self.result,
                "events": len(self.events),
            }
        )
        return payload


class JobContext:
    """What a service sees of its job (thread side)."""

    def __init__(self, job: Job):
        self.job = job

    def check_cancelled(self) -> None:
        """Cancellation checkpoint; call between work units."""
        if self.job.cancel_event.is_set():
            raise JobCancelled(self.job.id)

    def progress(self, message: str, **data) -> None:
        self.job.post_event("progress", message=message, **data)


class JobManager:
    """Owns the job store, the worker threads, and shutdown order."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.jobs: Dict[str, Job] = {}
        self.accepting = True
        self._lock = threading.Lock()  # the store; handlers are threads
        self._futures: set = set()
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_concurrency,
            thread_name_prefix="repro-job",
        )

    def shutdown(self) -> None:
        """Graceful drain; see the module docstring for the order."""
        with self._lock:
            self.accepting = False
            futures = set(self._futures)
        for job in self.snapshot():
            if job.status is JobStatus.QUEUED:
                job.cancel_event.set()
        _, pending = wait(futures, timeout=self.config.drain_timeout)
        if pending:
            for job in self.snapshot():
                if not job.is_terminal:
                    job.cancel_event.set()
            wait(pending, timeout=self.config.drain_timeout)
        self._executor.shutdown(wait=True, cancel_futures=True)
        from ..analysis.parallel import drain_pool

        drain_pool()

    # ------------------------------------------------------------------
    # submission + execution
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        request: Dict[str, Any],
        runner: Callable[[JobContext], Dict[str, Any]],
    ) -> Job:
        """Register a job and schedule it; returns immediately."""
        with self._lock:
            if not self.accepting:
                raise HTTPError(503, "server is shutting down")
            self._evict_terminal()
            job = Job(id=uuid.uuid4().hex[:12], kind=kind, request=request)
            self.jobs[job.id] = job
            job.post_event("status", status=job.status.value)
            future = self._executor.submit(self._drive, job, runner)
            self._futures.add(future)
        future.add_done_callback(self._futures.discard)
        return job

    def _drive(self, job: Job, runner) -> None:
        if job.cancel_event.is_set():
            job.set_status(JobStatus.CANCELLED)
            return
        job.set_status(JobStatus.RUNNING)
        try:
            job.result = runner(JobContext(job))
        except JobCancelled:
            job.set_status(JobStatus.CANCELLED)
        except Exception:  # noqa: BLE001 - job bodies report, not raise
            job.error = traceback.format_exc()
            job.set_status(JobStatus.FAILED)
        else:
            job.set_status(JobStatus.DONE)

    def _evict_terminal(self) -> None:
        """Bound the store: oldest terminal jobs fall out first."""
        overflow = len(self.jobs) - self.config.max_retained_jobs + 1
        if overflow <= 0:
            return
        terminal = sorted(
            (job for job in self.jobs.values() if job.is_terminal),
            key=lambda job: job.finished_at or job.created_at,
        )
        for job in terminal[:overflow]:
            del self.jobs[job.id]

    # ------------------------------------------------------------------
    # queries + cancellation
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Job]:
        """Every stored job, in submission order."""
        with self._lock:
            return list(self.jobs.values())

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise HTTPError(404, f"no such job {job_id!r}") from None

    def cancel(self, job: Job) -> bool:
        """Request cancellation; False when the job already finished."""
        if job.is_terminal:
            return False
        job.cancel_event.set()
        job.post_event("cancel_requested")
        return True

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {status.value: 0 for status in JobStatus}
        for job in self.snapshot():
            counts[job.status.value] += 1
        return counts

    # ------------------------------------------------------------------
    # event streaming
    # ------------------------------------------------------------------
    def follow_events(self, job: Job, after: int = -1) -> Iterator[dict]:
        """Yield events (dicts) past ``after`` until the job settles.

        Terminal jobs replay and return; live jobs are followed by
        waiting on the job's ``changed`` condition.
        """
        index = 0
        while True:
            with job.changed:
                job.changed.wait_for(
                    lambda: index < len(job.events) or job.is_terminal
                )
                batch = job.events[index:]
                settled = job.is_terminal
            index += len(batch)
            for event in batch:
                if event["seq"] > after:
                    yield event
            if settled:
                return
