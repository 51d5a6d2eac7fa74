"""The persistent process pool behind ``--jobs``: reuse and lifecycle.

That every table and fuzz sweep comes out the same at any ``jobs`` is
the configuration-matrix harness's study-level check
(:mod:`test_config_matrix`).  Here:

(a) **Persistent workers** — consecutive tables reuse the same worker
    processes; the pool is never larger than a map's unit count and is
    replaced only when a map needs more workers than it has.
(b) **Lifecycle** — worker exceptions propagate, a dead worker's units
    are retried once, a drain terminates a wedged worker at its timeout
    instead of hanging, and a worker that ignores SIGTERM is killed.
"""

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis import run_overhead_study
from repro.analysis.detection import run_linux_flaw_study
from repro.analysis import parallel
from repro.analysis.parallel import (
    default_jobs,
    fabric_stats,
    figure10_worker,
    parallel_map,
    shutdown_pool,
    steal_spans,
)
from repro.runtime import ExecConfig

#: Hand-built payloads carry the default cell.
CONFIG = ExecConfig()


def _units(*names, config=CONFIG):
    """figure10_worker payloads at scale 2."""
    return [(name, 2, config) for name in names]


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without a live pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _pool_processes():
    """The live pool's worker ``Process`` objects."""
    return list(parallel._POOL._processes.values())


def _wait_exitcode(process, timeout=10.0):
    """``process.exitcode`` once it has exited (the pool's manager
    thread may be the one that reaps it)."""
    deadline = time.monotonic() + timeout
    while process.exitcode is None and time.monotonic() < deadline:
        process.join(0.05)
    return process.exitcode


class TestSpans:
    def test_steal_spans_cover_range_in_order(self):
        for total, jobs in [(449, 3), (7, 4), (1, 2), (0, 2), (24, 1)]:
            spans = steal_spans(total, jobs)
            covered = [i for lo, hi in spans for i in range(lo, hi)]
            assert covered == list(range(total))
        # jobs=1 degrades to a single span (the inline path)
        assert steal_spans(100, 1) == [(0, 100)]
        # jobs>1 overpartitions so the shared queue can balance a straggler
        assert len(steal_spans(100, 2)) > 2


class TestWarmCaches:
    def test_same_fabric_survives_consecutive_tables(self):
        run_overhead_study(scale=2, jobs=2)
        first, pids = parallel._POOL, fabric_stats()["pids"]
        assert first is not None
        assert len(pids) == 2  # two live, distinct worker processes
        run_linux_flaw_study(jobs=2)
        assert parallel._POOL is first
        assert fabric_stats()["pids"] == pids


class TestLifecycle:
    def test_config_change_reuses_fabric(self):
        pool = None
        for config in (ExecConfig(fastpath=False, memoize=False),
                       ExecConfig()):
            units = _units("505.mcf_r", "519.lbm_r", config=config)
            results = parallel_map(figure10_worker, units, 2)
            pool = pool or parallel._POOL
            assert parallel._POOL is pool
            assert results == [figure10_worker(unit) for unit in units]

    def test_worker_count_change_drains_gracefully(self):
        parallel_map(figure10_worker, _units("505.mcf_r", "519.lbm_r"), 2)
        old, processes = parallel._POOL, _pool_processes()
        assert old is not None
        parallel_map(
            figure10_worker,
            _units("505.mcf_r", "519.lbm_r", "531.deepsjeng_r"),
            3,
        )
        assert parallel._POOL is not old
        assert fabric_stats()["workers"] == 3
        # replaced, not terminated: every old worker exited cleanly
        assert [_wait_exitcode(p) for p in processes] == [0, 0]

    def test_fewer_workers_share_fabric_concurrently(self):
        units = _units("505.mcf_r", "519.lbm_r", "531.deepsjeng_r")
        expected = [figure10_worker(unit) for unit in units]
        assert parallel_map(figure10_worker, units, 3) == expected
        pool, results = parallel._POOL, {}
        assert parallel_map(figure10_worker, units, 2) == expected

        def job(jobs):  # two concurrent jobs share the pool's queue
            results[jobs] = [
                parallel_map(figure10_worker, units, jobs) for _ in range(3)
            ]

        threads = [threading.Thread(target=job, args=(n,)) for n in (2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {2: [expected] * 3, 3: [expected] * 3}
        # a map needing no more workers never replaces the pool
        assert parallel._POOL is pool
        assert all(p.exitcode is None for p in _pool_processes())

    def test_shutdown_pool_is_idempotent(self):
        parallel_map(figure10_worker, _units("505.mcf_r", "519.lbm_r"), 2)
        shutdown_pool()
        shutdown_pool()
        assert fabric_stats() is None
        parallel.drain_pool()  # no pool: a no-op

    def test_worker_exception_propagates_and_fabric_recovers(self):
        with pytest.raises(Exception) as excinfo:
            parallel_map(
                figure10_worker,
                _units("505.mcf_r", "no-such-program"),
                2,
            )
        assert "no-such-program" in str(excinfo.value) or "KeyError" in str(
            excinfo.value
        )
        # the pool survives a unit failure and keeps serving
        results = parallel_map(
            figure10_worker, _units("505.mcf_r", "519.lbm_r"), 2
        )
        assert [r.program for r in results] == ["505.mcf_r", "519.lbm_r"]


class TestDefaultJobs:
    def test_respects_cpu_affinity(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no sched_getaffinity on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_jobs() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        def unsupported(pid):
            raise OSError("no affinity")

        monkeypatch.setattr(
            os, "sched_getaffinity", unsupported, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_jobs() == 3

    def test_at_least_one(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(), raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_jobs() >= 1


# ----------------------------------------------------------------------
# worker functions (module-level so the pool can pickle them)
# ----------------------------------------------------------------------
def quick_worker(payload):
    return payload * 2


def rendezvous_worker(payload):
    """Wait until ``count`` workers have each started a unit, so all
    are past their setup; return this worker's pid."""
    directory, count = payload
    open(os.path.join(directory, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 30
    while len(os.listdir(directory)) < count:
        if time.monotonic() > deadline:
            raise TimeoutError("the workers never all started a unit")
        time.sleep(0.01)
    return os.getpid()


def sized_worker(payload):
    """A result of ``payload`` list items (~``payload`` pickled KiB)."""
    return [payload] * (payload * 512)


def sleep_worker(payload):
    """Sleep ``seconds``, first creating ``marker`` (when given) so a
    test can tell that the unit has started."""
    marker, seconds = payload
    if marker:
        open(marker, "w").close()
    time.sleep(seconds)
    return seconds


def die_once_worker(payload):
    """Kill this worker on the first call of all (whoever creates
    ``marker``); double ``value`` on every later call."""
    marker, value = payload
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return value * 2
    os._exit(1)


def die_always_worker(payload):
    os._exit(1)


def deaf_worker(marker):
    """Ignore SIGTERM, as a worker still running the parent's handler
    does, then create ``marker`` and sleep."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    open(marker, "w").close()
    time.sleep(60)


class TestFabricDirect:
    def test_ordered_results_when_units_finish_out_of_order(self):
        # the first unit outlasts the rest, so later units finish first
        payloads = [(None, 0.5), (None, 0.0), (None, 0.0), (None, 0.0)]
        assert parallel_map(sleep_worker, payloads, 2) == [
            0.5, 0.0, 0.0, 0.0
        ]

    def test_more_workers_than_units(self):
        # never more workers than the map has units
        assert parallel_map(quick_worker, [1, 2], 8) == [2, 4]
        stats = fabric_stats()
        assert stats["workers"] == 2
        assert len(stats["pids"]) == 2

    def test_workers_take_the_default_sigterm_action(self, tmp_path):
        # a parent SIGTERM handler (the CLI's, repro serve's) must not
        # survive the fork: SIGTERM kills a worker outright.  Each unit
        # waits for the other, so both workers are past setup: one
        # still starting would ignore the teardown's terminate
        previous = signal.signal(signal.SIGTERM, lambda *args: None)
        try:
            payload = (str(tmp_path), 2)
            pid = parallel_map(rendezvous_worker, [payload] * 2, 2)[0]
        finally:
            signal.signal(signal.SIGTERM, previous)
        worker = parallel._POOL._processes[pid]
        os.kill(pid, signal.SIGTERM)
        assert _wait_exitcode(worker) == -signal.SIGTERM

    def test_large_results_round_trip(self):
        # small results mixed with one that pickles to ~1.8 MB, twice
        # the largest Table 2 row
        payloads = [1, 16, 2, 1200]
        results = parallel_map(sized_worker, payloads, jobs=2)
        assert results == [sized_worker(payload) for payload in payloads]


class TestRetry:
    def test_dead_worker_units_are_retried_once(self, tmp_path):
        marker = str(tmp_path / "died")
        payloads = [(marker, value) for value in range(6)]
        results = parallel_map(die_once_worker, payloads, 2)
        assert results == [value * 2 for value in range(6)]
        assert os.path.exists(marker)  # a worker did die
        assert fabric_stats()["retries"] == 1

    def test_worker_that_always_dies_raises_after_one_retry(self):
        with pytest.raises(BrokenProcessPool):
            parallel_map(die_always_worker, [1, 2], 2)
        assert fabric_stats()["retries"] == 1
        # the next map runs on a fresh pool
        assert parallel_map(quick_worker, [1, 2], 2) == [2, 4]


class TestDrain:
    def test_wedged_worker_terminated_at_drain_timeout(self, tmp_path):
        markers = [str(tmp_path / f"started-{i}") for i in range(2)]
        outcome = {}

        def run():
            try:
                parallel_map(
                    sleep_worker, [(marker, 60.0) for marker in markers], 2
                )
            except BaseException as exc:  # noqa: BLE001 - the assertion
                outcome["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 30
        while not all(os.path.exists(m) for m in markers):
            assert time.monotonic() < deadline, "units never started"
            time.sleep(0.05)
        processes = _pool_processes()
        started = time.monotonic()
        parallel.drain_pool(timeout=0.5)
        assert time.monotonic() - started < 5.0
        assert [_wait_exitcode(p) for p in processes] == [
            -signal.SIGTERM, -signal.SIGTERM
        ]
        # the map the drain retired raises instead of retrying
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), BrokenProcessPool)
        assert fabric_stats() is None


def _await(marker, timeout=30.0):
    """Return once ``marker`` exists: the deaf worker ignores SIGTERM."""
    deadline = time.monotonic() + timeout
    while not marker.exists():
        assert time.monotonic() < deadline, f"{marker.name} never appeared"
        time.sleep(0.01)


class TestDeafWorkers:
    """Teardown joins with a bound: a worker that ignores SIGTERM is
    killed after the grace instead of hanging the parent."""

    def test_shutdown_pool_kills_a_child_that_ignores_sigterm(
        self, tmp_path
    ):
        marker = tmp_path / "deaf"
        child = multiprocessing.get_context("fork").Process(
            target=deaf_worker, args=(str(marker),), daemon=True
        )
        child.start()
        _await(marker)
        started = time.monotonic()
        shutdown_pool()
        assert time.monotonic() - started < parallel.TERMINATE_GRACE + 3
        assert not child.is_alive()
        assert child.exitcode == -signal.SIGKILL

    def test_drain_kills_a_wedged_worker_that_ignores_sigterm(
        self, tmp_path
    ):
        marker = tmp_path / "deaf"
        with parallel._LOCK:
            future = parallel._pool(1).submit(deaf_worker, str(marker))
        _await(marker)
        processes = _pool_processes()
        started = time.monotonic()
        parallel.drain_pool(timeout=0.2)
        assert time.monotonic() - started < parallel.TERMINATE_GRACE + 3
        assert [_wait_exitcode(p) for p in processes] == [-signal.SIGKILL]
        with pytest.raises(BrokenProcessPool):
            future.result(timeout=10)


class TestConcurrentParallelMap:
    def test_concurrent_maps_from_threads_serialize_correctly(self):
        """Server job threads share one pool; results must not mix."""
        outcomes = {}
        errors = []

        def run(label, payloads):
            try:
                outcomes[label] = parallel_map(quick_worker, payloads, jobs=2)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append((label, exc))

        threads = [
            threading.Thread(target=run, args=(label, list(range(i, i + 8))))
            for i, label in enumerate(["a", "b", "c", "d"])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        for i, label in enumerate(["a", "b", "c", "d"]):
            assert outcomes[label] == [p * 2 for p in range(i, i + 8)]
        stats = fabric_stats()
        assert stats is not None
        assert stats["workers"] == 2
        assert stats["retries"] == 0
