"""The persistent execution fabric: determinism, warm caches, lifecycle.

Three families of guarantees:

(a) **Byte-identical results** — Table 2 / Table 3 / fuzz sweeps must
    produce exactly the same output for jobs=1, jobs=2, and jobs=4;
    sharding and work stealing may reorder *execution* but never
    results.
(b) **Warm-cache reuse** — consecutive tables on one fabric must hit
    the per-worker instrumentation memo (the whole point of persistent
    workers), observable through the fabric's worker stats.
(c) **Graceful lifecycle** — work units carry their ExecConfig, so a
    config change reuses the live fabric, and so does a map asking for
    fewer workers; only a request for more workers retires it, by
    *draining* (workers exit cleanly, exit code 0), never by killing
    in-flight work.
"""

import os
import signal
import threading
import time

import pytest

from repro.analysis import run_overhead_study
from repro.analysis.detection import run_juliet_study, run_linux_flaw_study
from repro.analysis.fabric import (
    ExecutionFabric,
    FabricError,
    _Scheduler,
    shard_slot,
)
from repro.analysis import parallel
from repro.analysis.parallel import (
    default_jobs,
    fabric_stats,
    figure10_worker,
    parallel_map,
    shutdown_pool,
    steal_spans,
)
from repro.fuzz.driver import fuzz_spans
from repro.runtime import ExecConfig

#: Hand-built payloads carry the environment's config (CI matrix).
CONFIG = ExecConfig.from_env()


def _units(*names, config=CONFIG):
    """figure10_worker payloads at scale 2."""
    return [(name, 2, config) for name in names]


@pytest.fixture(autouse=True)
def _fresh_fabric():
    """Each test starts and ends without a live fabric."""
    shutdown_pool()
    yield
    shutdown_pool()


def _overhead_fingerprint(study):
    return [
        (row.program, row.native_cycles, row.ratios) for row in study.rows
    ]


class TestByteIdenticalResults:
    def test_table2_jobs_matrix(self):
        reference = None
        for jobs in (1, 2, 4):
            study = run_overhead_study(scale=2, jobs=jobs)
            fingerprint = _overhead_fingerprint(study)
            if reference is None:
                reference = fingerprint
            else:
                assert fingerprint == reference, f"jobs={jobs} diverged"

    def test_juliet_jobs_matrix(self):
        reference = None
        for jobs in (1, 2, 4):
            results = run_juliet_study(jobs=jobs)
            fingerprint = (
                results.detected,
                results.totals,
                results.false_positives,
                results.latent,
            )
            if reference is None:
                reference = fingerprint
            else:
                assert fingerprint == reference, f"jobs={jobs} diverged"

    def test_linux_flaw_jobs_matrix(self):
        reference = None
        for jobs in (1, 2):
            results = run_linux_flaw_study(jobs=jobs)
            if reference is None:
                reference = results.outcomes
            else:
                assert results.outcomes == reference

    def test_fuzz_jobs_matrix(self):
        def sweep(jobs):
            summary = fuzz_spans(
                steal_spans(60, jobs), jobs, 11, 0.55, False, False, CONFIG
            )
            return (
                summary.cases,
                summary.buggy_cases,
                summary.invariant_checks,
                summary.findings,
            )

        reference = sweep(1)
        for jobs in (2, 4):
            assert sweep(jobs) == reference, f"jobs={jobs} diverged"

    def test_steal_spans_cover_range_in_order(self):
        for total, jobs in [(449, 3), (7, 4), (1, 2), (0, 2), (24, 1)]:
            spans = steal_spans(total, jobs)
            covered = [i for lo, hi in spans for i in range(lo, hi)]
            assert covered == list(range(total))
        # jobs=1 degrades to a single span (the inline path)
        assert steal_spans(100, 1) == [(0, 100)]
        # jobs>1 overpartitions so stealing has units to move
        assert len(steal_spans(100, 2)) > 2


class TestWarmCaches:
    @staticmethod
    def _distinct_home_programs():
        """Two SPEC proxies homed on different workers of a 2-fabric.

        One unit per worker at kickoff means no stealing can occur, so
        shard placement — and therefore which worker instruments what —
        is fully deterministic.
        """
        from repro.workloads.spec import SPEC_TABLE2_ROWS

        by_slot = {}
        for spec in SPEC_TABLE2_ROWS:
            by_slot.setdefault(shard_slot(spec.name, 2), spec)
            if len(by_slot) == 2:
                break
        return [by_slot[0], by_slot[1]]

    def test_instrumentation_memo_reused_across_tables(self):
        from repro.analysis.figures import run_figure10_study

        programs = self._distinct_home_programs()
        # the memo is what is under test: pin it on whatever the
        # environment says, and take every other switch from there
        config = ExecConfig.from_env(memoize=True)
        # table 2 over two proxies: cold workers instrument everything
        run_overhead_study(programs=programs, scale=2, jobs=2, config=config)
        stats_cold = fabric_stats()
        assert stats_cold is not None
        cold_hits = sum(
            w["instrumentation_cache"]["hits"]
            for w in stats_cold["worker_stats"]
        )
        cold_misses = sum(
            w["instrumentation_cache"]["misses"]
            for w in stats_cold["worker_stats"]
        )
        assert cold_misses > 0
        # figure 10 over the same proxies rides the same fabric: the
        # GiantSan instrumentation each worker needs is already in its
        # memo, so hits grow and misses do not
        run_figure10_study(programs=programs, scale=2, jobs=2, config=config)
        stats_warm = fabric_stats()
        assert stats_warm["maps_completed"] == 2
        warm_hits = sum(
            w["instrumentation_cache"]["hits"]
            for w in stats_warm["worker_stats"]
        )
        warm_misses = sum(
            w["instrumentation_cache"]["misses"]
            for w in stats_warm["worker_stats"]
        )
        assert warm_hits > cold_hits
        assert warm_misses == cold_misses

    def test_same_fabric_survives_consecutive_tables(self):
        run_overhead_study(scale=2, jobs=2)
        first = parallel._FABRIC
        assert first is not None
        run_linux_flaw_study(jobs=2)
        assert parallel._FABRIC is first
        pids = {w["pid"] for w in fabric_stats()["worker_stats"]}
        assert len(pids) == 2  # two live, distinct worker processes


class TestLifecycle:
    def test_config_change_reuses_fabric(self):
        fabric = None
        for config in (ExecConfig(fastpath=False, memoize=False),
                       ExecConfig()):
            units = _units("505.mcf_r", "519.lbm_r", config=config)
            results = parallel_map(figure10_worker, units, 2)
            fabric = fabric or parallel._FABRIC
            assert parallel._FABRIC is fabric
            assert results == [figure10_worker(unit) for unit in units]

    def test_worker_count_change_drains_gracefully(self):
        parallel_map(figure10_worker, _units("505.mcf_r", "519.lbm_r"), 2)
        old = parallel._FABRIC
        assert old is not None
        parallel_map(figure10_worker, _units("505.mcf_r", "519.lbm_r"), 3)
        assert parallel._FABRIC is not old
        # drained, not terminated: every worker exited cleanly
        assert [p.exitcode for p in old.processes] == [0, 0]

    def test_fewer_workers_share_fabric_concurrently(self):
        units = _units("505.mcf_r", "519.lbm_r", "531.deepsjeng_r")
        expected = [figure10_worker(unit) for unit in units]
        assert parallel_map(figure10_worker, units, 3) == expected
        fabric, results = parallel._FABRIC, {}
        idle = fabric_stats()["worker_stats"][2]["units_executed"]
        assert parallel_map(figure10_worker, units, 2) == expected
        # a jobs=2 map runs on the first two workers only
        assert fabric_stats()["worker_stats"][2]["units_executed"] == idle

        def job(jobs):  # two concurrent jobs take turns map by map
            results[jobs] = [
                parallel_map(figure10_worker, units, jobs) for _ in range(3)
            ]

        threads = [threading.Thread(target=job, args=(n,)) for n in (2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {2: [expected] * 3, 3: [expected] * 3}
        # no drain between the jobs' maps: the same live workers
        assert parallel._FABRIC is fabric
        assert all(p.exitcode is None for p in fabric.processes)

    def test_shutdown_pool_is_idempotent(self):
        parallel_map(figure10_worker, _units("505.mcf_r", "519.lbm_r"), 2)
        shutdown_pool()
        shutdown_pool()
        assert fabric_stats() is None

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
        # the fabric survives a unit failure and keeps serving
        results = parallel_map(
            figure10_worker, _units("505.mcf_r", "519.lbm_r"), 2
        )
        assert [r.program for r in results] == ["505.mcf_r", "519.lbm_r"]


class TestScheduler:
    def test_affinity_prefers_home_worker(self):
        sched = _Scheduler(workers=2)
        keys = ["a", "b", "c", "d"]
        units = [(i, "ref", i) for i in range(4)]
        sched.submit(units, keys)
        for key in keys:
            home = shard_slot(key, 2)
            unit = sched.take(home)
            # the home worker gets its own shard without stealing
            assert unit is not None
        assert sched.steals == 0

    def test_idle_worker_steals_largest_shard(self):
        sched = _Scheduler(workers=2)
        # every unit lands on one shard homed on one worker
        key = "hot"
        home = shard_slot(key, 2)
        thief = 1 - home
        sched.submit([(i, "ref", i) for i in range(6)], [key] * 6)
        assert sched.take(thief) is not None
        assert sched.steals == 1
        # the home worker still drains its own shard
        assert sched.take(home) is not None
        assert sched.steals == 1

    def test_shard_slot_deterministic(self):
        assert shard_slot("505.mcf_r", 4) == shard_slot("505.mcf_r", 4)
        slots = {shard_slot(f"program-{i}", 4) for i in range(32)}
        assert slots == {0, 1, 2, 3}  # spreads across workers

    def test_exhaustion_returns_none(self):
        sched = _Scheduler(workers=2)
        sched.submit([(0, "ref", 0)], ["k"])
        assert sched.take(0) is not None
        assert sched.take(0) is None
        assert sched.take(1) is None


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


class TestFabricDirect:
    def test_ordered_results_with_skewed_shards(self):
        fabric = ExecutionFabric(2)
        try:
            payloads = _units("505.mcf_r")  # warm-up
            fabric.map(figure10_worker, payloads, shard_keys=["x"])
            names = ["505.mcf_r", "519.lbm_r", "508.namd_r", "557.xz_r"]
            # all units on ONE shard: the other worker must steal, yet
            # results come back in submission order
            results = fabric.map(
                figure10_worker,
                _units(*names),
                shard_keys=["hot"] * len(names),
            )
            assert [r.program for r in results] == names
            assert fabric.stats()["units_stolen"] > 0
        finally:
            fabric.drain()
        assert [p.exitcode for p in fabric.processes] == [0, 0]

    def test_more_workers_than_units(self):
        fabric = ExecutionFabric(4)
        try:
            results = fabric.map(
                figure10_worker,
                _units("505.mcf_r"),
                shard_keys=["only"],
            )
            assert results[0].program == "505.mcf_r"
        finally:
            fabric.drain()

    def test_workers_take_the_default_sigterm_action(self):
        # a parent SIGTERM handler (the CLI's, repro serve's) must not
        # survive the fork: SIGTERM kills a worker outright
        previous = signal.signal(signal.SIGTERM, lambda *args: None)
        try:
            fabric = ExecutionFabric(1)
        finally:
            signal.signal(signal.SIGTERM, previous)
        worker = fabric.processes[0]
        try:
            assert fabric.map(quick_worker, [21]) == [42]  # past setup
            os.kill(worker.pid, signal.SIGTERM)
            worker.join(timeout=10)
            assert worker.exitcode == -signal.SIGTERM
        finally:
            worker.kill()
            fabric.terminate()


# ----------------------------------------------------------------------
# worker functions for the drain-report tests (module-level so the
# fabric can dispatch them by reference)
# ----------------------------------------------------------------------
def wedge_worker(payload):
    """Sleeps far past any drain timeout: an artificially stuck worker."""
    import time as _time

    _time.sleep(payload)
    return "woke"


def quick_worker(payload):
    return payload * 2


def sized_worker(payload):
    """A result of ``payload`` list items (~``payload`` pickled KiB)."""
    return [payload] * (payload * 512)


class TestDrainReport:
    def test_clean_drain_between_maps_loses_nothing(self):
        fabric = ExecutionFabric(2)
        fabric.map(quick_worker, [1, 2, 3], shard_keys=["a", "b", "c"])
        report = fabric.drain()
        assert report.clean
        assert report.as_dict() == {
            "clean": True,
            "stuck_workers": [],
            "lost_units": [],
            "unclaimed_results": 0,
            "pending_units": 0,
        }
        assert [p.exitcode for p in fabric.processes] == [0, 0]

    def test_wedged_worker_reports_lost_unit_instead_of_silence(self):
        from repro.analysis.fabric import worker_ref

        fabric = ExecutionFabric(2)
        ref = worker_ref(wedge_worker)
        # hand worker 0 a unit that outsleeps the drain timeout
        fabric._scheduler.submit([(0, ref, 60.0)], ["wedge"])
        fabric._assign(0)
        report = fabric.drain(timeout=0.5)
        assert not report.clean
        assert report.stuck_workers == ["repro-fabric-0"]
        assert report.lost_units == [
            {"worker": "repro-fabric-0", "seq": 0, "ref": ref}
        ]
        assert report.unclaimed_results == 0
        # the wedged worker was terminated; the idle one exited cleanly
        assert fabric.processes[0].exitcode != 0
        assert fabric.processes[1].exitcode == 0

    def _abandon_unit(self, fabric, worker, payload):
        """Dispatch one unit on worker 0 and walk away from the map:
        its result lands in the pipe with nobody left to claim it."""
        from repro.analysis.fabric import worker_ref

        ref = worker_ref(worker)
        fabric._scheduler.submit([(0, ref, payload)], ["orphan"])
        fabric._assign(0)
        assert fabric._outboxes[0].poll(10.0)  # the result is on its way
        return ref

    def test_abandoned_map_results_counted_as_unclaimed(self):
        # the ~200 KB result outgrows the pipe buffer: its worker blocks
        # writing it until the drain reads, so a drain that joined the
        # workers before reading would wedge on it
        for worker, payload in ((quick_worker, 21), (sized_worker, 200)):
            fabric = ExecutionFabric(2)
            self._abandon_unit(fabric, worker, payload)
            report = fabric.drain(timeout=10.0)
            assert report.stuck_workers == []
            assert report.lost_units == []
            assert report.unclaimed_results == 1
            assert [p.exitcode for p in fabric.processes] == [0, 0]

    def test_drain_after_an_interrupted_read_loses_only_that_unit(self):
        # a Ctrl-C or SIGTERM exit that lands halfway through reading a
        # large result leaves the pipe mid-frame; the drain must not
        # read on from there
        fabric = ExecutionFabric(2)
        ref = self._abandon_unit(fabric, sized_worker, 1200)
        os.read(fabric._outboxes[0].fileno(), 4096)
        fabric._receiving = 0
        started = time.monotonic()
        report = fabric.drain(timeout=10.0)
        assert time.monotonic() - started < 5.0
        assert report.stuck_workers == []
        assert report.lost_units == [
            {"worker": "repro-fabric-0", "seq": 0, "ref": ref}
        ]
        assert report.unclaimed_results == 0
        assert fabric.processes[0].exitcode == -signal.SIGTERM
        assert fabric.processes[1].exitcode == 0

    def test_worker_killed_mid_result_raises_instead_of_hanging(self):
        fabric = ExecutionFabric(2)
        self._abandon_unit(fabric, sized_worker, 1200)
        worker = fabric.processes[0]
        os.kill(worker.pid, signal.SIGKILL)  # halfway through its write
        worker.join(timeout=10)
        # the map loop would now read the torn frame
        with pytest.raises(FabricError, match="repro-fabric-0"):
            fabric._next_event()
        assert all(p.exitcode is not None for p in fabric.processes)

    def test_large_results_round_trip(self):
        # small results mixed with one that pickles to ~1.8 MB, twice
        # the largest Table 2 row
        payloads = [1, 16, 2, 1200]
        results = parallel_map(
            sized_worker, payloads, jobs=2, shard_keys=list("abcd")
        )
        assert results == [sized_worker(payload) for payload in payloads]

    def test_drain_pool_returns_report(self):
        assert parallel.drain_pool() is None  # no fabric yet
        results = parallel_map(
            quick_worker, [1, 2, 3, 4], jobs=2, shard_keys=list("abcd")
        )
        assert results == [2, 4, 6, 8]
        report = parallel.drain_pool()
        assert report is not None and report.clean
        assert parallel.drain_pool() is None  # idempotent


class TestConcurrentParallelMap:
    def test_concurrent_maps_from_threads_serialize_correctly(self):
        """Server job threads share one fabric; maps must not interleave."""
        import threading

        outcomes = {}
        errors = []

        def run(label, payloads):
            try:
                outcomes[label] = parallel_map(
                    quick_worker,
                    payloads,
                    jobs=2,
                    shard_keys=[f"{label}-{p}" for p in payloads],
                )
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
        assert stats["units_dispatched"] == 32
        assert stats["units_inflight"] == 0
