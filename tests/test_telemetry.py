"""Telemetry registry, phase timing, and profile-study tests.

The load-bearing suite here validates the counters against ground
truth: an independent shim around the sanitizer's check entry points
recounts every check on real Table 2 kernels and re-answers each region
check with the byte-exact shadow oracle, then the telemetry snapshot
must agree with both.
"""

import pytest

from repro import ExecConfig, ProgramBuilder, Session
from repro.analysis import (
    ProfileStudy,
    profile_program,
    profile_to_json,
    quasi_bound_limit,
    render_profile,
    run_profile_study,
    telemetry_to_rows,
    wiring_problems,
)
from repro.errors import AccessType
from repro.sanitizers import GiantSan
from repro.shadow.oracle import giantsan_region_is_addressable
from repro.runtime import fastpath
from repro.telemetry import (
    Telemetry,
    TelemetrySnapshot,
    merge_snapshots,
    registry,
)
from repro.workloads.spec import SPEC_BY_NAME


# ----------------------------------------------------------------------
# phase timing
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestPhaseTimings:
    def test_every_event_is_timed(self, monkeypatch):
        monkeypatch.setattr(registry, "_clock", FakeClock())
        tele = Telemetry()
        for _ in range(5):
            tele.end("loop", tele.begin("loop"))
        # fake clock: 1s per begin/end pair
        assert tele.phases == {"loop": {"events": 5, "seconds": 5.0}}

    def test_begin_counts_an_event_that_never_ends(self, monkeypatch):
        monkeypatch.setattr(registry, "_clock", FakeClock())
        tele = Telemetry()
        tele.begin("loop")  # the loop raised before its end
        tele.end("loop", tele.begin("loop"))
        assert tele.phases["loop"] == {"events": 2, "seconds": 1.0}

    def test_snapshot_shape(self, monkeypatch):
        monkeypatch.setattr(registry, "_clock", FakeClock())
        tele = Telemetry()
        tele.end("a", tele.begin("a"))
        snapshot = tele.snapshot()
        assert snapshot.phases == {"a": {"events": 1, "seconds": 1.0}}
        assert snapshot.as_dict()["phases"] == snapshot.phases
        tele.end("a", tele.begin("a"))
        assert snapshot.phases["a"]["events"] == 1  # a copy, not a view

    def test_phase_accounting_is_exact(self, monkeypatch):
        """The tree walker reaches the fast path through the module, so
        wrapping ``try_execute`` counts every superblock event."""
        import time

        calls = []
        original = fastpath.try_execute

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(fastpath, "try_execute", counted)
        session = Session(
            "GiantSan", ExecConfig(memoize=False), telemetry=True
        )
        program = SPEC_BY_NAME["520.omnetpp_r"].build()
        started = time.perf_counter()
        phases = session.run(program, [1]).telemetry.phases
        wall = time.perf_counter() - started
        assert calls
        assert phases["superblock"]["events"] == len(calls)
        assert phases["run"]["events"] == 1
        assert phases["interpreter_loop"]["events"] > 0
        assert all(stat["seconds"] > 0 for stat in phases.values())
        assert phases["run"]["seconds"] <= wall


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestTelemetryRegistry:
    def test_attach_is_idempotent_per_sanitizer(self):
        san = GiantSan()
        tele = Telemetry()
        assert tele.attach(san) is tele
        tele.attach(san)  # re-attach must not observe twice
        assert san.observers.count(tele) == 1
        allocation = san.malloc(100)
        assert tele.counters["redzone_bytes_poisoned"] == (
            allocation.left_redzone + allocation.right_redzone
        )

    def test_attach_to_second_sanitizer_raises(self):
        tele = Telemetry()
        tele.attach(GiantSan())
        with pytest.raises(ValueError):
            tele.attach(GiantSan())

    def test_redzone_probe(self):
        san = GiantSan()
        Telemetry().attach(san)
        allocation = san.malloc(100)
        expected = allocation.left_redzone + allocation.right_redzone
        assert san.telemetry.counters["redzone_bytes_poisoned"] == expected

    def test_snapshot_mirrors_checkstats_exactly(self):
        san = GiantSan()
        tele = Telemetry()
        tele.attach(san)
        allocation = san.malloc(256)
        for offset in range(0, 256, 8):
            san.check_region(
                allocation.base + offset, allocation.base + offset + 8,
                AccessType.READ,
            )
        snap = tele.snapshot()
        stats = san.stats
        assert snap.counters["checks_executed"] == stats.checks_executed
        assert snap.counters["region_checks"] == stats.region_checks
        assert snap.counters["fast_check_hits"] == stats.fast_checks
        assert snap.counters["slow_path_entries"] == stats.slow_checks
        assert snap.counters["shadow_bytes_loaded"] == stats.shadow_loads
        assert snap.counters["allocations"] == stats.allocations

    def test_quarantine_peak_in_snapshot(self):
        san = GiantSan()
        tele = Telemetry()
        tele.attach(san)
        allocation = san.malloc(128)
        san.free(allocation.base)
        snap = tele.snapshot()
        assert snap.quarantine_peak_bytes >= allocation.chunk_size

    def test_snapshot_as_dict_schema(self):
        snap = TelemetrySnapshot(
            tool="GiantSan",
            counters={"fast_check_hits": 3, "slow_path_entries": 1},
            convergence_per_site={7: 2},
        )
        payload = snap.as_dict()
        assert payload["quasi_bound_convergence"]["max_steps"] == 2
        assert payload["quasi_bound_convergence"]["per_site"] == {"7": 2}
        assert snap.fast_slow_split == (3, 1)
        assert snap.fast_fraction == 0.75


# ----------------------------------------------------------------------
# session integration
# ----------------------------------------------------------------------
def small_program():
    b = ProgramBuilder()
    with b.function("main") as f:
        f.malloc("p", 256)
        with f.loop("i", 0, 16):
            f.store("p", 0, 8, 1)
        f.free("p")
    return b.build()


class TestSessionIntegration:
    def test_off_by_default(self):
        session = Session("GiantSan")
        result = session.run(small_program())
        assert session.telemetry is None
        assert result.telemetry is None
        assert session.sanitizer.telemetry is None  # no probes installed

    def test_on_yields_snapshot(self):
        result = Session("GiantSan", telemetry=True).run(small_program())
        assert isinstance(result.telemetry, TelemetrySnapshot)
        assert result.telemetry.tool == "GiantSan"
        assert result.telemetry.counters["allocations"] == 1

    def test_shared_registry_accumulates(self):
        tele = Telemetry()
        session = Session("GiantSan", telemetry=tele)
        session.run(small_program())
        first = tele.snapshot().counters["allocations"]
        session.run(small_program())
        assert tele.snapshot().counters["allocations"] == first + 1

    @pytest.mark.parametrize("fastpath", [False, True])
    def test_results_invariant_under_telemetry(self, fastpath):
        spec = SPEC_BY_NAME["505.mcf_r"]
        config = ExecConfig(fastpath=fastpath)
        plain = Session("GiantSan", config).run(spec.build(), [1])
        traced = Session("GiantSan", config, telemetry=True).run(
            spec.build(), [1]
        )
        assert plain.stats.as_dict() == traced.stats.as_dict()
        assert plain.errors == traced.errors
        assert plain.protection_counts == traced.protection_counts


# ----------------------------------------------------------------------
# ground truth: independent recount + shadow oracle on Table 2 kernels
# ----------------------------------------------------------------------
TABLE2_KERNELS = ["505.mcf_r", "519.lbm_r", "520.omnetpp_r", "531.deepsjeng_r"]


def run_with_ground_truth_shim(name: str):
    """Run one kernel with telemetry on and an independent check recount.

    The shim wraps the three check entry points *outside* the sanitizer's
    own accounting: it counts calls on its own, and re-answers every
    executed region check with the byte-exact shadow oracle.  The
    fast path is disabled so every check truly executes (folding applies
    stat deltas without calling the check methods, which is exactly the
    double-count hazard the recount must not inherit).
    """
    san = GiantSan()
    tele = Telemetry()
    tele.attach(san)
    calls = {"access": 0, "cached": 0, "region": 0}
    oracle_disagreements = []
    nesting = {"in_cached": False}

    original_region = san.check_region
    original_access = san.check_access
    original_cached = san.check_cached

    def shim_region(start, end, access, anchor=None):
        if not nesting["in_cached"]:
            calls["region"] += 1
        result = original_region(start, end, access, anchor=anchor)
        left, right = start, end
        if san.enable_anchor and anchor is not None:
            left, right = min(start, anchor), max(end, anchor)
        if right > left:
            ok, _ = giantsan_region_is_addressable(san.shadow, left, right)
            if ok != result:
                oracle_disagreements.append((left, right, result, ok))
        return result

    def shim_access(address, width, access):
        calls["access"] += 1
        result = original_access(address, width, access)
        ok, _ = giantsan_region_is_addressable(
            san.shadow, address, address + width
        )
        if ok != result:
            oracle_disagreements.append((address, address + width, result, ok))
        return result

    def shim_cached(cache, base, offset, width, access):
        calls["cached"] += 1
        nesting["in_cached"] = True
        try:
            return original_cached(cache, base, offset, width, access)
        finally:
            nesting["in_cached"] = False

    san.check_region = shim_region
    san.check_access = shim_access
    san.check_cached = shim_cached

    spec = SPEC_BY_NAME[name]
    config = ExecConfig(fastpath=False)
    result = Session(san, config, telemetry=tele).run(spec.build(), [1])
    return result, calls, oracle_disagreements


class TestGroundTruth:
    @pytest.mark.parametrize("name", TABLE2_KERNELS)
    def test_checks_executed_matches_recount(self, name):
        result, calls, _ = run_with_ground_truth_shim(name)
        snap = result.telemetry
        expected = calls["access"] + calls["cached"] + calls["region"]
        assert snap.counters["checks_executed"] == expected
        assert snap.counters["checks_executed"] > 0

    @pytest.mark.parametrize("name", TABLE2_KERNELS)
    def test_every_check_agrees_with_shadow_oracle(self, name):
        result, _, disagreements = run_with_ground_truth_shim(name)
        assert disagreements == []
        assert not result.errors  # bug-free kernels: all checks passed

    @pytest.mark.parametrize("name", TABLE2_KERNELS)
    def test_split_and_hits_account_for_region_checks(self, name):
        result, calls, _ = run_with_ground_truth_shim(name)
        snap = result.telemetry
        fast, slow = snap.fast_slow_split
        # every cached call resolves to exactly one of: quasi-bound hit
        # or a region check (underflow CI or CI-with-anchor)
        assert (
            snap.counters["quasi_bound_hits"]
            + snap.counters["region_checks"]
            == calls["cached"] + calls["region"]
        )
        # the CI split never exceeds the region checks that ran it
        assert fast + slow <= (
            snap.counters["region_checks"]
            + snap.counters["instruction_checks"]
        )
        assert fast + slow > 0


# ----------------------------------------------------------------------
# quasi-bound convergence (§4.3)
# ----------------------------------------------------------------------
class TestConvergence:
    def test_limit_formula(self):
        assert quasi_bound_limit(8) == 0
        assert quasi_bound_limit(64) == 3
        assert quasi_bound_limit(1024) == 7
        assert quasi_bound_limit(16384) == 11

    def test_forward_walk_converges_within_bound(self):
        san = GiantSan()
        n = 1024
        allocation = san.malloc(n)
        cache = san.make_cache()
        steps = 0
        for offset in range(0, n, 8):
            before = cache.ub
            assert san.check_cached(
                cache, allocation.base, offset, 8, AccessType.READ
            )
            if cache.ub > before:
                steps += 1
        assert 0 < steps <= quasi_bound_limit(n)

    def test_interpreter_tracks_per_site_convergence(self):
        spec = SPEC_BY_NAME["520.omnetpp_r"]
        result = Session(
            "GiantSan", ExecConfig(fastpath=False), telemetry=True
        ).run(
            spec.build(), [1]
        )
        snap = result.telemetry
        assert snap.convergence_per_site  # cached sites converged
        # 16384 bytes is the largest object any proxy allocates
        assert snap.convergence_max_steps <= quasi_bound_limit(16384)
        assert snap.convergence_total_steps <= snap.counters[
            "quasi_bound_updates"
        ]


# ----------------------------------------------------------------------
# profile study + exporters
# ----------------------------------------------------------------------
class TestProfileStudy:
    def test_profile_program_row(self):
        row = profile_program(SPEC_BY_NAME["519.lbm_r"], "GiantSan", 1)
        assert row.program == "519.lbm_r"
        assert row.snapshot.counters["checks_executed"] > 0
        assert row.seconds >= 0

    def test_study_and_wiring_check(self):
        study = run_profile_study(
            tool="GiantSan",
            programs=[SPEC_BY_NAME["505.mcf_r"], SPEC_BY_NAME["519.lbm_r"]],
            scale=1,
        )
        assert isinstance(study, ProfileStudy)
        assert wiring_problems(study) == []
        totals = study.totals()
        assert totals["checks_executed"] == sum(
            r.snapshot.counters["checks_executed"] for r in study.rows
        )

    def test_wiring_check_flags_dead_counters(self):
        study = run_profile_study(
            tool="GiantSan", programs=[SPEC_BY_NAME["519.lbm_r"]], scale=1
        )
        snap = study.rows[0].snapshot
        snap.counters["fast_check_hits"] = 0
        snap.counters["slow_path_entries"] = 0
        problems = wiring_problems(study)
        assert problems and "fast/slow" in problems[0]

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError):
            run_profile_study(tool="NoSuchSan")

    def test_render_and_exports(self):
        study = run_profile_study(
            tool="GiantSan", programs=[SPEC_BY_NAME["519.lbm_r"]], scale=1
        )
        text = render_profile(study)
        assert "519.lbm_r" in text
        assert "fast" in text
        rows = telemetry_to_rows(study)
        assert rows[0]["program"] == "519.lbm_r"
        assert rows[0]["fast_check_hits"] == study.rows[
            0
        ].snapshot.counters["fast_check_hits"]
        import json

        payload = json.loads(profile_to_json(study))
        assert payload["kind"] == "telemetry_profile"
        assert payload["programs"][0]["telemetry"]["counters"]


# ----------------------------------------------------------------------
# explicit aggregation: per-Session registries + merge API
# ----------------------------------------------------------------------
class TestMergeAPI:
    def _run_demo(self, tool="GiantSan"):
        builder = ProgramBuilder()
        with builder.function("main") as f:
            f.malloc("buf", 64)
            with f.loop("i", 0, 8) as i:
                f.store("buf", i * 8, 8, i)
            f.free("buf")
        session = Session(tool, telemetry=True)
        result = session.run(builder.build())
        return result.telemetry

    def test_merge_snapshots_is_additive(self):
        first = self._run_demo()
        second = self._run_demo()
        merged = merge_snapshots([first, second])
        assert merged.tool == "GiantSan"
        for name in first.counters:
            assert merged.counters[name] == (
                first.counters[name] + second.counters.get(name, 0)
            )
        assert merged.convergence_total_steps == (
            first.convergence_total_steps + second.convergence_total_steps
        )
        assert merged.quarantine_peak_bytes == max(
            first.quarantine_peak_bytes, second.quarantine_peak_bytes
        )
        assert set(merged.phases) == set(first.phases)
        for name, stat in merged.phases.items():
            assert stat == {
                key: first.phases[name][key] + second.phases[name][key]
                for key in ("events", "seconds")
            }

    def test_merge_snapshots_rejects_mixed_tools(self):
        with pytest.raises(ValueError, match="different tools"):
            merge_snapshots([self._run_demo("GiantSan"),
                             self._run_demo("ASan")])
        with pytest.raises(ValueError, match="at least one"):
            merge_snapshots([])

    def test_registry_merge_folds_probe_counters(self):
        """Two registries' probe counters, convergence steps and
        declines fold through the one aggregation, ``merge_snapshots``."""
        left, right = Telemetry(), Telemetry()
        left.incr("redzone_bytes_poisoned", 10)
        left.note_convergence(3)
        right.incr("redzone_bytes_poisoned", 5)
        right.note_convergence(3)
        right.note_convergence(7)
        right.note_superblock_decline("degree")
        merged = merge_snapshots([left.snapshot(), right.snapshot()])
        assert merged.counters["redzone_bytes_poisoned"] == 15
        assert merged.convergence_per_site == {3: 2, 7: 1}
        assert merged.superblock_declines == {"degree": 1}
        # the registries themselves are left as they were
        assert left.counters["redzone_bytes_poisoned"] == 10
        assert left.declines == {}

    def test_merge_snapshots_keeps_phases_of_either_side(self, monkeypatch):
        monkeypatch.setattr(registry, "_clock", FakeClock())
        left, right = Telemetry(), Telemetry()
        left.end("run", left.begin("run"))
        right.end("run", right.begin("run"))
        right.end("superblock", right.begin("superblock"))
        right.end("superblock", right.begin("superblock"))
        merged = merge_snapshots([left.snapshot(), right.snapshot()])
        assert merged.phases == {
            "run": {"events": 2, "seconds": 2.0},
            "superblock": {"events": 2, "seconds": 2.0},
        }

    def test_concurrent_sessions_do_not_cross_contaminate(self):
        """Two telemetry Sessions running in parallel threads stay scoped."""
        import threading

        def build(iterations):
            builder = ProgramBuilder()
            with builder.function("main") as f:
                f.malloc("buf", iterations * 8)
                with f.loop("i", 0, iterations) as i:
                    f.store("buf", i * 8, 8, i)
                f.free("buf")
            return builder.build()

        # sequential ground truth
        expected = {}
        for tool, iterations in (("GiantSan", 8), ("ASan", 24)):
            session = Session(tool, telemetry=True)
            session.run(build(iterations))
            snapshot = session.telemetry.snapshot()
            expected[tool] = (snapshot.counters, snapshot.convergence_per_site)

        observed = {}
        barrier = threading.Barrier(2)

        def run(tool, iterations):
            session = Session(tool, telemetry=True)
            program = build(iterations)
            barrier.wait(timeout=30)
            session.run(program)
            snapshot = session.telemetry.snapshot()
            observed[tool] = (
                snapshot.counters, snapshot.convergence_per_site
            )

        threads = [
            threading.Thread(target=run, args=("GiantSan", 8)),
            threading.Thread(target=run, args=("ASan", 24)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert observed == expected
