"""Tests for the differential fuzzing harness itself.

The fuzzer is only as trustworthy as its own parts: the generator must
be deterministic and emit valid IR, the expectations oracle must encode
the documented per-tool blind spots, the invariant checker must
actually catch corruption (not just run), and the shrinker must only
keep reductions that preserve the divergence signature.
"""

import pytest

from repro.fuzz import (
    ALL_TOOLS,
    InvariantViolation,
    ShadowInvariantChecker,
    build_case,
    case_seed_for,
    generate_case,
    run_case,
    shrink_case,
)
from repro.fuzz.driver import divergence_signature
from repro.fuzz.expectations import (
    FREE,
    MUST,
    MUST_NOT,
    expected_verdict,
    tool_usable_size,
    verdict_matches,
)
from repro.fuzz.generator import BugSpec, BufferDecl, FuzzCase, drop_op
from repro.fuzz.shrinker import _shrunk_numbers
from repro.runtime import ExecConfig, Session


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
class TestGenerator:
    def test_deterministic(self):
        for index in range(20):
            seed = case_seed_for(7, index)
            assert generate_case(seed) == generate_case(seed)

    def test_case_seeds_independent_of_chunking(self):
        # chunk boundaries must not change which case an index produces
        assert case_seed_for(0, 10) == case_seed_for(0, 10)
        assert len({case_seed_for(0, i) for i in range(1000)}) == 1000

    def test_bug_probability_extremes(self):
        with_bugs = [
            generate_case(case_seed_for(1, i), bug_probability=1.0)
            for i in range(30)
        ]
        without = [
            generate_case(case_seed_for(1, i), bug_probability=0.0)
            for i in range(30)
        ]
        assert all(case.bug is not None for case in with_bugs)
        assert all(case.bug is None for case in without)

    def test_covers_every_bug_kind(self):
        kinds = {
            generate_case(case_seed_for(3, i), bug_probability=1.0).bug.kind
            for i in range(400)
        }
        assert kinds >= {
            "overflow",
            "underflow",
            "loop_overflow",
            "memset_overflow",
            "memcpy_overflow",
            "uaf",
            "uaf_interior",
            "double_free",
            "invalid_free",
            "uar",
        }

    def test_programs_execute_under_native(self):
        for index in range(25):
            case = generate_case(case_seed_for(5, index))
            program = build_case(case)
            config = ExecConfig(memoize=False)
            result = Session("Native", config).run(program)
            assert result.return_value is not None

    def test_drop_op_removes_buffer_dependents(self):
        case = next(
            generate_case(case_seed_for(11, i))
            for i in range(100)
            if any(isinstance(op, BufferDecl) for op in generate_case(
                case_seed_for(11, i)).ops)
        )
        index = next(
            i for i, op in enumerate(case.ops) if isinstance(op, BufferDecl)
        )
        dropped = drop_op(case, index)
        gone = case.ops[index].var
        for op in dropped.ops:
            assert gone not in (
                getattr(op, "buf", None),
                getattr(op, "dst", None),
                getattr(op, "src", None),
            )
        build_case(dropped).validate()


# ----------------------------------------------------------------------
# expectations oracle
# ----------------------------------------------------------------------
class TestExpectations:
    def test_native_never_expects_reports(self):
        bug = BugSpec(kind="overflow", size=64, offset=64, width=8)
        assert expected_verdict("Native", bug).status == MUST_NOT

    def test_clean_case_must_not_report(self):
        for tool in ALL_TOOLS:
            assert expected_verdict(tool, None).status == MUST_NOT

    def test_adjacent_overflow_is_must_for_protected_tools(self):
        bug = BugSpec(kind="overflow", size=64, offset=64, width=8)
        for tool in ("GiantSan", "ASan", "ASan--", "LFP", "HWASan"):
            assert expected_verdict(tool, bug).status == MUST, tool

    def test_far_jump_is_free_only_for_asan_family(self):
        bug = BugSpec(kind="overflow", size=64, offset=600, width=8)
        assert bug.far
        assert expected_verdict("ASan", bug).status == FREE
        assert expected_verdict("ASan--", bug).status == FREE
        assert expected_verdict("GiantSan", bug).status == MUST
        assert expected_verdict("LFP", bug).status == MUST

    def test_loop_reached_overflow_is_never_free(self):
        bug = BugSpec(
            kind="loop_overflow", size=64, offset=600, width=8, via_loop=True
        )
        for tool in ("GiantSan", "ASan", "ASan--"):
            assert expected_verdict(tool, bug).status == MUST, tool

    def test_slack_silences_every_tool(self):
        # LFP rounds 48 -> 48? use 50: size class above it covers end 52
        for tool in ALL_TOOLS:
            usable = tool_usable_size(tool, "heap", 50)
            bug = BugSpec(kind="overflow", size=50, offset=50, width=1)
            expectation = expected_verdict(tool, bug)
            if tool == "Native" or bug.access_end <= usable:
                assert expectation.status == MUST_NOT, tool
            else:
                assert expectation.status in (MUST, FREE), tool

    def test_lfp_ignores_stack_bugs(self):
        bug = BugSpec(kind="overflow", arena="stack", size=32, offset=32, width=4)
        assert expected_verdict("LFP", bug).status == MUST_NOT
        assert expected_verdict("GiantSan", bug).status == MUST

    def test_uaf_requires_temporal_report(self):
        bug = BugSpec(kind="uaf", size=64)
        expectation = expected_verdict("GiantSan", bug)
        assert expectation.status == MUST and expectation.temporal is True
        assert verdict_matches(
            expectation, reported=True, any_temporal=False, any_spatial=True
        ) is not None
        assert verdict_matches(
            expectation, reported=True, any_temporal=True, any_spatial=False
        ) is None

    def test_verdict_matches_must_not(self):
        expectation = expected_verdict("GiantSan", None)
        assert verdict_matches(
            expectation, reported=True, any_temporal=False, any_spatial=True
        ) is not None
        assert verdict_matches(
            expectation, reported=False, any_temporal=False, any_spatial=False
        ) is None


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
class TestDriver:
    def test_fixed_seed_span_is_clean(self):
        for index in range(12):
            case = generate_case(case_seed_for(0, index))
            report = run_case(case)
            assert report.clean, [d.render() for d in report.divergences]
            assert report.invariant_checks > 0

    def test_buggy_case_produces_reports_not_divergences(self):
        case = next(
            c
            for c in (
                generate_case(case_seed_for(2, i), bug_probability=1.0)
                for i in range(50)
            )
            if c.bug.kind == "uaf"
        )
        report = run_case(case)
        assert report.clean, [d.render() for d in report.divergences]

    def test_divergence_signature_shape(self):
        case = generate_case(case_seed_for(0, 0))
        report = run_case(case)
        assert divergence_signature(report) == frozenset()


# ----------------------------------------------------------------------
# shrinker
# ----------------------------------------------------------------------
class TestShrinker:
    def test_shrunk_numbers_reduce(self):
        checked = 0
        for i in range(10):
            case = generate_case(case_seed_for(9, i))
            for index, op in enumerate(case.ops):
                for smaller in _shrunk_numbers(op):
                    assert smaller != op
                    build_case(
                        FuzzCase(case.seed, case.ops[:index] + (smaller,)
                                 + case.ops[index + 1:], case.bug)
                    ).validate()
                    checked += 1
        assert checked > 0  # the halving moves actually fired somewhere

    def test_clean_case_returned_unchanged(self):
        # no divergence signature to preserve -> nothing to shrink, and
        # the shrinker must not burn driver runs trying
        case = generate_case(case_seed_for(0, 1))
        assert shrink_case(case, max_runs=40) == case


# ----------------------------------------------------------------------
# invariant checker
# ----------------------------------------------------------------------
class TestInvariantChecker:
    def test_clean_run_records_no_violations(self):
        from repro.sanitizers.giantsan import GiantSan

        san = GiantSan()
        checker = ShadowInvariantChecker.attach(san)
        allocation = san.malloc(100)
        san.free(allocation.base)
        assert checker.checks_run == 2
        assert checker.violations == []

    def test_catches_corrupted_giantsan_shadow(self):
        from repro.memory.layout import segment_index
        from repro.sanitizers.giantsan import GiantSan

        san = GiantSan()
        checker = ShadowInvariantChecker.attach(san)
        allocation = san.malloc(128)
        # flip one interior folding code to an over-claiming degree
        san.shadow.store(segment_index(allocation.base) + 1, 1)
        checker.verify("planted")
        assert any("shadow" in v for v in checker.violations)

    def test_catches_wrong_degree_in_canonical_codes(self, monkeypatch):
        from repro.memory.layout import segment_index
        from repro.sanitizers.giantsan import GiantSan
        from repro.shadow import giantsan_encoding as enc

        san = GiantSan()
        checker = ShadowInvariantChecker.attach(san)
        allocation = san.malloc(128)
        # a canonical table whose last segment over-claims degree 1: the
        # shadow matches it, so only the folding verdict can object
        wrong = enc.object_codes(128)[:-1] + bytes([enc.encode_folded(1)])
        real = enc.object_codes
        monkeypatch.setattr(
            enc, "object_codes",
            lambda size: wrong if size == 128 else real(size),
        )
        san.shadow.write_codes(segment_index(allocation.base), wrong)
        checker.verify("planted")
        assert checker.violations == [
            f"[planted] GiantSan object #{allocation.allocation_id} "
            f"violates the folding invariant: degrees="
            f"{[enc.decode_degree(code) for code in wrong]}"
        ]

    @pytest.mark.parametrize("tool", ["GiantSan", "ASan"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_catches_unpoisoned_redzone_byte(self, tool, side):
        from repro.memory.layout import segment_index
        from repro.sanitizers import SANITIZER_FACTORIES

        san = SANITIZER_FACTORIES[tool]()
        checker = ShadowInvariantChecker.attach(san)
        allocation = san.malloc(100)
        assert checker.violations == []
        segment = (
            segment_index(allocation.chunk_base) if side == "left"
            else segment_index(allocation.chunk_end) - 1
        )
        san.shadow.store(segment, 0)
        checker.verify("planted")
        assert checker.violations == [
            f"[planted] object #{allocation.allocation_id} {side} redzone "
            f"not poisoned"
        ]

    def test_catches_quarantine_miscount(self):
        from repro.sanitizers.asan import ASan

        san = ASan()
        checker = ShadowInvariantChecker.attach(san)
        allocation = san.malloc(64)
        san.free(allocation.base)
        san.quarantine._held_bytes += 1  # planted corruption
        checker.verify("planted")
        assert any("held_bytes" in v for v in checker.violations)

    @pytest.mark.parametrize("tool", ["GiantSan", "ASan"])
    def test_catches_unpoisoned_quarantined_byte(self, tool):
        from repro.memory.layout import segment_index
        from repro.sanitizers import SANITIZER_FACTORIES

        san = SANITIZER_FACTORIES[tool]()
        checker = ShadowInvariantChecker.attach(san)
        allocation = san.malloc(100)
        san.free(allocation.base)
        assert checker.violations == []
        # leave the last of the freed object's 13 segments unpoisoned
        san.shadow.store(segment_index(allocation.base) + 12, 0)
        checker.verify("planted")
        assert checker.violations == [
            f"[planted] quarantined object #{allocation.allocation_id} "
            f"not fully freed-poisoned"
        ]

    def test_catches_hwasan_tag_divergence(self):
        from repro.sanitizers.hwasan import HWASan, untag

        san = HWASan()
        checker = ShadowInvariantChecker.attach(san)
        allocation = san.malloc(48)
        san._tags[untag(allocation.base) >> 4] = 0x7F  # retag one granule
        checker.verify("planted")
        assert any("granule" in v for v in checker.violations)

    def test_raise_mode_raises(self):
        from repro.sanitizers.asan import ASan

        san = ASan()
        checker = ShadowInvariantChecker.attach(san, raise_on_violation=True)
        allocation = san.malloc(32)
        san.quarantine.total_quarantined += 5
        with pytest.raises(InvariantViolation):
            checker.verify("planted")

    @pytest.mark.parametrize("tool", ["GiantSan", "ASan", "HWASan"])
    def test_driver_verifies_each_event_once(self, monkeypatch, tool):
        from repro.fuzz import driver
        from repro.trace import EventKind, Tracer

        sessions = []
        make_session = driver._session

        def recording_session(*args, **kwargs):
            session = make_session(*args, **kwargs)
            sessions.append((session, Tracer.attach(session.sanitizer)))
            return session

        monkeypatch.setattr(driver, "_session", recording_session)
        program = build_case(generate_case(case_seed_for(0, 3)))
        _, checker = driver._run_one(
            program, tool, ExecConfig(), fastpath=True
        )
        ((session, tracer),) = sessions
        checkers = [
            observer for observer in session.sanitizer.observers
            if isinstance(observer, ShadowInvariantChecker)
        ]
        assert checkers == [checker]
        lifecycle = [e for e in tracer.events if e.kind is not EventKind.REPORT]
        assert lifecycle
        assert checker.checks_run == len(lifecycle)
