"""Tests for placement, merging, promotion, caching, and the pipelines.

These encode the paper's Table 1 and Figure 8 transformations as
assertions on the instrumented IR.
"""

import pytest

from repro.ir import (
    CacheFinalize,
    CheckAccess,
    CheckCached,
    CheckRegion,
    Loop,
    ProgramBuilder,
    Protection,
    V,
    memory_sites,
    walk,
)
from repro.passes import instrument
from repro.sanitizers import (
    ASan,
    ASanMinusMinus,
    GiantSan,
    LFP,
    NativeSanitizer,
    make_cache_only,
    make_elimination_only,
)


def find_loops(program):
    return [
        i
        for f in program.functions.values()
        for i in walk(f.body)
        if isinstance(i, Loop)
    ]


def checks_in(program_or_block, kinds=(CheckAccess, CheckRegion, CheckCached)):
    if isinstance(program_or_block, list):
        return [i for i in walk(program_or_block) if isinstance(i, kinds)]
    return [
        i
        for f in program_or_block.functions.values()
        for i in walk(f.body)
        if isinstance(i, kinds)
    ]


def constant_offsets_program():
    """Table 1 row 1: p[0] + p[10] + p[20] on a pointer of unknown size
    (a parameter, as in the paper's example — so ASan-- cannot simply
    prove the accesses in-bounds and drop them)."""
    b = ProgramBuilder()
    with b.function("kernel", params=["p"]) as f:
        f.load("a", "p", 0, 4)
        f.load("b", "p", 40, 4)
        f.load("c", "p", 80, 4)
    with b.function("main") as m:
        m.malloc("buf", 256)
        m.call("kernel", [V("buf")])
    return b.build()


def bounded_loop_program():
    """Table 1 row 3: for (i = 0; i < N; i++) p[i] = foo(i)."""
    b = ProgramBuilder()
    with b.function("kernel", params=["p", "N"]) as f:
        with f.loop("i", 0, V("N")) as i:
            f.store("p", i * 4, 4, i)
    with b.function("main", params=["N"]) as m:
        m.malloc("buf", 4096)
        m.call("kernel", [V("buf"), V("N")])
    return b.build()


def unbounded_loop_program():
    """Table 1 row 4 flavour: data-dependent index in a loop."""
    b = ProgramBuilder()
    with b.function("kernel", params=["idx", "p", "N"]) as f:
        with f.loop("i", 0, V("N"), bounded=False) as i:
            f.load("j", "idx", i * 4, 4)
            f.store("p", V("j") * 4, 4, i)
    with b.function("main", params=["N"]) as m:
        m.malloc("ib", 4096)
        m.malloc("pb", 4096)
        m.call("kernel", [V("ib"), V("pb"), V("N")])
    return b.build()


class TestPlacementStyles:
    def test_asan_gets_instruction_checks(self):
        ip = instrument(constant_offsets_program(), tool=ASan())
        checks = checks_in(ip.program)
        assert len(checks) == 3
        assert all(isinstance(c, CheckAccess) for c in checks)

    def test_giantsan_gets_region_checks(self):
        ip = instrument(constant_offsets_program(), tool=make_cache_only())
        checks = checks_in(ip.program)
        assert len(checks) == 3
        assert all(isinstance(c, CheckRegion) for c in checks)
        assert all(c.use_anchor for c in checks)

    def test_native_gets_nothing(self):
        ip = instrument(constant_offsets_program(), tool=NativeSanitizer())
        assert not checks_in(ip.program)
        assert all(
            s.protection is Protection.UNPROTECTED
            for s in memory_sites(ip.program)
        )

    def test_lfp_region_checks_without_merging(self):
        ip = instrument(constant_offsets_program(), tool=LFP())
        checks = checks_in(ip.program)
        assert len(checks) == 3


class TestTable1ConstantPropagation:
    def test_giantsan_merges_to_one_check(self):
        ip = instrument(constant_offsets_program(), tool=GiantSan())
        checks = checks_in(ip.program)
        assert len(checks) == 1
        only = checks[0]
        assert isinstance(only, CheckRegion)
        # merged span covers [0, 84): p[0..4) through p[80..84)
        from repro.ir.nodes import Const

        assert only.start == Const(0)
        assert only.end == Const(84)
        assert ip.stats.eliminated == 2

    def test_asanmm_cannot_merge_distinct_offsets(self):
        ip = instrument(constant_offsets_program(), tool=ASanMinusMinus())
        assert len(checks_in(ip.program)) == 3

    def test_asanmm_removes_exact_duplicates(self):
        b = ProgramBuilder()
        with b.function("kernel", params=["p"]) as f:
            f.load("a", "p", 0, 8)
            f.store("p", 0, 8, V("a"))  # must-aliased with the load
        with b.function("main") as m:
            m.malloc("buf", 64)
            m.call("kernel", [V("buf")])
        ip = instrument(b.build(), tool=ASanMinusMinus())
        assert len(checks_in(ip.program)) == 1
        assert ip.stats.eliminated == 1

    def test_duplicate_elimination_stops_at_call(self):
        """Intraprocedurally a call clobbers the fact; with summaries
        the provably non-freeing callee is transparent."""
        b = ProgramBuilder()
        with b.function("callee"):
            pass
        with b.function("kernel", params=["p"]) as f:
            f.load("a", "p", 0, 8)
            f.call("callee")
            f.load("b", "p", 0, 8)
        with b.function("main") as m:
            m.malloc("buf", 64)
            m.call("kernel", [V("buf")])
        ip = instrument(
            b.build(), tool=ASanMinusMinus(), interprocedural=False
        )
        assert len(checks_in(ip.program)) == 2
        ip = instrument(
            b.build(), tool=ASanMinusMinus(), interprocedural=True
        )
        assert len(checks_in(ip.program)) == 1

    def test_asanmm_safe_access_removal_with_known_size(self):
        """When the allocation size IS visible (same function, constant),
        ASan-- drops the provably in-bounds checks entirely."""
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 64)
            f.load("a", "p", 0, 8)
            f.load("b", "p", 56, 8)
        ip = instrument(b.build(), tool=ASanMinusMinus())
        assert len(checks_in(ip.program)) == 0
        assert ip.stats.notes.get("safe_access_removed") == 2

    def test_safe_access_keeps_out_of_bounds_checks(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 64)
            f.load("a", "p", 64, 8)  # one past the end: must keep check
        ip = instrument(b.build(), tool=ASanMinusMinus())
        assert len(checks_in(ip.program)) == 1

    def test_safe_access_proves_affine_loops(self):
        """A constant-trip loop over a known-size local buffer is fully
        provable (the lbm-style case ASan-- wins on)."""
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 4096)
            with f.loop("i", 0, 1024) as i:
                f.store("p", i * 4, 4, i)
        ip = instrument(b.build(), tool=ASanMinusMinus())
        assert len(checks_in(ip.program)) == 0

    def test_safe_access_rejects_overflowing_loop(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 4096)
            with f.loop("i", 0, 1025) as i:  # last store is out of bounds
                f.store("p", i * 4, 4, i)
        ip = instrument(b.build(), tool=ASanMinusMinus())
        assert len(checks_in(ip.program)) >= 1


class TestTable1LoopPromotion:
    def test_giantsan_promotes_bounded_loop(self):
        ip = instrument(bounded_loop_program(), tool=GiantSan())
        loop = find_loops(ip.program)[0]
        assert not checks_in(loop.body)  # hoisted out
        checks = checks_in(ip.program)
        assert len(checks) == 1
        assert isinstance(checks[0], CheckRegion)
        assert ip.stats.promoted == 1

    def test_asan_keeps_check_in_loop(self):
        ip = instrument(bounded_loop_program(), tool=ASan())
        loop = find_loops(ip.program)[0]
        assert len(checks_in(loop.body)) == 1

    def test_asanmm_relocates_varying_access(self):
        """ASan--'s check relocation: a monotonic in-loop access is
        replaced by first/last-iteration checks before the loop."""
        ip = instrument(bounded_loop_program(), tool=ASanMinusMinus())
        loop = find_loops(ip.program)[0]
        assert not checks_in(loop.body)
        relocated = checks_in(ip.program)
        assert len(relocated) == 2
        assert all(isinstance(c, CheckAccess) for c in relocated)

    def test_asanmm_hoists_invariant_access(self):
        b = ProgramBuilder()
        with b.function("kernel", params=["p"]) as f:
            with f.loop("i", 0, 100):
                f.store("p", 0, 8, V("i"))
        with b.function("main") as m:
            m.malloc("buf", 64)
            m.call("kernel", [V("buf")])
        ip = instrument(b.build(), tool=ASanMinusMinus())
        loop = find_loops(ip.program)[0]
        assert not checks_in(loop.body)
        assert len(checks_in(ip.program)) == 1

    def test_unbounded_loop_not_promoted(self):
        ip = instrument(unbounded_loop_program(), tool=make_elimination_only())
        loop = find_loops(ip.program)[0]
        assert checks_in(loop.body)  # checks remain inside

    def test_free_in_loop_blocks_promotion(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.malloc("p", 4096)
            f.malloc("q", 64)
            with f.loop("i", 0, 4) as i:
                f.store("p", i * 4, 4, i)
                f.free("q")
        ip = instrument(b.build(), tool=make_elimination_only())
        loop = next(
            i
            for i in walk(ip.program.function("main").body)
            if isinstance(i, Loop)
        )
        assert checks_in(loop.body)

    def test_conditional_access_not_promoted(self):
        b = ProgramBuilder()
        with b.function("main", params=["N"]) as f:
            f.malloc("p", 4096)
            with f.loop("i", 0, V("N")) as i:
                with f.if_(i.gt(2)):
                    f.store("p", i * 4, 4, i)
        ip = instrument(b.build(), tool=make_elimination_only())
        assert ip.stats.promoted == 0


class TestHistoryCachingPass:
    def test_unbounded_loop_uses_cache(self):
        ip = instrument(unbounded_loop_program(), tool=GiantSan())
        cached = checks_in(ip.program, kinds=(CheckCached,))
        assert len(cached) == 2  # idx[i*4] and p[j*4]
        finalizers = [
            i
            for f in ip.program.functions.values()
            for i in walk(f.body)
            if isinstance(i, CacheFinalize)
        ]
        assert len(finalizers) == 2
        assert ip.cache_count == 2

    def test_cache_only_variant_caches_everything_in_loops(self):
        ip = instrument(bounded_loop_program(), tool=make_cache_only())
        cached = checks_in(ip.program, kinds=(CheckCached,))
        assert len(cached) == 1  # no promotion, so the store is cached
        assert ip.stats.promoted == 0

    def test_elimination_only_has_no_caches(self):
        ip = instrument(unbounded_loop_program(), tool=make_elimination_only())
        assert not checks_in(ip.program, kinds=(CheckCached,))

    def test_sites_tagged_cached(self):
        ip = instrument(unbounded_loop_program(), tool=GiantSan())
        protections = [s.protection for s in memory_sites(ip.program)]
        assert protections.count(Protection.CACHED) == 2


class TestPipelineSummary:
    def test_remaining_checks_counted(self):
        ip = instrument(constant_offsets_program(), tool=GiantSan())
        assert ip.static_checks == 1
        assert ip.stats.baseline_checks == 3

    def test_instrument_requires_tool_or_caps(self):
        with pytest.raises(ValueError):
            instrument(constant_offsets_program())

    def test_instrument_with_raw_caps(self):
        from repro.sanitizers.base import Capabilities

        caps = Capabilities(constant_time_region=True, check_elimination=True)
        ip = instrument(constant_offsets_program(), caps=caps)
        assert ip.static_checks == 1

    def test_source_program_not_mutated(self):
        source = constant_offsets_program()
        instrument(source, tool=GiantSan())
        assert not checks_in(source)


# ----------------------------------------------------------------------
# the shared fold: instrument(fold_program(src)) == the unshared pipeline
# ----------------------------------------------------------------------
def _equivalence_corpus():
    """The Table 2 proxies, one Juliet case per CWE and the first 40
    cases of fuzz seed 0."""
    from repro.fuzz import build_case, case_seed_for, generate_case
    from repro.workloads.juliet import generate_juliet_suite
    from repro.workloads.spec import SPEC_TABLE2_ROWS

    corpus = [(spec.name, spec.build()) for spec in SPEC_TABLE2_ROWS]
    seen = set()
    for case in generate_juliet_suite():
        if case.cwe not in seen:
            seen.add(case.cwe)
            corpus.append((case.case_id, case.program))
    for index in range(40):
        case = generate_case(case_seed_for(0, index))
        corpus.append((f"fuzz-{index}", build_case(case)))
    return corpus


def _reference_instrument(source, tool, audit_elisions, interprocedural):
    """The pipeline before the fold was shared: deep copy, number the
    sites, then constant propagation followed by the tool's passes."""
    import copy

    from repro.ir import assign_site_ids
    from repro.passes import ConstantPropagation, PassManager, build_pipeline
    from repro.passes.instrument import _resolve_config

    caps, protect = _resolve_config(tool, None)
    program = copy.deepcopy(source)
    assign_site_ids(program)
    pipeline = [ConstantPropagation()] + build_pipeline(
        caps,
        protect=protect,
        audit_elisions=audit_elisions,
        interprocedural=interprocedural,
    )
    stats = PassManager(pipeline).run(program)
    stats.remaining_checks = len(checks_in(program))
    caches = {
        i.cache_id for i in checks_in(program, (CheckCached,))
    }
    return program, stats, len(caches)


def _stable(text):
    """``text`` with allocation roots renumbered in order of appearance.

    A root is named after the ``id()`` of its instruction
    (``alloc:140273753020688``), which differs between any two
    instrumentations; elision records and audit markers quote it.
    """
    import re

    roots = {}
    return re.sub(
        r"\b(alloc|stack|global|callret):\d+",
        lambda m: f"{m[1]}:#{roots.setdefault(m[0], len(roots))}",
        text,
    )


def _comparable(stats):
    """``PassStats`` without its wall-clock notes, as stable text."""
    from dataclasses import asdict

    fields = asdict(stats)
    fields["notes"] = {
        key: value
        for key, value in fields["notes"].items()
        if not key.startswith("pass_us:")
    }
    return _stable(repr(fields))


def test_shared_fold_matches_the_unshared_pipeline():
    from repro.passes import fold_program
    from repro.passes.instrument import program_fingerprint
    from repro.sanitizers import SANITIZER_FACTORIES

    for name, source in _equivalence_corpus():
        before = program_fingerprint(source)
        folded = fold_program(source)
        for tool_name, factory in SANITIZER_FACTORIES.items():
            tool = factory()
            for interprocedural in (True, False):
                for audit in (False, True):
                    cell = (name, tool_name, interprocedural, audit)
                    program, stats, caches = _reference_instrument(
                        source, tool, audit, interprocedural
                    )
                    ip = instrument(
                        folded,
                        tool=tool,
                        audit_elisions=audit,
                        interprocedural=interprocedural,
                    )
                    assert _stable(program_fingerprint(ip.program)) == (
                        _stable(program_fingerprint(program))
                    ), cell
                    assert _comparable(ip.stats) == _comparable(stats), cell
                    assert ip.static_checks == stats.remaining_checks, cell
                    assert ip.cache_count == caches, cell
                    assert list(ip.stats.pass_timings())[0] == "constprop"
        # neither path touched the source or the shared fold
        assert program_fingerprint(source) == before, name
        assert program_fingerprint(folded.source) == before, name
