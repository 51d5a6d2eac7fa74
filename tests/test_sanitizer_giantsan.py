"""Behavioural tests for the GiantSan runtime: caching, anchors, bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AccessType, ErrorKind
from repro.memory import ArenaLayout
from repro.sanitizers import GiantSan, make_cache_only, make_elimination_only
from repro.shadow.oracle import giantsan_region_is_addressable

_SMALL = ArenaLayout(heap_size=1 << 16, stack_size=1 << 14, globals_size=1 << 13)


@pytest.fixture
def giant():
    return GiantSan(layout=_SMALL)


class TestRegionCheckAPI:
    def test_detects_overflow_kind(self, giant):
        allocation = giant.malloc(100)
        assert not giant.check_region(
            allocation.base, allocation.base + 104, AccessType.WRITE
        )
        assert giant.log.kinds() == [ErrorKind.HEAP_BUFFER_OVERFLOW]

    def test_detects_use_after_free(self, giant):
        allocation = giant.malloc(100)
        giant.free(allocation.base)
        assert not giant.check_region(
            allocation.base, allocation.base + 8, AccessType.READ
        )
        assert giant.log.kinds() == [ErrorKind.USE_AFTER_FREE]

    def test_o1_for_any_size(self, giant):
        for size in (64, 1024, 16384):
            allocation = giant.malloc(size)
            giant.reset_stats()
            giant.check_region(
                allocation.base, allocation.base + size, AccessType.READ
            )
            assert giant.stats.shadow_loads <= 4


class TestAnchorEnhancement:
    def test_redzone_bypass_caught_with_anchor(self, giant):
        """An index jumping over the redzone into the next object is
        caught because the check spans [anchor, access_end)."""
        a = giant.malloc(64)
        b = giant.malloc(64)
        lo, hi = sorted([a.base, b.base])
        assert not giant.check_region(hi, hi + 8, AccessType.READ, anchor=lo)
        assert len(giant.log) == 1

    def test_bypass_missed_without_anchor(self, giant):
        a = giant.malloc(64)
        b = giant.malloc(64)
        lo, hi = sorted([a.base, b.base])
        assert giant.check_region(hi, hi + 8, AccessType.READ, anchor=None)

    def test_anchor_disabled_flag(self):
        giant = GiantSan(
            layout=ArenaLayout(
                heap_size=1 << 16, stack_size=1 << 14, globals_size=1 << 13
            ),
            enable_anchor=False,
        )
        a = giant.malloc(64)
        b = giant.malloc(64)
        lo, hi = sorted([a.base, b.base])
        assert giant.check_region(hi, hi + 8, AccessType.READ, anchor=lo)

    def test_underflow_anchor_widens_right(self, giant):
        """anchor > start: region extends to the anchor so a left redzone
        cannot be jumped either."""
        a = giant.malloc(64)
        b = giant.malloc(64)
        lo, hi = sorted([a.base, b.base])
        # access in a (low), anchored at b (high): must cross b's left
        # redzone and a's right redzone -> rejected
        assert not giant.check_region(lo, lo + 8, AccessType.READ, anchor=hi)


class TestHistoryCaching:
    def test_forward_traversal_update_bound(self, giant):
        """At most ceil(log2(n/8)) cache updates walking forward."""
        import math

        size = 4096
        allocation = giant.malloc(size)
        cache = giant.make_cache()
        giant.reset_stats()
        for offset in range(8, size, 8):  # start past the apex segment
            giant.check_cached(cache, allocation.base, offset, 8, AccessType.READ)
        limit = math.ceil(math.log2(size / 8)) + 1
        assert giant.stats.cache_updates <= limit

    def test_hits_require_no_loads(self, giant):
        allocation = giant.malloc(1024)
        cache = giant.make_cache()
        giant.check_cached(cache, allocation.base, 0, 8, AccessType.READ)
        giant.reset_stats()
        giant.check_cached(cache, allocation.base, 8, 8, AccessType.READ)
        assert giant.stats.cached_hits == 1
        assert giant.stats.shadow_loads == 0

    def test_cache_never_overclaims(self, giant):
        allocation = giant.malloc(100)
        cache = giant.make_cache()
        giant.check_cached(cache, allocation.base, 0, 8, AccessType.READ)
        assert cache.ub <= 100

    def test_overflow_detected_despite_cache(self, giant):
        allocation = giant.malloc(64)
        cache = giant.make_cache()
        for offset in range(0, 64, 8):
            assert giant.check_cached(
                cache, allocation.base, offset, 8, AccessType.READ
            )
        assert not giant.check_cached(
            cache, allocation.base, 64, 8, AccessType.READ
        )
        assert giant.log.kinds() == [ErrorKind.HEAP_BUFFER_OVERFLOW]

    def test_negative_offset_dedicated_underflow_check(self, giant):
        allocation = giant.malloc(64)
        cache = giant.make_cache()
        assert not giant.check_cached(
            cache, allocation.base, -8, 8, AccessType.READ
        )
        assert giant.log.kinds() == [ErrorKind.HEAP_BUFFER_UNDERFLOW]
        assert cache.ub == 0  # no quasi-lower-bound is ever cached

    def test_caching_disabled_flag(self):
        giant = make_elimination_only(
            layout=ArenaLayout(
                heap_size=1 << 16, stack_size=1 << 14, globals_size=1 << 13
            )
        )
        allocation = giant.malloc(1024)
        cache = giant.make_cache()
        giant.check_cached(cache, allocation.base, 0, 8, AccessType.READ)
        giant.check_cached(cache, allocation.base, 8, 8, AccessType.READ)
        assert giant.stats.cached_hits == 0
        assert cache.ub == 0


class TestLocateBound:
    def test_finds_exact_bound(self, giant):
        for size in (8, 24, 68, 100, 1024):
            allocation = giant.malloc(size)
            assert giant.locate_bound(allocation.base) == allocation.base + size

    def test_logarithmic_loads(self, giant):
        import math

        size = 8192
        allocation = giant.malloc(size)
        giant.reset_stats()
        giant.locate_bound(allocation.base)
        assert giant.stats.shadow_loads <= math.ceil(math.log2(size / 8)) + 2


class TestAblationFactories:
    def test_cache_only(self):
        san = make_cache_only()
        assert san.capabilities.history_caching
        assert not san.capabilities.check_elimination
        assert san.name == "GiantSan-CacheOnly"

    def test_elimination_only(self):
        san = make_elimination_only()
        assert not san.capabilities.history_caching
        assert san.capabilities.check_elimination
        assert san.name == "GiantSan-EliminationOnly"


class TestStackAndTemporal:
    def test_stack_variable_folded(self, giant):
        frame = giant.push_frame([64], ["buf"])
        base = frame.variables[0].base
        giant.reset_stats()
        assert giant.check_region(base, base + 64, AccessType.WRITE)
        assert giant.stats.shadow_loads == 1  # single folded segment load

    def test_stack_overflow_detected(self, giant):
        frame = giant.push_frame([16, 16], ["a", "b"])
        a = frame.variables[0]
        assert not giant.check_region(a.base, a.base + 24, AccessType.WRITE)
        assert giant.log.kinds()[-1] is ErrorKind.STACK_BUFFER_OVERFLOW

    def test_use_after_return(self, giant):
        frame = giant.push_frame([32])
        address = frame.variables[0].base
        giant.pop_frame()
        assert not giant.check_region(address, address + 8, AccessType.READ)
        assert giant.log.kinds()[-1] is ErrorKind.USE_AFTER_RETURN


@st.composite
def _poisoned_regions(draw):
    """A GiantSan heap of random live and freed objects, optionally with
    random raw codes written over it, and a region inside it whose start
    is segment-aligned or not."""
    san = GiantSan(layout=_SMALL)
    sizes = draw(st.lists(st.integers(1, 300), min_size=1, max_size=6))
    allocations = [san.malloc(size) for size in sizes]
    for allocation in allocations:
        if draw(st.booleans()):
            san.free(allocation.base)
    lo, hi = allocations[0].chunk_base, allocations[-1].chunk_end
    if draw(st.booleans()):
        first = lo >> 3
        codes = draw(st.binary(max_size=(hi - lo) >> 3))
        san.shadow.write_codes(first, codes)
    start = draw(st.integers(lo, hi - 1))
    if draw(st.booleans()):
        start &= ~7
    end = draw(st.integers(start + 1, hi))
    return san, start, end


class TestFaultLocator:
    @settings(max_examples=300, deadline=None)
    @given(state=_poisoned_regions())
    def test_matches_the_oracle_walk(self, state):
        san, start, end = state
        ok, fault = giantsan_region_is_addressable(san.shadow, start, end)
        assert san.locate_fault(start, end) == (start if ok else fault)

    @settings(max_examples=100, deadline=None)
    @given(state=_poisoned_regions())
    def test_report_names_the_oracle_fault(self, state):
        san, start, end = state
        ok, fault = giantsan_region_is_addressable(san.shadow, start, end)
        if san.check_region(start, end, AccessType.READ):
            # raw codes can break the folding invariant Algorithm 1
            # trusts, so only a failed check is compared
            assert not san.log
            return
        [report] = san.log
        assert report.address == (start if ok else fault)
        assert report.shadow_value == san.shadow.load(report.address >> 3)
