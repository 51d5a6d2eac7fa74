"""Tests for the byte-exact addressability oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import HeapAllocator
from repro.memory.layout import SEGMENT_SIZE, segment_index, segment_offset
from repro.shadow import ShadowMemory, asan_encoding, giantsan_encoding
from repro.shadow.oracle import (
    asan_region_is_addressable,
    bulk_region_is_addressable,
    first_poison_code,
    giantsan_region_is_addressable,
    region_is_addressable,
    scan_codes,
    scan_region,
)


class TestOracleASan:
    def test_good_region(self, space, shadow):
        allocator = HeapAllocator(space, redzone=16)
        allocation = allocator.malloc(64)
        asan_encoding.poison_allocation(shadow, allocation)
        ok, fault = asan_region_is_addressable(
            shadow, allocation.base, allocation.end
        )
        assert ok and fault is None

    def test_overflow_fault_address(self, space, shadow):
        allocator = HeapAllocator(space, redzone=16)
        allocation = allocator.malloc(12)
        asan_encoding.poison_allocation(shadow, allocation)
        ok, fault = asan_region_is_addressable(
            shadow, allocation.base, allocation.base + 16
        )
        assert not ok
        assert fault == allocation.base + 12  # first byte past the 4-prefix

    def test_empty_region_ok(self, shadow):
        ok, fault = asan_region_is_addressable(shadow, 100, 100)
        assert ok and fault is None

    def test_unaligned_start_in_poison(self, space, shadow):
        allocator = HeapAllocator(space, redzone=16)
        allocation = allocator.malloc(12)
        asan_encoding.poison_allocation(shadow, allocation)
        ok, fault = asan_region_is_addressable(
            shadow, allocation.base + 13, allocation.base + 14
        )
        assert not ok
        assert fault == allocation.base + 13


class TestOracleGiantSan:
    def test_agreement_between_encodings(self, space):
        """Both encodings encode the same addressability facts."""
        asan_shadow = ShadowMemory(space.layout.total_size)
        giant_shadow = ShadowMemory(space.layout.total_size)
        allocator = HeapAllocator(space, redzone=16)
        allocations = [allocator.malloc(size) for size in (5, 64, 100, 13)]
        freed = allocations[2]
        allocator.free(freed.base)
        for allocation in allocations:
            asan_encoding.poison_allocation(asan_shadow, allocation)
            giantsan_encoding.poison_allocation(giant_shadow, allocation)
        asan_encoding.poison_freed(asan_shadow, freed)
        giantsan_encoding.poison_freed(giant_shadow, freed)
        lo = allocations[0].chunk_base
        hi = allocations[-1].chunk_end
        for start in range(lo, hi, 3):
            for length in (1, 4, 8, 32, 100):
                a = asan_region_is_addressable(asan_shadow, start, start + length)
                g = giantsan_region_is_addressable(
                    giant_shadow, start, start + length
                )
                assert a == g, f"encodings disagree at [{start},{start+length})"

    def test_first_poison_code(self, space, shadow):
        allocator = HeapAllocator(space, redzone=16)
        allocation = allocator.malloc(16)
        giantsan_encoding.poison_allocation(shadow, allocation)
        code = first_poison_code(
            shadow,
            allocation.base,
            allocation.base + 32,
            giantsan_encoding.addressable_prefix,
        )
        assert code == giantsan_encoding.HEAP_RIGHT_REDZONE

    def test_first_poison_code_none_when_safe(self, space, shadow):
        allocator = HeapAllocator(space, redzone=16)
        allocation = allocator.malloc(16)
        giantsan_encoding.poison_allocation(shadow, allocation)
        assert (
            first_poison_code(
                shadow,
                allocation.base,
                allocation.base + 16,
                giantsan_encoding.addressable_prefix,
            )
            is None
        )


# ----------------------------------------------------------------------
# bulk scan cross-validation (the fast path's region primitive)
# ----------------------------------------------------------------------
def _reference_walk_with_count(shadow, start, end, prefix_of):
    """region_is_addressable plus the number of segments examined."""
    if end <= start:
        return True, None, 0
    visited = 0
    address = start
    while address < end:
        index = segment_index(address)
        visited += 1
        prefix = prefix_of(shadow.load(index))
        if segment_offset(address) >= prefix:
            return False, address, visited
        segment_end = (index + 1) * SEGMENT_SIZE
        addressable_until = index * SEGMENT_SIZE + prefix
        if addressable_until < min(end, segment_end):
            return False, addressable_until, visited
        address = segment_end
    return True, None, visited


_ENCODINGS = [
    asan_encoding.addressable_prefix,
    giantsan_encoding.addressable_prefix,
]

_SEGMENTS = 64  # shadow bytes in the randomized arena


@st.composite
def _shadow_states(draw):
    """A random shadow array plus a random in-bounds region."""
    codes = draw(
        st.binary(min_size=_SEGMENTS, max_size=_SEGMENTS)
    )
    shadow = ShadowMemory(_SEGMENTS * SEGMENT_SIZE)
    shadow.write_codes(0, codes)
    total = _SEGMENTS * SEGMENT_SIZE
    start = draw(st.integers(min_value=0, max_value=total - 1))
    end = draw(st.integers(min_value=start, max_value=total))
    return shadow, start, end


class TestBulkScanCrossValidation:
    @settings(max_examples=300, deadline=None)
    @given(state=_shadow_states(), encoding=st.sampled_from(_ENCODINGS))
    def test_bulk_matches_reference(self, state, encoding):
        shadow, start, end = state
        assert bulk_region_is_addressable(
            shadow, start, end, encoding
        ) == region_is_addressable(shadow, start, end, encoding)

    @settings(max_examples=300, deadline=None)
    @given(state=_shadow_states(), encoding=st.sampled_from(_ENCODINGS))
    def test_scan_codes_visited_count(self, state, encoding):
        """The bulk scan charges exactly the reference walk's loads."""
        shadow, start, end = state
        ok, fault, visited = _reference_walk_with_count(
            shadow, start, end, encoding
        )
        if end > start:
            first = segment_index(start)
            codes = shadow.region(first, segment_index(end - 1) - first + 1)
        else:
            first, codes = 0, b""
        assert scan_codes(codes, first, start, end, encoding) == (
            ok,
            fault,
            visited,
        )

    def test_empty_region(self):
        shadow = ShadowMemory(8 * SEGMENT_SIZE)
        for encoding in _ENCODINGS:
            assert bulk_region_is_addressable(shadow, 40, 40, encoding) == (
                True,
                None,
            )
            assert scan_codes(b"", 0, 40, 40, encoding) == (True, None, 0)

    def test_scan_region_empty_region(self):
        """An empty region is addressable even on a fully poisoned plane."""
        shadow = ShadowMemory(8 * SEGMENT_SIZE)
        shadow.fill(0, len(shadow), 0xFA)
        for encoding in _ENCODINGS:
            assert scan_region(shadow, 40, 40, encoding) == (True, None, 0)
