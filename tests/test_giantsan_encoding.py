"""Tests for GiantSan's shadow encoding (Definition 1, Figure 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ErrorKind
from repro.memory import AddressSpace, HeapAllocator
from repro.shadow import ShadowMemory, giantsan_encoding as enc
from repro.shadow.folding import MAX_DEGREE, fold_degrees


class TestStateCodes:
    def test_good_is_zero_folded(self):
        assert enc.GOOD == 64
        assert enc.encode_folded(0) == 64

    @pytest.mark.parametrize("degree", [0, 1, 5, 30, 62])
    def test_folded_roundtrip(self, degree):
        assert enc.decode_degree(enc.encode_folded(degree)) == degree

    @pytest.mark.parametrize("k", range(1, 8))
    def test_partial_roundtrip(self, k):
        assert enc.decode_partial(enc.encode_partial(k)) == k

    def test_partial_range_rejected(self):
        with pytest.raises(ValueError):
            enc.encode_partial(0)
        with pytest.raises(ValueError):
            enc.encode_partial(8)

    def test_error_codes_above_72(self):
        for code in (
            enc.HEAP_LEFT_REDZONE,
            enc.HEAP_RIGHT_REDZONE,
            enc.HEAP_FREED,
            enc.STACK_AFTER_RETURN,
            enc.NULL_PAGE,
        ):
            assert enc.is_error_code(code)
            assert code > 72

    def test_partial_codes_not_error(self):
        for k in range(1, 8):
            assert not enc.is_error_code(enc.encode_partial(k))

    def test_monotonicity(self):
        """Smaller code => more addressable bytes follow (Definition 1)."""
        codes = [enc.encode_folded(d) for d in range(10, -1, -1)]
        byte_counts = [enc.guaranteed_bytes(c) for c in codes]
        assert codes == sorted(codes)
        assert byte_counts == sorted(byte_counts, reverse=True)


class TestGuaranteedBytes:
    @pytest.mark.parametrize(
        "degree,expected", [(0, 8), (1, 16), (2, 32), (3, 64), (10, 8192)]
    )
    def test_folded(self, degree, expected):
        assert enc.guaranteed_bytes(enc.encode_folded(degree)) == expected

    def test_partial_guarantees_zero(self):
        for k in range(1, 8):
            assert enc.guaranteed_bytes(enc.encode_partial(k)) == 0

    def test_error_guarantees_zero(self):
        assert enc.guaranteed_bytes(enc.HEAP_FREED) == 0

    def test_matches_paper_shift_trick(self):
        """u = (v <= 64) << (67 - v)."""
        for v in range(0, 128):
            expected = ((v <= 64) and (1 << (67 - v))) or 0
            assert enc.guaranteed_bytes(v) == expected


class TestObjectCodes:
    def test_figure5_68_bytes(self):
        codes = list(enc.object_codes(68))
        degrees = [enc.decode_degree(c) for c in codes[:-1]]
        assert degrees == [3, 2, 2, 2, 2, 1, 1, 0]
        assert enc.decode_partial(codes[-1]) == 4

    def test_exact_multiple_has_no_partial(self):
        codes = list(enc.object_codes(64))
        assert len(codes) == 8
        assert all(enc.decode_degree(c) is not None for c in codes)

    def test_tiny_object(self):
        codes = list(enc.object_codes(5))
        assert len(codes) == 1
        assert enc.decode_partial(codes[0]) == 5

    def test_empty_object(self):
        assert enc.object_codes(0) == b""

    @given(st.integers(min_value=0, max_value=4096))
    def test_code_count(self, size):
        codes = enc.object_codes(size)
        assert len(codes) == (size + 7) // 8

    @given(st.integers(min_value=1, max_value=4096))
    def test_guarantees_never_overclaim(self, size):
        """Each segment's guarantee stays within the object."""
        codes = enc.object_codes(size)
        for index, code in enumerate(codes):
            guaranteed = enc.guaranteed_bytes(code)
            assert index * 8 + guaranteed <= size + 7  # partial tail rounds up
            if guaranteed:
                assert index * 8 + guaranteed <= (size // 8) * 8

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 16))
    def test_matches_per_segment_encoding(self, size):
        """The memoized run expansion equals encoding each segment."""
        good, tail = divmod(size, 8)
        expected = bytes(enc.encode_folded(d) for d in fold_degrees(good))
        if tail:
            expected += bytes([enc.encode_partial(tail)])
        assert enc.object_codes(size) == expected

    def test_expand_codes_degree_cap(self):
        """A run at the degree-63 fold cap expands correctly."""
        runs = [(MAX_DEGREE, 5), (0, 1)]
        assert enc._expand_codes(runs, 3) == (
            bytes([64 - MAX_DEGREE]) * 5 + bytes([64]) + bytes([72 - 3])
        )

    def test_expand_codes_rejects_bad_degree_and_tail(self):
        with pytest.raises(ValueError):
            enc._expand_codes([(MAX_DEGREE + 1, 1)], 0)
        with pytest.raises(ValueError):
            enc._expand_codes([(0, 1)], 8)

    def test_fast_poisoning_matches_slow(self, shadow):
        # one slice write of the memoized table == one store per segment
        # of a freshly expanded code sequence
        for size in (0, 1, 8, 63, 68, 100, 1024, 4096):
            slow = ShadowMemory(1 << 16)
            fast = ShadowMemory(1 << 16)
            good, tail = divmod(size, 8)
            codes = enc._expand_codes(enc.run_lengths(good), tail)
            for offset, code in enumerate(codes):
                slow.store(64 + offset, code)
            assert enc.poison_object_shadow(fast, 512, size) == len(codes)
            count = (size + 7) // 8
            assert slow.region(64, count + 2) == fast.region(64, count + 2)


class TestAllocationPoisoning:
    def test_redzones_poisoned(self, space, shadow):
        allocator = HeapAllocator(space, redzone=16)
        allocation = allocator.malloc(40)
        enc.poison_allocation(shadow, allocation)
        left = shadow.load(ShadowMemory.index_of(allocation.chunk_base))
        right = shadow.load(ShadowMemory.index_of(allocation.usable_end + 7))
        assert left == enc.HEAP_LEFT_REDZONE
        assert right == enc.HEAP_RIGHT_REDZONE

    def test_object_interior_folded(self, space, shadow):
        allocator = HeapAllocator(space, redzone=16)
        allocation = allocator.malloc(64)
        enc.poison_allocation(shadow, allocation)
        first = shadow.load(ShadowMemory.index_of(allocation.base))
        assert enc.decode_degree(first) == 3

    def test_freed_poisoning(self, space, shadow):
        allocator = HeapAllocator(space, redzone=16)
        allocation = allocator.malloc(64)
        enc.poison_allocation(shadow, allocation)
        allocator.free(allocation.base)
        enc.poison_freed(shadow, allocation)
        for segment in range(8):
            index = ShadowMemory.index_of(allocation.base) + segment
            assert shadow.load(index) == enc.HEAP_FREED

    def test_unpoison_chunk_clears(self, space, shadow):
        allocator = HeapAllocator(space, redzone=16)
        allocation = allocator.malloc(64)
        enc.poison_allocation(shadow, allocation)
        allocator.free(allocation.base)
        enc.poison_freed(shadow, allocation)
        enc.unpoison_chunk(shadow, allocation)
        index = ShadowMemory.index_of(allocation.chunk_base)
        count = allocation.chunk_size >> 3
        assert set(shadow.region(index, count)) == {enc.GOOD}


class TestClassification:
    def test_classify_error_codes(self):
        assert enc.classify(enc.HEAP_FREED) is ErrorKind.USE_AFTER_FREE
        assert enc.classify(enc.HEAP_RIGHT_REDZONE) is ErrorKind.HEAP_BUFFER_OVERFLOW
        assert enc.classify(enc.HEAP_LEFT_REDZONE) is ErrorKind.HEAP_BUFFER_UNDERFLOW
        assert enc.classify(enc.STACK_AFTER_RETURN) is ErrorKind.USE_AFTER_RETURN

    def test_classify_partial_as_overflow(self):
        assert enc.classify(enc.encode_partial(4)) is ErrorKind.HEAP_BUFFER_OVERFLOW

    def test_describe_codes(self):
        labels = enc.describe_codes(
            [enc.encode_folded(2), enc.encode_partial(4), enc.HEAP_FREED]
        )
        assert labels == ["(2)", "4-part", "err:0xfd"]
