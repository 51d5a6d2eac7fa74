"""Bounds and edge-case tests for the raw shadow array."""

import pytest

from repro.memory.layout import SEGMENT_SIZE
from repro.shadow import ShadowMemory, asan_encoding
from repro.shadow.oracle import scan_tables


@pytest.fixture
def small():
    return ShadowMemory(16 * SEGMENT_SIZE)  # 16 shadow bytes


class TestConstruction:
    def test_size_must_be_segment_multiple(self):
        with pytest.raises(ValueError):
            ShadowMemory(SEGMENT_SIZE + 1)

    def test_len_is_segment_count(self, small):
        assert len(small) == 16


class TestFill:
    def test_fill_valid_range(self, small):
        small.fill(2, 3, 0xFD)
        assert small.region(0, 6) == bytes([0, 0, 0xFD, 0xFD, 0xFD, 0])

    def test_fill_zero_count_is_noop(self, small):
        small.fill(5, 0, 0xFF)
        assert small.region(0, len(small)) == bytes(len(small))

    def test_fill_zero_count_at_end_boundary(self, small):
        small.fill(len(small), 0, 0xFF)  # empty write at the end is legal

    def test_fill_negative_index(self, small):
        with pytest.raises(IndexError):
            small.fill(-1, 2, 0xFF)

    def test_fill_negative_count(self, small):
        with pytest.raises(ValueError):
            small.fill(0, -1, 0xFF)

    def test_fill_overflows_end(self, small):
        with pytest.raises(IndexError):
            small.fill(14, 3, 0xFF)

    def test_fill_index_past_end(self, small):
        with pytest.raises(IndexError):
            small.fill(len(small), 1, 0xFF)

    def test_fill_masks_code_to_byte(self, small):
        small.fill(0, 1, 0x1FF)
        assert small.load(0) == 0xFF

    def test_small_and_oversized_fills(self):
        huge = (1 << 16) + 1
        shadow = ShadowMemory((huge + 2) * SEGMENT_SIZE)
        for count in (0, 5, huge):
            shadow.fill(1, count, 7)
            assert shadow.region(0, count + 2) == (
                b"\x00" + b"\x07" * count + b"\x00"
            )


class TestWriteCodes:
    def test_write_codes_valid(self, small):
        small.write_codes(4, bytes([1, 2, 3]))
        assert small.region(4, 3) == bytes([1, 2, 3])

    def test_write_codes_empty(self, small):
        small.write_codes(0, b"")
        assert small.region(0, len(small)) == bytes(len(small))

    def test_write_codes_negative_index(self, small):
        with pytest.raises(IndexError):
            small.write_codes(-2, bytes([1]))

    def test_write_codes_overflow(self, small):
        with pytest.raises(IndexError):
            small.write_codes(15, bytes([1, 2]))

    def test_write_codes_preserves_length(self, small):
        """A bytearray slice-assign could silently grow/shrink; ours can't."""
        small.write_codes(0, bytes(16))
        assert len(small) == 16


class TestRegion:
    def test_region_snapshot_is_a_copy(self, small):
        snapshot = small.region(0, 4)
        small.store(0, 0xAA)
        assert snapshot == bytes(4)

    def test_region_zero_count(self, small):
        assert small.region(7, 0) == b""

    def test_region_negative_index(self, small):
        with pytest.raises(IndexError):
            small.region(-1, 1)

    def test_region_negative_count(self, small):
        with pytest.raises(ValueError):
            small.region(0, -4)

    def test_region_overflow(self, small):
        with pytest.raises(IndexError):
            small.region(10, 7)

    def test_region_full_array(self, small):
        small.fill(0, 16, 7)
        assert small.region(0, 16) == bytes([7] * 16)


class TestView:
    def test_view_is_zero_copy(self, small):
        view = small.view(0, 16)
        small.store(3, 0x55)
        assert view[3] == 0x55  # no snapshot was taken
        with pytest.raises(IndexError):
            small.view(12, 8)


class TestFindNotFull:
    def test_all_full_and_all_poison(self, small):
        _, full_flags = scan_tables(asan_encoding.addressable_prefix)
        small.fill(0, len(small), 0)  # all GOOD under ASan
        assert small.find_not_full(0, len(small), full_flags) == -1
        small.fill(0, len(small), 0xFA)
        assert small.find_not_full(0, len(small), full_flags) == 0


class TestCodesForRange:
    def test_non_positive_size_is_empty(self, small):
        assert small.codes_for_range(8, 0) == b""
        assert small.codes_for_range(8, -1) == b""

    def test_spans_partial_segments(self, small):
        small.fill(0, 3, 9)
        codes = small.codes_for_range(SEGMENT_SIZE - 1, 2)
        assert codes == bytes([9, 9])
