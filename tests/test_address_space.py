"""Tests for the simulated byte-accurate address space."""

import pytest

from repro.errors import AddressSpaceError
from repro.memory import AddressSpace, ArenaLayout


@pytest.fixture
def base(space):
    return space.layout.heap_base


class TestLoadStore:
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_roundtrip(self, space, base, width):
        value = (1 << (8 * width)) - 3
        space.store(base, width, value)
        assert space.load(base, width) == value & ((1 << (8 * width)) - 1)

    def test_little_endian(self, space, base):
        space.store(base, 4, 0x01020304)
        assert space.load(base, 1) == 0x04
        assert space.load(base + 3, 1) == 0x01

    def test_store_masks_value(self, space, base):
        space.store(base, 1, 0x1FF)
        assert space.load(base, 1) == 0xFF

    def test_unsupported_width(self, space, base):
        with pytest.raises(ValueError):
            space.load(base, 3)
        with pytest.raises(ValueError):
            space.store(base, 5, 0)

    def test_out_of_range_raises(self, space):
        with pytest.raises(AddressSpaceError):
            space.load(space.layout.total_size, 8)
        with pytest.raises(AddressSpaceError):
            space.load(-8, 8)

    def test_load_at_boundary(self, space):
        assert space.load(space.layout.total_size - 8, 8) == 0


class TestBulkOps:
    def test_fill_and_read(self, space, base):
        space.fill(base, 64, 0xAB)
        assert space.read_bytes(base, 64) == b"\xab" * 64

    def test_write_bytes(self, space, base):
        space.write_bytes(base, b"hello\x00")
        assert space.read_bytes(base, 6) == b"hello\x00"

    def test_copy_non_overlapping(self, space, base):
        space.write_bytes(base, b"abcdef")
        space.copy(base + 100, base, 6)
        assert space.read_bytes(base + 100, 6) == b"abcdef"

    def test_copy_overlapping_is_memmove(self, space, base):
        space.write_bytes(base, b"abcdef")
        space.copy(base + 2, base, 6)
        assert space.read_bytes(base + 2, 6) == b"abcdef"

    def test_small_and_oversized_fills(self, space, base):
        for count in (0, 5, (1 << 16) + 1):
            space.fill(base + 1, count, 7)
            assert space.read_bytes(base, count + 2) == (
                b"\x00" + b"\x07" * count + b"\x00"
            )

    def test_fill_negative_size(self, space, base):
        with pytest.raises(ValueError):
            space.fill(base, -1, 0)

    def test_find_byte_present(self, space, base):
        space.write_bytes(base, b"abc\x00xyz")
        assert space.find_byte(base, 0, 16) == 3

    def test_find_byte_absent(self, space, base):
        space.fill(base, 16, 0x41)
        assert space.find_byte(base, 0, 16) == -1

    def test_snapshot(self, space, base):
        space.write_bytes(base, b"xy")
        assert space.snapshot([base, base + 1]) == b"xy"


class TestArenaQueries:
    def test_len_matches_layout(self):
        layout = ArenaLayout(heap_size=1 << 16, stack_size=1 << 14, globals_size=1 << 13)
        assert len(AddressSpace(layout)) == layout.total_size

    def test_arena_of_delegates(self, space):
        assert space.arena_of(space.layout.heap_base) == "heap"
        assert space.arena_of(0) == "null"
