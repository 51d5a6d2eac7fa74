"""Tests for arena layout and alignment helpers."""

import dataclasses

import pytest

from repro.memory import AddressSpace
from repro.memory.layout import (
    DEFAULT_LAYOUT,
    ArenaLayout,
    NULL_GUARD_SIZE,
    SEGMENT_SHIFT,
    SEGMENT_SIZE,
    align_down,
    align_up,
    is_aligned,
    segment_index,
    segment_offset,
    segments_spanned,
)
from repro.sanitizers import SANITIZER_FACTORIES
from repro.sanitizers import base as sanitizer_base


class TestAlignment:
    def test_align_up_exact_multiple(self):
        assert align_up(16, 8) == 16

    def test_align_up_rounds(self):
        assert align_up(17, 8) == 24

    def test_align_up_zero(self):
        assert align_up(0, 8) == 0

    def test_align_down(self):
        assert align_down(17, 8) == 16
        assert align_down(16, 8) == 16

    def test_align_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            align_up(10, 6)
        with pytest.raises(ValueError):
            align_down(10, 0)

    def test_is_aligned(self):
        assert is_aligned(24, 8)
        assert not is_aligned(25, 8)

    def test_default_alignment_is_object_alignment(self):
        assert align_up(1) == 8


class TestSegments:
    def test_segment_index(self):
        assert segment_index(0) == 0
        assert segment_index(7) == 0
        assert segment_index(8) == 1

    def test_segment_offset(self):
        assert segment_offset(13) == 5
        assert segment_offset(16) == 0

    def test_segments_spanned_single(self):
        assert segments_spanned(0, 8) == 1
        assert segments_spanned(0, 1) == 1

    def test_segments_spanned_straddle(self):
        assert segments_spanned(4, 8) == 2

    def test_segments_spanned_empty(self):
        assert segments_spanned(100, 0) == 0

    def test_segments_spanned_large(self):
        assert segments_spanned(0, 1024) == 128


class TestArenaLayout:
    def test_arenas_are_disjoint_and_ordered(self):
        layout = ArenaLayout()
        assert layout.heap_base == NULL_GUARD_SIZE
        assert layout.heap_end == layout.stack_base
        assert layout.stack_end == layout.globals_base
        assert layout.globals_end == layout.total_size

    def test_arena_of_classification(self):
        layout = ArenaLayout()
        assert layout.arena_of(0) == "null"
        assert layout.arena_of(NULL_GUARD_SIZE - 1) == "null"
        assert layout.arena_of(layout.heap_base) == "heap"
        assert layout.arena_of(layout.stack_base) == "stack"
        assert layout.arena_of(layout.globals_base) == "globals"
        assert layout.arena_of(layout.total_size) == "wild"
        assert layout.arena_of(-1) == "wild"

    def test_rejects_unaligned_sizes(self):
        with pytest.raises(ValueError):
            ArenaLayout(heap_size=100)

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            ArenaLayout(stack_size=0)

    def test_total_size_segment_aligned(self):
        layout = ArenaLayout()
        assert layout.total_size % SEGMENT_SIZE == 0


class TestSharedDefaultLayout:
    """One frozen default layout serves every sanitizer and address
    space built without a layout."""

    @pytest.mark.parametrize("tool", sorted(SANITIZER_FACTORIES))
    def test_sanitizers_without_a_layout_share_one(self, tool):
        first = SANITIZER_FACTORIES[tool]()
        second = SANITIZER_FACTORIES[tool]()
        assert first.layout is DEFAULT_LAYOUT
        assert second.layout is DEFAULT_LAYOUT
        assert first.space.layout is DEFAULT_LAYOUT

    def test_address_space_without_a_layout_shares_it(self):
        assert AddressSpace().layout is DEFAULT_LAYOUT

    def test_it_is_the_default_layout(self):
        assert DEFAULT_LAYOUT == ArenaLayout()

    @pytest.mark.parametrize(
        "name", ["heap_size", "stack_size", "globals_size", "total_size"]
    )
    def test_assigning_to_it_raises(self, name):
        before = getattr(DEFAULT_LAYOUT, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(DEFAULT_LAYOUT, name, 1 << 12)
        assert getattr(DEFAULT_LAYOUT, name) == before

    @pytest.mark.parametrize("tool", ["ASan", "GiantSan"])
    def test_an_explicit_layout_is_honoured_with_its_own_image(
        self, tool, monkeypatch
    ):
        monkeypatch.setattr(sanitizer_base, "_SHADOW_IMAGES", {})
        small = ArenaLayout(
            heap_size=1 << 16, stack_size=1 << 14, globals_size=1 << 13
        )
        custom = SANITIZER_FACTORIES[tool](layout=small)
        default = SANITIZER_FACTORIES[tool]()
        assert custom.layout is small and custom.space.layout is small
        assert len(custom.space) == small.total_size
        assert len(custom.shadow) == small.total_size >> SEGMENT_SHIFT
        assert len(default.shadow) == DEFAULT_LAYOUT.total_size >> SEGMENT_SHIFT
        images = sanitizer_base._SHADOW_IMAGES
        assert set(images) == {
            (type(custom), small), (type(default), DEFAULT_LAYOUT)
        }
        assert images[type(custom), small] is not images[
            type(default), DEFAULT_LAYOUT
        ]
