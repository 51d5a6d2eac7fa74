"""Simulated process memory: arenas, allocator, quarantine, stack."""

from .layout import (
    SEGMENT_SIZE,
    SEGMENT_SHIFT,
    OBJECT_ALIGNMENT,
    DEFAULT_REDZONE,
    MIN_REDZONE,
    ArenaLayout,
    DEFAULT_LAYOUT,
    align_up,
    align_down,
    is_aligned,
    segment_index,
    segment_offset,
    segments_spanned,
)
from .address_space import AddressSpace
from .allocator import (
    Allocation,
    AllocationState,
    HeapAllocator,
    exact_size_policy,
    power_of_two_policy,
    low_fat_policy,
)
from .globals import GlobalAllocator, GlobalVariable
from .quarantine import Quarantine
from .stack import StackAllocator, StackFrame, StackVariable

__all__ = [
    "SEGMENT_SIZE",
    "SEGMENT_SHIFT",
    "OBJECT_ALIGNMENT",
    "DEFAULT_REDZONE",
    "MIN_REDZONE",
    "ArenaLayout",
    "DEFAULT_LAYOUT",
    "align_up",
    "align_down",
    "is_aligned",
    "segment_index",
    "segment_offset",
    "segments_spanned",
    "AddressSpace",
    "Allocation",
    "AllocationState",
    "HeapAllocator",
    "exact_size_policy",
    "power_of_two_policy",
    "low_fat_policy",
    "GlobalAllocator",
    "GlobalVariable",
    "Quarantine",
    "StackAllocator",
    "StackFrame",
    "StackVariable",
]
