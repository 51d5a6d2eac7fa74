"""Arena layout constants and alignment helpers for the simulated memory.

The simulated process uses a single flat address range partitioned into
arenas, mirroring how ASan lays out heap, stack and globals in distinct
address regions.  All sanitizers in this package share these constants so
their shadow mappings agree.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Size of one shadow segment in bytes (ASan and GiantSan both use 8).
SEGMENT_SIZE = 8

#: log2(SEGMENT_SIZE); shadow index of address ``a`` is ``a >> SEGMENT_SHIFT``.
SEGMENT_SHIFT = 3

#: Object alignment guaranteed by the allocator (paper §4.1: 8-byte aligned).
OBJECT_ALIGNMENT = 8

#: Default redzone placed after (and before) each heap object, in bytes.
#: The paper's default configuration uses 16 (Table 2 caption).
DEFAULT_REDZONE = 16

#: Minimal redzone usable by GiantSan's anchor-based enhancement (§4.4.1).
MIN_REDZONE = 1

#: Default quarantine budget in bytes (compiler-rt default is 256 MiB; we
#: scale it to the simulated arena size).
DEFAULT_QUARANTINE_BYTES = 1 << 20

#: Null page: the first page is never allocatable so null dereferences trap.
NULL_GUARD_SIZE = 4096


def align_up(value: int, alignment: int = OBJECT_ALIGNMENT) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a positive power of two: {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)


def align_down(value: int, alignment: int = OBJECT_ALIGNMENT) -> int:
    """Round ``value`` down to the previous multiple of ``alignment``."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a positive power of two: {alignment}")
    return value & ~(alignment - 1)


def is_aligned(value: int, alignment: int = OBJECT_ALIGNMENT) -> bool:
    """True when ``value`` is a multiple of ``alignment``."""
    return value & (alignment - 1) == 0


def segment_index(address: int) -> int:
    """Shadow segment index covering ``address``."""
    return address >> SEGMENT_SHIFT


def segment_offset(address: int) -> int:
    """Offset of ``address`` inside its segment (``address % 8``)."""
    return address & (SEGMENT_SIZE - 1)


def segments_spanned(address: int, size: int) -> int:
    """Number of shadow segments the region ``[address, address+size)`` touches."""
    if size <= 0:
        return 0
    first = segment_index(address)
    last = segment_index(address + size - 1)
    return last - first + 1


@dataclass(frozen=True)
class ArenaLayout:
    """Address-range plan for the simulated process.

    The heap, stack, and globals arenas are carved out of one contiguous
    range of ``total_size`` bytes, backed by a lazily zeroed mapping
    whose pages the kernel provides only as a run touches them.  The
    ``total_size >> SEGMENT_SHIFT`` shadow bytes are allocated up front,
    as a copy of the tool's initial shadow image.
    """

    heap_size: int = 1 << 22
    stack_size: int = 1 << 20
    globals_size: int = 1 << 18

    # Derived bounds (``heap_base`` .. ``total_size``) are materialized
    # once in ``__post_init__`` rather than exposed as properties: the
    # bounds checks on every load/store read them, so recomputing the
    # arena sums per access was a measurable fraction of sweep wall-clock.

    def __post_init__(self) -> None:
        for name in ("heap_size", "stack_size", "globals_size"):
            value = getattr(self, name)
            if value <= 0 or not is_aligned(value, SEGMENT_SIZE):
                raise ValueError(f"{name} must be positive and 8-byte aligned")
        assign = object.__setattr__
        assign(self, "heap_base", NULL_GUARD_SIZE)
        assign(self, "heap_end", NULL_GUARD_SIZE + self.heap_size)
        assign(self, "stack_base", self.heap_end)
        assign(self, "stack_end", self.stack_base + self.stack_size)
        assign(self, "globals_base", self.stack_end)
        assign(self, "globals_end", self.globals_base + self.globals_size)
        assign(self, "total_size", self.globals_end)

    def arena_of(self, address: int) -> str:
        """Name of the arena containing ``address``.

        Returns one of ``"null"``, ``"heap"``, ``"stack"``, ``"globals"``,
        or ``"wild"`` for addresses outside every arena.
        """
        if 0 <= address < NULL_GUARD_SIZE:
            return "null"
        if self.heap_base <= address < self.heap_end:
            return "heap"
        if self.stack_base <= address < self.stack_end:
            return "stack"
        if self.globals_base <= address < self.globals_end:
            return "globals"
        return "wild"


#: The layout of every sanitizer and address space built without one.
#: It is frozen, so one instance serves the whole process.
DEFAULT_LAYOUT = ArenaLayout()
