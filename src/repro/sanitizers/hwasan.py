"""HWASAN-style tag-based sanitizer (Serebryany et al. 2018).

The paper's Related Work (§6) contrasts GiantSan with hardware-assisted
address sanitizing: memory is split into 16-byte *granules*, each granule
carries an 8-bit tag in shadow, and every pointer carries a tag in its
top byte (Top-Byte-Ignore).  A check compares the pointer's tag with the
accessed granule's tag — one load and one compare per access, no
redzones, and use-after-free detection by retagging on free.

Two properties the paper highlights are directly observable here:

* **no protection-density gain** — a region check still visits one
  granule tag per 16 bytes (the "low protection density issue" that
  motivates GiantSan);
* **probabilistic detection** — distinct allocations receive distinct
  tags only with probability 255/256 per pair; a tag collision is a
  false negative (``TAG_SPACE`` makes this testable deterministically).

This baseline is an *extension* of the reproduction: it is not part of
the paper's Table 2 (HWASAN needs AArch64 TBI hardware), but it lets the
benchmarks contrast segment folding with memory tagging.
"""

from __future__ import annotations

from typing import Optional

from ..errors import AccessType, ErrorKind
from ..memory.allocator import Allocation
from ..memory.stack import StackFrame
from .base import Capabilities, Sanitizer

#: Granule size in bytes (HWASAN uses 16).
GRANULE_SIZE = 16
GRANULE_SHIFT = 4

#: Pointer tags live in bits 56..63 (Top-Byte-Ignore).
TAG_SHIFT = 56
ADDRESS_MASK = (1 << TAG_SHIFT) - 1

#: Number of distinct non-zero tags.  Real HWASAN uses 255; keeping the
#: real value preserves the 1/255 collision probability.
TAG_SPACE = 255

#: Tag for never-allocated memory (matches no pointer tag).
FREE_TAG = 0


def pointer_tag(pointer: int) -> int:
    """The tag byte carried in a pointer's top bits."""
    return (pointer >> TAG_SHIFT) & 0xFF


def untag(pointer: int) -> int:
    """The raw address with the tag stripped (what TBI hardware does)."""
    return pointer & ADDRESS_MASK


def with_tag(address: int, tag: int) -> int:
    """Attach ``tag`` to ``address``."""
    return (address & ADDRESS_MASK) | ((tag & 0xFF) << TAG_SHIFT)


class HWASan(Sanitizer):
    """Memory tagging over 16-byte granules with top-byte pointer tags."""

    name = "HWASan"
    capabilities = Capabilities(
        constant_time_region=False,
        history_caching=False,
        anchor_checks=False,
        check_elimination=False,
        temporal=True,
    )

    def __init__(self, layout=None, **kwargs):
        # everything must be granule-aligned: the "redzone" here is only
        # the padding that rounds objects to 16-byte boundaries — its
        # bytes carry the FREE tag, so adjacent overflow is caught by
        # tag mismatch, not by dedicated poison values
        kwargs.setdefault("redzone", GRANULE_SIZE)
        kwargs.setdefault("quarantine_bytes", 0)
        kwargs.setdefault(
            "size_policy", lambda size: (size + GRANULE_SIZE - 1) & ~15
        )
        super().__init__(layout=layout, **kwargs)
        # rebuild stack/global allocators with granule alignment
        from ..memory import GlobalAllocator, StackAllocator

        self.stack = StackAllocator(
            self.space, redzone=GRANULE_SIZE, alignment=GRANULE_SIZE
        )
        self.globals = GlobalAllocator(
            self.space, redzone=GRANULE_SIZE, alignment=GRANULE_SIZE
        )
        #: Granule tag table (the HWASAN shadow: 1 byte per 16 bytes).
        self._tags = bytearray(self.layout.total_size >> GRANULE_SHIFT)
        self._next_tag = 1

    # ------------------------------------------------------------------
    # tag plumbing
    # ------------------------------------------------------------------
    def _fresh_tag(self) -> int:
        tag = self._next_tag
        self._next_tag += 1
        if self._next_tag > TAG_SPACE:
            self._next_tag = 1
        return tag

    def _set_granule_tags(self, base: int, size: int, tag: int) -> None:
        first = base >> GRANULE_SHIFT
        count = (size + GRANULE_SIZE - 1) >> GRANULE_SHIFT
        self._tags[first : first + count] = bytes([tag]) * count
        self.stats.shadow_stores += count

    def granule_tag(self, address: int) -> int:
        return self._tags[address >> GRANULE_SHIFT]

    def _metadata_bytes(self) -> int:
        # the tag table: 1 byte per 16, half of ASan-family shadow
        return len(self._tags)

    def resolve_address(self, pointer: int) -> int:
        """Strip the tag before the real memory access (TBI)."""
        return pointer & ADDRESS_MASK

    # ------------------------------------------------------------------
    # allocation hooks: tag instead of poisoning
    # ------------------------------------------------------------------
    def _malloc(self, size: int) -> Allocation:
        allocation = super()._malloc(size)
        # hand out a *tagged* pointer: callers use allocation.base, so
        # the tag is stored onto the base attribute itself
        tag = self._fresh_tag()
        self._set_granule_tags(allocation.base, allocation.usable_size, tag)
        allocation.base = with_tag(allocation.base, tag)
        return allocation

    def _free(self, address: int) -> None:
        raw = untag(address)
        allocation = self.allocator.lookup(raw)
        if allocation is not None and pointer_tag(address) != self.granule_tag(raw):
            # stale pointer into a recycled chunk: report, don't free
            self._report(
                ErrorKind.USE_AFTER_FREE, raw, 0, AccessType.FREE,
                detail="tag mismatch on free",
            )
            return
        super()._free(raw)

    def _poison_alloc(self, allocation: Allocation) -> None:
        pass  # tags are written in malloc (needs the fresh tag)

    def _poison_free(self, allocation: Allocation) -> None:
        # retag with the free tag: any dangling tagged pointer mismatches
        self._set_granule_tags(
            untag(allocation.base), allocation.usable_size, FREE_TAG
        )
        self.stats.extra_instructions += 8

    def _unpoison_chunk(self, allocation: Allocation) -> None:
        allocation.base = untag(allocation.base)

    def _poison_stack_frame(self, frame: StackFrame) -> None:
        for variable in frame.variables:
            tag = self._fresh_tag()
            self._set_granule_tags(variable.base, variable.size, tag)
            variable.base = with_tag(variable.base, tag)

    def _poison_stack_pop(self, frame: StackFrame) -> None:
        for variable in frame.variables:
            self._set_granule_tags(
                untag(variable.base), variable.size, FREE_TAG
            )

    def _poison_global(self, variable) -> None:
        tag = self._fresh_tag()
        self._set_granule_tags(variable.base, variable.size, tag)
        variable.base = with_tag(variable.base, tag)

    # ------------------------------------------------------------------
    # checks: tag comparison per granule
    # ------------------------------------------------------------------
    def _check_granules(
        self, pointer: int, raw_start: int, raw_end: int, access: AccessType
    ) -> bool:
        expected = pointer_tag(pointer)
        if raw_start < 0 or raw_end > self.layout.total_size:
            self._report(
                ErrorKind.WILD_ACCESS, raw_start, raw_end - raw_start, access
            )
            return False
        granule = raw_start >> GRANULE_SHIFT
        last = (raw_end - 1) >> GRANULE_SHIFT
        while granule <= last:
            self.stats.shadow_loads += 1
            self.stats.segments_scanned += 1
            actual = self._tags[granule]
            if actual != expected:
                # a tag mismatch does not say *why* (real HWASAN guesses
                # from allocation history): if the preceding granule still
                # carries the pointer's tag, this is a contiguous run off
                # the end of the object — an overflow; otherwise the
                # object itself was retagged, i.e. freed.
                previous = self._tags[granule - 1] if granule else FREE_TAG
                if actual != FREE_TAG or previous == expected:
                    kind = ErrorKind.HEAP_BUFFER_OVERFLOW
                else:
                    kind = ErrorKind.USE_AFTER_FREE
                arena = self.space.arena_of(granule << GRANULE_SHIFT)
                if arena == "stack":
                    # stack mismatches are reported as overflows; HWASAN
                    # cannot tell a gap hit from a popped frame by tags
                    kind = ErrorKind.STACK_BUFFER_OVERFLOW
                elif arena == "globals":
                    kind = ErrorKind.GLOBAL_BUFFER_OVERFLOW
                self._report(
                    kind,
                    granule << GRANULE_SHIFT,
                    raw_end - raw_start,
                    access,
                    shadow_value=actual,
                    detail=f"tag {actual:#04x} != pointer tag {expected:#04x}",
                )
                return False
            granule += 1
        return True

    def check_access(self, address: int, width: int, access: AccessType) -> bool:
        self.stats.checks_executed += 1
        self.stats.instruction_checks += 1
        raw = untag(address)
        if untag(address) < (1 << 12) and pointer_tag(address) == 0:
            self._report(ErrorKind.NULL_DEREFERENCE, raw, width, access)
            return False
        return self._check_granules(address, raw, raw + width, access)

    def check_region(
        self,
        start: int,
        end: int,
        access: AccessType,
        anchor: Optional[int] = None,
    ) -> bool:
        """Tag comparison per granule: linear, like ASan's guardian —
        HWASAN does not improve protection density (paper §6)."""
        if end <= start:
            return True
        self.stats.checks_executed += 1
        self.stats.region_checks += 1
        pointer = anchor if anchor is not None else start
        return self._check_granules(pointer, untag(start), untag(end), access)
