"""AddressSanitizer baseline (Serebryany et al. 2012), instruction level.

Every <=8-byte access is guarded by one shadow load plus a partial-prefix
comparison (paper Example 1).  Region operations (memset/memcpy/str*) go
through a guardian that scans shadow *linearly*, one load per segment —
the low-protection-density behaviour GiantSan is built to fix: a 1 KiB
region costs 128 shadow loads here and 1-4 in GiantSan.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from ..errors import AccessType, ErrorKind
from ..memory.allocator import Allocation
from ..memory.layout import SEGMENT_SIZE, segment_index, segment_offset
from ..memory.stack import StackFrame
from ..shadow import asan_encoding as enc
from ..shadow.oracle import bulk_region_is_addressable, scan_region
from .base import Capabilities, FirstStage, FoldResult, Sanitizer


def _straddle_count(address: int, stride: int, width: int, count: int) -> int:
    """How many of ``count`` strided accesses straddle a segment boundary.

    ``address % 8`` cycles with period ``8 / gcd(stride, 8)``, so one
    period is enumerated and scaled — O(1) instead of O(count).
    """
    period = SEGMENT_SIZE // gcd(stride % SEGMENT_SIZE or SEGMENT_SIZE,
                                 SEGMENT_SIZE)
    period = min(period, count)
    per_period = sum(
        1
        for i in range(period)
        if (address + i * stride) % SEGMENT_SIZE + width > SEGMENT_SIZE
    )
    full_cycles, remainder = divmod(count, period)
    tail = sum(
        1
        for i in range(remainder)
        if (address + i * stride) % SEGMENT_SIZE + width > SEGMENT_SIZE
    )
    return full_cycles * per_period + tail


def _write_global_states(shadow, variable, good_code: int) -> int:
    """Object byte-states for one global (the surrounding arena is
    already pre-poisoned with the global redzone code).  Returns the
    shadow bytes written."""
    index = segment_index(variable.base)
    full, tail = divmod(variable.size, SEGMENT_SIZE)
    if full:
        shadow.fill(index, full, good_code)
    if tail:
        shadow.store(index + full, tail)
    return full + (1 if tail else 0)


class ASan(Sanitizer):
    """Instruction-level location-based sanitizer with linear region scans."""

    name = "ASan"
    capabilities = Capabilities(
        constant_time_region=False,
        history_caching=False,
        anchor_checks=False,
        check_elimination=False,
        temporal=True,
    )

    # ------------------------------------------------------------------
    # shadow maintenance
    # ------------------------------------------------------------------
    def _poison_null_page(self) -> None:
        # null guard page, plus the not-yet-allocated heap and stack
        # arenas: real ASan leaves unmapped pages inaccessible, which the
        # pre-poison models (allocation hooks unpoison what they carve)
        self.shadow.fill(0, self.layout.heap_base >> 3, enc.NULL_PAGE)
        self.shadow.fill(
            segment_index(self.layout.heap_base),
            (self.layout.heap_end - self.layout.heap_base) >> 3,
            enc.HEAP_LEFT_REDZONE,
        )
        self.shadow.fill(
            segment_index(self.layout.stack_base),
            (self.layout.stack_end - self.layout.stack_base) >> 3,
            enc.STACK_MID_REDZONE,
        )
        self.shadow.fill(
            segment_index(self.layout.globals_base),
            (self.layout.globals_end - self.layout.globals_base) >> 3,
            enc.GLOBAL_REDZONE,
        )

    #: Flat extra work per malloc/free: redzone setup and quarantine
    #: bookkeeping beyond the shadow writes themselves.
    ALLOC_BOOKKEEPING = 50
    FREE_BOOKKEEPING = 40

    def _poison_alloc(self, allocation: Allocation) -> None:
        # shadow-store traffic is charged as the bytes the poisoning
        # actually wrote (the encoding reports them), so the counter
        # stays comparable across size policies
        self.stats.shadow_stores += enc.poison_allocation(
            self.shadow, allocation
        )
        self.stats.extra_instructions += self.ALLOC_BOOKKEEPING

    def _poison_free(self, allocation: Allocation) -> None:
        self.stats.shadow_stores += enc.poison_freed(self.shadow, allocation)
        self.stats.extra_instructions += self.FREE_BOOKKEEPING

    def _unpoison_chunk(self, allocation: Allocation) -> None:
        # leaving quarantine only makes the chunk *reusable*; its shadow
        # stays freed-poisoned until a new allocation repoisons it, so a
        # use-after-free is caught right up to actual reuse (compiler-rt
        # behaves the same way)
        pass

    def _poison_global(self, variable) -> None:
        # charge exactly the object-state bytes written (the arena's
        # redzone pre-poison happened at construction time)
        self.stats.shadow_stores += _write_global_states(
            self.shadow, variable, enc.GOOD
        )

    def _poison_stack_frame(self, frame: StackFrame) -> None:
        first = segment_index(frame.base)
        count = (frame.size + SEGMENT_SIZE - 1) >> 3
        self.shadow.fill(first, count, enc.STACK_MID_REDZONE)
        written = count
        for var in frame.variables:
            index = segment_index(var.base)
            full, tail = divmod(var.size, SEGMENT_SIZE)
            if full:
                self.shadow.fill(index, full, enc.GOOD)
            if tail:
                self.shadow.store(index + full, tail)
            written += full + (1 if tail else 0)
        self.stats.shadow_stores += written

    def _poison_stack_pop(self, frame: StackFrame) -> None:
        first = segment_index(frame.base)
        count = (frame.size + SEGMENT_SIZE - 1) >> 3
        self.shadow.fill(first, count, enc.STACK_AFTER_RETURN)
        self.stats.shadow_stores += count

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def check_access(self, address: int, width: int, access: AccessType) -> bool:
        """One instruction-level check: 1-2 shadow loads.

        The shadow probe from :func:`asan_encoding.check_small_access`
        is inlined on the raw shadow mapping — this is the hottest
        call in a Table 2 sweep, and the method-call indirection costs
        more than the check itself.  Accounting is identical: a
        straddling access charges two shadow loads even when the first
        byte already faults, exactly as before.
        """
        stats = self.stats
        stats.checks_executed += 1
        stats.instruction_checks += 1
        if address < 0 or address + width > self._total_size:
            self._report(
                ErrorKind.WILD_ACCESS, address, width, access, detail="wild"
            )
            return False
        shadow = self.shadow._shadow
        index = address >> 3
        reach = (address & (SEGMENT_SIZE - 1)) + width
        code = shadow[index]
        if reach <= SEGMENT_SIZE:
            stats.shadow_loads += 1
            # addressable_prefix: GOOD -> 8, partial 1..7 -> k, poison -> 0
            if code == enc.GOOD or reach <= (code if code <= 7 else 0):
                return True
            self._report_code(code, address, width, access)
            return False
        stats.shadow_loads += 2
        if code != enc.GOOD:
            self._report_code(code, address, width, access)
            return False
        code2 = shadow[index + 1]
        tail = reach - SEGMENT_SIZE
        if code2 == enc.GOOD or tail <= (code2 if code2 <= 7 else 0):
            return True
        self._report_code(code2, address, width, access)
        return False

    first_stages = (
        # in range, inside one segment, and that segment's shadow GOOD
        FirstStage(
            check_access,
            test=(
                "0 <= {address} and {address} + {width} <= TOP"
                f" and ({{address}} & {SEGMENT_SIZE - 1})"
                f" <= {SEGMENT_SIZE} - {{width}}"
                f" and SHADOW[{{address}} >> 3] == {enc.GOOD}"
            ),
            counts=(
                ("checks_executed", 1),
                ("instruction_checks", 1),
                ("shadow_loads", 1),
            ),
            bindings=(
                ("SHADOW", "san.shadow._shadow"),
                ("TOP", "san._total_size"),
            ),
            protection="full_check",  # fast_checks does not move
        ),
    )

    def check_region(
        self,
        start: int,
        end: int,
        access: AccessType,
        anchor: Optional[int] = None,
    ) -> bool:
        """Guardian-style linear scan: one shadow load per segment.

        ASan ignores ``anchor`` — it protects only the touched bytes,
        which is what makes its redzones bypassable (paper §4.4.1).

        Implemented with the zero-copy bulk shadow scan (no snapshot is
        taken) but *accounted* per segment: shadow loads and segments
        scanned are charged for every segment the reference walk would
        have visited, so CheckStats are byte-identical across both
        engines.
        """
        if end <= start:
            return True
        self.stats.checks_executed += 1
        self.stats.region_checks += 1
        if start < 0 or end > self.layout.total_size:
            self._report(
                ErrorKind.WILD_ACCESS, start, end - start, access, detail="wild"
            )
            return False
        ok, fault, visited = scan_region(
            self.shadow, start, end, enc.addressable_prefix
        )
        self.stats.shadow_loads += visited
        self.stats.segments_scanned += visited
        if ok:
            return True
        code = self.shadow.load(segment_index(start) + visited - 1)
        self._report_code(code, fault, end - start, access)
        return False

    # ------------------------------------------------------------------
    # bulk-check folding (superblock fast path)
    # ------------------------------------------------------------------
    def fold_access_checks(
        self,
        count: int,
        address: int,
        stride: int,
        width: int,
        access: AccessType,
    ) -> Optional[FoldResult]:
        """Fold ``count`` instruction checks over a strided walk.

        Eligible only when the covering byte range is entirely
        addressable — then every per-iteration check is known to pass
        (an access passes iff all its bytes are addressable) and the
        counters follow arithmetically.  Anything else (wild addresses,
        poison anywhere in the covering range, even in unaccessed gaps)
        conservatively declines so the per-iteration path produces the
        report-exact behaviour.
        """
        if count <= 0:
            return FoldResult()
        last = address + (count - 1) * stride
        lo, hi = min(address, last), max(address, last) + width
        if lo < 0 or hi > self.layout.total_size:
            return None
        ok, _ = bulk_region_is_addressable(
            self.shadow, lo, hi, enc.addressable_prefix
        )
        if not ok:
            return None
        return FoldResult(
            stat_deltas={
                "checks_executed": count,
                "instruction_checks": count,
                "shadow_loads": count
                + _straddle_count(address, stride, width, count),
            },
            full_check=count,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _report_code(
        self, code: int, address: int, size: int, access: AccessType
    ) -> None:
        kind = enc.classify(code)
        if kind is ErrorKind.UNKNOWN and enc.is_partial(code):
            kind = ErrorKind.HEAP_BUFFER_OVERFLOW
        arena = self.space.arena_of(address)
        if kind in (
            ErrorKind.HEAP_BUFFER_OVERFLOW,
            ErrorKind.HEAP_BUFFER_UNDERFLOW,
        ):
            if arena == "stack":
                kind = ErrorKind.STACK_BUFFER_OVERFLOW
            elif arena == "globals":
                kind = ErrorKind.GLOBAL_BUFFER_OVERFLOW
        self._report(kind, address, size, access, shadow_value=code)
