"""LFP: low-fat-pointer baseline (Duck & Yap, CC 2016 / NDSS 2017).

LFP is the rounded-up-bound representative the paper compares against
(BBC itself is not publicly available; §5.1).  Allocations are placed in
power-of-two-with-midpoints size classes, and a pointer's bounds are
recomputed from its value in O(1) — no shadow scan, no redzones.  Two
consequences the evaluation relies on:

* **False negatives in the slack**: an access past the requested size
  but inside the rounded size class is indistinguishable from a valid
  access (Table 3's 4/1504 heap overflows caught; §2.1's ``p[700]`` on
  a 600-byte buffer).
* **Extra instructions**: each check pays the base-derivation ALU work
  (``CHECK_ARITHMETIC_OVERHEAD``), and every function entry pays for the
  parallel stack LFP simulates to satisfy its alignment requirements
  (``STACK_SIMULATION_OVERHEAD``) — the cost the paper cites as the
  reason LFP loses to GiantSan despite O(1) bounds (§5.2).

Heap-only protection: stack variables are not placed in size classes, so
stack overflows pass unchecked (Table 3's 49/1439).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import AccessType, ErrorKind
from ..memory import low_fat_policy
from ..memory.allocator import Allocation
from ..memory.stack import StackFrame
from .base import AccessCache, Capabilities, FirstStage, FoldResult, Sanitizer

#: Effective extra cycles per check for the base-derivation arithmetic —
#: a few ALU ops that pipeline well next to the access itself.
CHECK_ARITHMETIC_OVERHEAD = 0.5

#: Per-frame cost of the parallel stack LFP simulates to satisfy its
#: alignment requirements (§5.2) — charged on function entry.
STACK_SIMULATION_OVERHEAD = 10


class LFP(Sanitizer):
    """Pointer-derived bounds with low-fat size classes."""

    name = "LFP"
    capabilities = Capabilities(
        constant_time_region=True,
        history_caching=False,
        anchor_checks=True,
        check_elimination=False,
        temporal=True,
    )

    def __init__(self, layout=None, **kwargs):
        kwargs.setdefault("redzone", 0)
        kwargs.setdefault("size_policy", low_fat_policy)
        # LFP has no quarantine; freed regions are immediately reusable.
        kwargs.setdefault("quarantine_bytes", 0)
        super().__init__(layout=layout, **kwargs)
        #: Live bounds keyed by object base — the O(1) analogue of
        #: deriving the region from the pointer value.
        self._bounds: Dict[int, Allocation] = {}
        #: Bases of freed allocations.  LFP has no liveness metadata —
        #: the region is recomputed from the pointer value — but a freed
        #: *base* pointer resolves to a region whose allocation bit is
        #: clear, which is the one temporal case it catches (Juliet's
        #: CWE416 uses base pointers; an aliased interior pointer like
        #: libzip's CVE-2017-12858 silently re-derives a region).
        self._freed_bases: set = set()

    # ------------------------------------------------------------------
    # allocation hooks maintain the bounds table instead of shadow
    # ------------------------------------------------------------------
    #: LFP's metadata maintenance is a size-class computation, far
    #: cheaper than redzone poisoning — its advantage on alloc-heavy
    #: programs like omnetpp (Table 2).
    ALLOC_BOOKKEEPING = 6
    FREE_BOOKKEEPING = 4

    def _poison_alloc(self, allocation: Allocation) -> None:
        self._bounds[allocation.base] = allocation
        self._freed_bases.discard(allocation.base)
        self.stats.extra_instructions += self.ALLOC_BOOKKEEPING

    def _poison_free(self, allocation: Allocation) -> None:
        self._bounds.pop(allocation.base, None)
        self._freed_bases.add(allocation.base)
        self.stats.extra_instructions += self.FREE_BOOKKEEPING

    def _unpoison_chunk(self, allocation: Allocation) -> None:
        pass

    def _metadata_bytes(self) -> int:
        # no shadow: just the per-region bound entries (~16B each)
        return 16 * len(self._bounds)

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def _lookup(self, base: int) -> Optional[Allocation]:
        """O(1) bound derivation from the pointer value.

        Real LFP computes the region base with bit arithmetic on the
        pointer — no metadata load — so only ALU work is charged (the
        per-check ``extra_instructions`` below).
        """
        return self._bounds.get(base)

    def check_access(self, address: int, width: int, access: AccessType) -> bool:
        """Instruction check with the pointer itself as its own base.

        Without the original base pointer LFP can only verify the access
        lies in *some* live region — matching its behaviour when the tag
        recovery falls back to the address value.
        """
        stats = self.stats
        stats.checks_executed += 1
        stats.instruction_checks += 1
        stats.extra_instructions += CHECK_ARITHMETIC_OVERHEAD
        # inline arena classification: the heap arena starts right after
        # the null guard, so anything below heap_base (and non-negative)
        # is the null page; stack/globals/wild are unprotected
        if not self._heap_base <= address < self._heap_end:
            if 0 <= address < self._heap_base:
                # a null pointer derives no low-fat region: always caught
                self._report(
                    ErrorKind.NULL_DEREFERENCE, address, width, access
                )
                return False
            return True  # stack/globals are unprotected
        allocation = self._find_region(address)
        if allocation is None:
            if address in self._freed_bases:
                self._report(
                    ErrorKind.USE_AFTER_FREE, address, width, access,
                    detail="freed low-fat region",
                )
                return False
            # region re-derived from the value: no liveness to check
            return True
        if address + width > allocation.usable_end:
            self._report(
                ErrorKind.HEAP_BUFFER_OVERFLOW, address, width, access,
                detail="beyond size class",
            )
            return False
        return True

    def check_region(
        self,
        start: int,
        end: int,
        access: AccessType,
        anchor: Optional[int] = None,
    ) -> bool:
        """Bounds test ``[start, end) subset-of region(anchor)`` in O(1)."""
        if end <= start:
            return True
        stats = self.stats
        stats.checks_executed += 1
        # LFP's operation-level test compiles to the same compare+branch
        # as an instruction check (no metadata load, no CI call): charge
        # it as one.
        stats.instruction_checks += 1
        stats.extra_instructions += CHECK_ARITHMETIC_OVERHEAD
        base = anchor if anchor is not None else start
        # inline arena classification (see check_access)
        if not self._heap_base <= base < self._heap_end:
            if 0 <= base < self._heap_base:
                self._report(
                    ErrorKind.NULL_DEREFERENCE, start, end - start, access
                )
                return False
            return True
        allocation = self._bounds.get(base)
        if allocation is None:
            allocation = self._find_region(base)
        if allocation is None:
            if base in self._freed_bases:
                self._report(
                    ErrorKind.USE_AFTER_FREE, start, end - start, access,
                    detail="freed low-fat region",
                )
                return False
            # an interior/aliased pointer into dead memory re-derives a
            # plausible region: LFP cannot tell it is gone
            return True
        self.stats.fast_checks += 1
        if start < allocation.base:
            self._report(
                ErrorKind.HEAP_BUFFER_UNDERFLOW, start, end - start, access
            )
            return False
        if end > allocation.usable_end:
            self._report(
                ErrorKind.HEAP_BUFFER_OVERFLOW,
                allocation.usable_end,
                end - start,
                access,
                detail="beyond size class",
            )
            return False
        return True

    first_stages = (
        # the base is in the heap arena and names a live allocation whose
        # usable bytes hold the non-empty [start, end)
        FirstStage(
            check_region,
            test=(
                "{start} < {end} and HEAP_BASE <= {base} < HEAP_END"
                " and (_al := BOUNDS({base})) is not None"
                " and _al.base <= {start}"
                " and {end} <= _al.base + _al.usable_size"
            ),
            counts=(
                ("checks_executed", 1),
                ("instruction_checks", 1),
                ("extra_instructions", CHECK_ARITHMETIC_OVERHEAD),
                ("fast_checks", 1),
            ),
            bindings=(
                ("HEAP_BASE", "san._heap_base"),
                ("HEAP_END", "san._heap_end"),
                ("BOUNDS", "san._bounds.get"),
            ),
            protection="fast_only",
        ),
    )

    def check_cached(
        self,
        cache: AccessCache,
        base: int,
        offset: int,
        width: int,
        access: AccessType,
    ) -> bool:
        return self.check_region(
            base + offset, base + offset + width, access, anchor=base
        )

    # ------------------------------------------------------------------
    # bulk-check folding (superblock fast path)
    # ------------------------------------------------------------------
    def fold_region_checks(
        self,
        count: int,
        base: int,
        start: int,
        start_stride: int,
        end: int,
        end_stride: int,
        access: AccessType,
        use_anchor: bool,
    ) -> Optional[FoldResult]:
        """Fold ``count`` anchored region checks over a strided walk.

        LFP's per-check work is O(1) and depends only on the anchor's
        region and the extreme endpoints, so when every iteration's
        bounds test passes the counters follow arithmetically.  Any
        iteration that would report (or take a different stats path)
        declines, deferring to the per-iteration reference.
        """
        if count <= 0:
            return FoldResult()
        if not use_anchor:
            return None
        last_start = start + (count - 1) * start_stride
        last_end = end + (count - 1) * end_stride
        # width is linear in the iteration index: its minimum is at an
        # endpoint.  A non-positive width anywhere would take the
        # early-return (stat-free) path for that iteration only: decline.
        if min(end - start, last_end - last_start) <= 0:
            return None
        per_check = FoldResult(
            stat_deltas={
                "checks_executed": count,
                "instruction_checks": count,
                "extra_instructions": CHECK_ARITHMETIC_OVERHEAD * count,
            }
        )
        arena = self.space.arena_of(base)
        if arena == "null":
            return None  # every iteration reports: fall back
        if arena != "heap":
            per_check.full_check = count
            return per_check
        allocation = self._lookup(base)
        if allocation is None:
            allocation = self._find_region(base)
        if allocation is None:
            if base in self._freed_bases:
                return None  # use-after-free reports: fall back
            per_check.full_check = count
            return per_check
        # Region found: each check charges one fast check, then passes
        # iff the extreme bounds stay inside the size class.
        if min(start, last_start) < allocation.base:
            return None
        if max(end, last_end) > allocation.usable_end:
            return None
        per_check.stat_deltas["fast_checks"] = count
        per_check.fast_only = count
        return per_check

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _find_region(self, address: int) -> Optional[Allocation]:
        """Containing live region by address (models base derivation from
        the pointer value; slack bytes are inside the region)."""
        allocation = self._bounds.get(address)
        if allocation is not None:
            return allocation
        for candidate in self._bounds.values():
            if candidate.base <= address < candidate.usable_end:
                return candidate
        return None

    def _poison_stack_frame(self, frame: StackFrame) -> None:
        # LFP's high alignment requirement prevents cheap stack
        # protection (paper §5.2): the stack stays unguarded, but a
        # parallel stack must be simulated for compatible layout.
        self.stats.extra_instructions += STACK_SIMULATION_OVERHEAD

    def _poison_stack_pop(self, frame: StackFrame) -> None:
        pass
