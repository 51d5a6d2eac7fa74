"""GiantSan: location-based sanitizer with segment folding (the paper's
primary contribution).

Three runtime mechanisms live here:

* **Region checking** — :meth:`GiantSan.check_region` implements
  Algorithm 1 (``CI(L, R)``): a *fast check* answered by one shadow load
  (the folded segment at ``L``), and a *slow check* of at most three more
  loads covering the prefix / suffix / trailing-partial-segment cases.
  Constant time for regions of arbitrary size.
* **History caching** — :meth:`GiantSan.check_cached` implements the
  quasi-bound of Figure 9: accesses below the cached bound cost one
  comparison and zero metadata loads; a miss re-checks and extends the
  bound from the folded segment just visited (at most
  ``ceil(log2(n/8))`` misses per object when walking forward).
* **Anchor-based enhancement** (§4.4.1) — checks span
  ``[anchor, access_end)`` so a far out-of-bounds index cannot jump over
  a small redzone; this is what Table 5's php experiment measures.

Ablation variants (Table 2's CacheOnly / EliminationOnly columns) are
built by the factory helpers at the bottom.
"""

from __future__ import annotations

from typing import Optional

from ..errors import AccessType, ErrorKind
from ..memory.allocator import Allocation
from ..memory.layout import SEGMENT_SIZE, segment_index
from ..memory.stack import StackFrame
from ..shadow import giantsan_encoding as enc
from ..shadow.oracle import scan_region
from .base import AccessCache, Capabilities, FirstStage, Sanitizer

#: Codes <= this mark folded segments (Definition 1).
_FOLDED_MAX = enc.FOLDED_MAX_CODE


def _rewrite_kind_for_arena(kind: ErrorKind, arena: str) -> ErrorKind:
    """Partial-segment hits classify as heap overflow by default; refine
    by the arena the faulting byte actually lives in."""
    if kind is ErrorKind.UNKNOWN:
        kind = ErrorKind.HEAP_BUFFER_OVERFLOW
    if kind in (ErrorKind.HEAP_BUFFER_OVERFLOW, ErrorKind.HEAP_BUFFER_UNDERFLOW):
        if arena == "stack":
            return (
                ErrorKind.STACK_BUFFER_OVERFLOW
                if kind is ErrorKind.HEAP_BUFFER_OVERFLOW
                else ErrorKind.STACK_BUFFER_UNDERFLOW
            )
        if arena == "globals":
            return ErrorKind.GLOBAL_BUFFER_OVERFLOW
    return kind


class GiantSan(Sanitizer):
    """The GiantSan runtime over the folded shadow encoding."""

    name = "GiantSan"

    def __init__(
        self,
        layout=None,
        enable_caching: bool = True,
        enable_elimination: bool = True,
        enable_anchor: bool = True,
        enable_lower_bound: bool = False,
        **kwargs,
    ):
        super().__init__(layout=layout, **kwargs)
        self.enable_caching = enable_caching
        self.enable_elimination = enable_elimination
        self.enable_anchor = enable_anchor
        #: §5.4's proposed mitigation for reverse traversals: locate the
        #: object's lower bound by enumerating folding degrees and cache
        #: it as a quasi-lower-bound.  Off by default, as in the paper.
        self.enable_lower_bound = enable_lower_bound

    @property
    def capabilities(self) -> Capabilities:  # type: ignore[override]
        return Capabilities(
            constant_time_region=True,
            history_caching=self.enable_caching,
            anchor_checks=self.enable_anchor,
            check_elimination=self.enable_elimination,
            temporal=True,
        )

    # ------------------------------------------------------------------
    # shadow maintenance (folding-aware poisoning, §4.5)
    # ------------------------------------------------------------------
    def _poison_null_page(self) -> None:
        # null guard page, plus the unallocated heap/stack arenas (see
        # the ASan runtime for rationale; codes are shared)
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

    def _poison_global(self, variable) -> None:
        self.stats.shadow_stores += enc.poison_object_shadow(
            self.shadow, variable.base, variable.size
        )

    #: Flat extra work per malloc/free, matching ASan's bookkeeping (the
    #: paper keeps redzones and quarantine unchanged, §4.5).
    ALLOC_BOOKKEEPING = 50
    FREE_BOOKKEEPING = 40

    def _poison_alloc(self, allocation: Allocation) -> None:
        # charge the bytes the encoding reports having written, keeping
        # the counter honest across size policies
        self.stats.shadow_stores += enc.poison_allocation(
            self.shadow, allocation
        )
        self.stats.extra_instructions += self.ALLOC_BOOKKEEPING

    def _poison_free(self, allocation: Allocation) -> None:
        self.stats.shadow_stores += enc.poison_freed(self.shadow, allocation)
        self.stats.extra_instructions += self.FREE_BOOKKEEPING

    def _unpoison_chunk(self, allocation: Allocation) -> None:
        # as in the ASan runtime: the shadow stays freed-poisoned until a
        # new allocation claims the chunk and repoisons it
        pass

    def _poison_stack_frame(self, frame: StackFrame) -> None:
        first = segment_index(frame.base)
        count = (frame.size + SEGMENT_SIZE - 1) >> 3
        self.shadow.fill(first, count, enc.STACK_MID_REDZONE)
        written = count
        for var in frame.variables:
            written += enc.poison_object_shadow(
                self.shadow, var.base, var.size
            )
        self.stats.shadow_stores += written

    def _poison_stack_pop(self, frame: StackFrame) -> None:
        first = segment_index(frame.base)
        count = (frame.size + SEGMENT_SIZE - 1) >> 3
        self.shadow.fill(first, count, enc.STACK_AFTER_RETURN)
        self.stats.shadow_stores += count

    # ------------------------------------------------------------------
    # Algorithm 1: CI(L, R)
    # ------------------------------------------------------------------
    def check_region(
        self,
        start: int,
        end: int,
        access: AccessType,
        anchor: Optional[int] = None,
    ) -> bool:
        """Operation-level check of ``[start, end)`` in O(1) time.

        When ``anchor`` is given (and anchor checks are enabled) the
        checked region is widened to ``[anchor, end)`` so redzone
        bypassing is impossible.  Algorithm 1 assumes an 8-byte-aligned
        left endpoint; an unaligned head costs one extra shadow load.
        """
        if self.enable_anchor and anchor is not None:
            # widen to span the anchor in either direction: overflow checks
            # become CI(anchor, end), underflow checks CI(start, anchor) —
            # no redzone can be jumped over either way (§4.4.1, §4.3).
            if self.telemetry is not None and (
                anchor < start or anchor > end
            ):
                self.telemetry.incr("anchor_widened_checks")
            start = min(start, anchor)
            end = max(end, anchor)
        if end <= start:
            return True
        self.stats.checks_executed += 1
        self.stats.region_checks += 1
        ok = self._ci(start, end)
        if not ok:
            self._report_region(start, end, access)
        return ok

    def _ci(self, left: int, right: int) -> bool:
        """``CI(L, R)`` with head alignment handling; counts shadow loads.

        Shadow probes index the raw shadow mapping directly: ``CI`` runs
        on every operation-level check, and the ``ShadowMemory.load``
        call overhead dwarfs the one-byte read it wraps.
        """
        if left < 0 or right > self._total_size:
            return False  # wild access: no shadow exists for it
        head = left & (SEGMENT_SIZE - 1)
        if head:
            # Unaligned L: validate the tail of the first segment, then
            # restart Algorithm 1 from the next segment boundary.
            self.stats.shadow_loads += 1
            code = self.shadow._shadow[left >> 3]
            segment_end = (left | (SEGMENT_SIZE - 1)) + 1
            needed_end = min(right, segment_end)
            prefix = enc.addressable_prefix(code)
            if needed_end - (segment_end - SEGMENT_SIZE) > prefix:
                return False
            if right <= segment_end:
                return True
            left = segment_end
        return self._ci_aligned(left, right)

    def _ci_aligned(self, left: int, right: int) -> bool:
        """Algorithm 1 verbatim (L is a multiple of 8)."""
        stats = self.stats
        shadow = self.shadow._shadow
        first_index = left >> 3
        stats.shadow_loads += 1
        v = shadow[first_index]  # line 1
        u = (1 << (67 - v)) if v <= _FOLDED_MAX else 0  # line 2
        span = right - left
        if u >= span:  # line 3: fast check passed
            stats.fast_checks += 1
            return True
        stats.slow_checks += 1
        loaded = {first_index}
        if span >= SEGMENT_SIZE:  # line 4
            if 2 * u < span:  # line 5: prefix folding too small
                return False
            suffix_index = (right - u) >> 3  # line 8
            if suffix_index not in loaded:
                stats.shadow_loads += 1
                loaded.add(suffix_index)
            if shadow[suffix_index] != v:
                return False
        last_index = (right - 1) >> 3  # line 12
        if last_index not in loaded:
            stats.shadow_loads += 1
            loaded.add(last_index)
        if shadow[last_index] > enc.PARTIAL_BASE - (right & 7):
            return False
        return True

    # ------------------------------------------------------------------
    # instruction-level fallback (small accesses outside any operation)
    # ------------------------------------------------------------------
    def check_access(self, address: int, width: int, access: AccessType) -> bool:
        """Guard one access; still one shadow load in the common case."""
        self.stats.checks_executed += 1
        self.stats.instruction_checks += 1
        ok = self._ci(address, address + width)
        if not ok:
            self._report_region(address, address + width, access)
        return ok

    # ------------------------------------------------------------------
    # history caching (§4.3, Figure 9)
    # ------------------------------------------------------------------
    def make_cache(self) -> AccessCache:
        return AccessCache()

    def check_cached(
        self,
        cache: AccessCache,
        base: int,
        offset: int,
        width: int,
        access: AccessType,
    ) -> bool:
        """Guard ``base[offset .. offset+width)`` through the quasi-bound.

        Negative offsets use a dedicated underflow ``CI`` and are never
        cached (the paper creates no quasi-lower-bound; §4.3, §5.4).
        """
        if offset < 0:
            if self.telemetry is not None:
                # negative offsets never feed the quasi-upper-bound
                # (§4.3); the telemetry split makes the §5.4 reverse-
                # traversal penalty directly observable
                self.telemetry.incr("underflow_checks")
            if self.enable_lower_bound and cache.covers_below(offset):
                self.stats.checks_executed += 1
                self.stats.cached_hits += 1
                return True
            # Dedicated underflow CI(y + off, y): spans up to the anchor
            # so a left redzone cannot be jumped over.
            self.stats.checks_executed += 1
            self.stats.region_checks += 1
            right = base + max(offset + width, 0)
            ok = self._ci(base + offset, right)
            if not ok:
                self._report_region(base + offset, right, access)
            elif self.enable_lower_bound:
                # §5.4 mitigation: locate the object's true lower bound
                # once (O(log n) shadow loads) and serve all further
                # negative offsets from the quasi-lower-bound.
                lower = self.locate_lower_bound(base + offset)
                cache.lb = min(cache.lb, lower - base)
                self.stats.cache_updates += 1
            return ok
        end = offset + width
        if self.enable_caching and cache.covers(end):
            self.stats.checks_executed += 1
            self.stats.cached_hits += 1
            return True
        ok = self.check_region(
            base + offset, base + end, access, anchor=base
        )
        if ok and self.enable_caching:
            # Extend the quasi-bound from the folded segment at the access
            # point (Figure 9 lines 6-7).  The bound is taken from the
            # segment base so the cache never over-claims.
            self.stats.shadow_loads += 1
            self.stats.cache_updates += 1
            v = self.shadow.load((base + offset) >> 3)
            guaranteed = (1 << (67 - v)) if v <= _FOLDED_MAX else 0
            cache.ub = max(cache.ub, (offset & ~7) + guaranteed)
        return ok

    first_stages = (
        # a non-negative offset under the cached quasi-bound; caching is
        # read per closure call, so the ablations keep their own answer
        FirstStage(
            check_cached,
            test=(
                "0 <= {offset} and CACHING"
                " and {offset} + {width} <= {cache}.ub"
            ),
            counts=(("checks_executed", 1), ("cached_hits", 1)),
            bindings=(("CACHING", "san.enable_caching"),),
        ),
    )

    # ------------------------------------------------------------------
    # bound location by degree skipping (Figure 7)
    # ------------------------------------------------------------------
    def locate_bound(self, base: int) -> int:
        """Upper bound of the addressable region starting at ``base``.

        Skips over folded segments, at most ``ceil(log2(n/8))`` hops
        (Figure 7); used by the reverse-traversal mitigation discussed in
        §5.4 and exposed for diagnostics.
        """
        address = base
        while True:
            self.stats.shadow_loads += 1
            code = self.shadow.load(address >> 3)
            if code <= _FOLDED_MAX:
                address += enc.guaranteed_bytes(code)
                continue
            partial = enc.decode_partial(code)
            if partial is not None:
                return address + partial
            return address

    def locate_lower_bound(self, address: int) -> int:
        """Lowest address of the addressable run containing ``address``.

        The §5.4 mitigation: "locate the lower bound before buffer
        reverse traversals by enumerating the folding degrees and
        checking whether corresponding folded segments exist."  From the
        segment of ``address`` we repeatedly jump backwards by the
        largest power of two whose landing segment's folding degree
        still covers the current position (codes are monotone within an
        object, and a good run never spans a redzone, so a covering
        folded segment proves same-object membership).  O(log^2 n)
        shadow loads in the worst case.
        """
        segment = address >> 3
        self.stats.shadow_loads += 1
        start_code = self.shadow.load(segment)
        if enc.is_error_code(start_code):
            return segment << 3  # not addressable: nothing to locate
        if start_code > _FOLDED_MAX and segment > 0:
            # partial tail: the run may continue to its left — but only
            # step if a folded segment is actually there (a sub-8-byte
            # object has no good segments at all)
            self.stats.shadow_loads += 1
            if self.shadow.load(segment - 1) <= _FOLDED_MAX:
                segment -= 1
        floor_segment = 0
        moved = True
        while moved:
            moved = False
            span = 1
            best = None
            # find the furthest covering jump (enumerate degrees upward)
            while segment - span >= floor_segment:
                target = segment - span
                self.stats.shadow_loads += 1
                code = self.shadow.load(target)
                if code > _FOLDED_MAX:
                    break  # poison or partial: previous object territory
                degree = _FOLDED_MAX - code
                if (1 << degree) >= span + 1:
                    best = target
                span <<= 1
            if best is not None and best != segment:
                segment = best
                moved = True
        return segment << 3

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def locate_fault(self, start: int, end: int) -> int:
        """The first non-addressable byte of ``[start, end)``.

        The address the per-segment oracle walk
        (:func:`~repro.shadow.oracle.giantsan_region_is_addressable`)
        names, found by one C-level scan for the first segment that is
        not fully addressable plus the exact prefix arithmetic on it.
        Algorithm 1 fails only on a genuine violation for regions our
        poisoning produced; where the walk finds none the region
        straddles unrelated objects, and the seam ``start`` is named.
        """
        ok, fault, _ = scan_region(
            self.shadow, start, end, enc.addressable_prefix
        )
        return start if ok else fault

    def _report_region(self, start: int, end: int, access: AccessType) -> None:
        if start < 0 or end > self.layout.total_size:
            self._report(
                ErrorKind.WILD_ACCESS, start, end - start, access, detail="wild"
            )
            return
        fault = self.locate_fault(start, end)
        code = self.shadow.load(segment_index(fault))
        kind = enc.classify(code)
        arena = self.space.arena_of(fault)
        kind = _rewrite_kind_for_arena(kind, arena)
        self._report(kind, fault, end - start, access, shadow_value=code)


def make_giantsan(**kwargs) -> GiantSan:
    """Full GiantSan: caching + elimination + anchors (Table 2 main column)."""
    return GiantSan(**kwargs)


def make_cache_only(**kwargs) -> GiantSan:
    """Ablation: history caching only (Table 2 "CacheOnly")."""
    san = GiantSan(
        enable_caching=True, enable_elimination=False, enable_anchor=True, **kwargs
    )
    san.name = "GiantSan-CacheOnly"
    return san


def make_elimination_only(**kwargs) -> GiantSan:
    """Ablation: check elimination only (Table 2 "EliminationOnly")."""
    san = GiantSan(
        enable_caching=False, enable_elimination=True, enable_anchor=True, **kwargs
    )
    san.name = "GiantSan-EliminationOnly"
    return san
