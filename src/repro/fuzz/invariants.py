"""ShadowInvariantChecker: structural assertions after every heap/frame event.

Attached to a sanitizer the same way :class:`repro.trace.Tracer` is —
as one of its ``observers`` — the checker re-verifies, after every
``malloc``/``free``/``push_frame``/``pop_frame``/``define_global``:

* **the folding invariant** — every live GiantSan object's shadow
  decodes to a degree sequence accepted by
  :func:`repro.shadow.folding.verify_degrees`, and matches the canonical
  :func:`~repro.shadow.giantsan_encoding.object_codes` byte-for-byte;
* **ASan encoding well-formedness** — live objects are GOOD segments
  plus one correct partial tail; redzones and freed chunks carry the
  right poison codes;
* **quarantine byte accounting** — ``held_bytes`` equals the sum of the
  queued chunks' sizes, the quarantined/evicted counters add up, and the
  budget is respected at rest;
* **shadow / address-space consistency** — live chunks are disjoint,
  inside the heap arena, and the allocator's ``bytes_in_use`` matches
  the live+quarantined chunk bytes; stack frames stay LIFO inside the
  stack arena; HWASan granule tags match the tagged base pointers.

Violations either raise :class:`InvariantViolation` (session usage) or
accumulate in ``checker.violations`` (fuzz-driver usage).
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import List, Optional, Tuple

from ..memory.allocator import AllocationState
from ..memory.layout import SEGMENT_SIZE, segment_index
from ..sanitizers.asan import ASan
from ..sanitizers.base import EventKind, Sanitizer
from ..sanitizers.giantsan import GiantSan
from ..sanitizers.hwasan import HWASan, pointer_tag, untag
from ..shadow import asan_encoding, giantsan_encoding
from ..shadow.folding import verify_degrees


@lru_cache(maxsize=4096)
def _folding_violation(codes: bytes) -> Optional[Tuple[int, ...]]:
    """The degrees of ``codes`` when they break the folding invariant,
    else None.  The verdict depends only on the byte string, and the
    checker passes only canonical ``object_codes`` sequences, one per
    size class, so each is decoded once while it stays in the memo."""
    degrees = []
    for code in codes:
        degree = giantsan_encoding.decode_degree(code)
        if degree is None:
            break  # trailing partial segment
        degrees.append(degree)
    return None if verify_degrees(degrees) else tuple(degrees)


class InvariantViolation(AssertionError):
    """A structural invariant failed after an allocator/frame event."""


class ShadowInvariantChecker:
    """Verifies sanitizer-internal invariants after lifecycle events.

    The checker holds its sanitizer weakly: it observes a run without
    keeping that run's address space and shadow alive.
    """

    def __init__(self, sanitizer: Sanitizer, raise_on_violation: bool = False):
        self._sanitizer = weakref.ref(sanitizer)
        self.raise_on_violation = raise_on_violation
        self.violations: List[str] = []
        self.checks_run = 0

    @property
    def san(self) -> Sanitizer:
        return self._sanitizer()

    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls, sanitizer: Sanitizer, raise_on_violation: bool = False
    ) -> "ShadowInvariantChecker":
        """Add a checker to ``sanitizer``'s observers; returns it."""
        checker = cls(sanitizer, raise_on_violation=raise_on_violation)
        sanitizer.observers += (checker,)
        return checker

    def observe(self, sanitizer, kind, address, size, subject) -> None:
        if kind is not EventKind.REPORT:
            self.verify(kind.value)

    # ------------------------------------------------------------------
    def verify(self, event: str = "") -> None:
        """Run every applicable invariant; record/raise failures."""
        self.checks_run += 1
        failures: List[str] = []
        failures += self._check_quarantine()
        failures += self._check_allocator()
        failures += self._check_stack()
        if isinstance(self.san, GiantSan):
            failures += self._check_giantsan_shadow()
        elif isinstance(self.san, ASan):
            failures += self._check_asan_shadow()
        elif isinstance(self.san, HWASan):
            failures += self._check_hwasan_tags()
        for failure in failures:
            message = f"[{event or 'manual'}] {failure}"
            self.violations.append(message)
            if self.raise_on_violation:
                raise InvariantViolation(message)

    # ------------------------------------------------------------------
    # quarantine + allocator + stack (every tool)
    # ------------------------------------------------------------------
    def _check_quarantine(self) -> List[str]:
        quarantine = self.san.quarantine
        failures = []
        queued = list(quarantine._queue)
        actual = sum(a.chunk_size for a in queued)
        if quarantine.held_bytes != actual:
            failures.append(
                f"quarantine held_bytes={quarantine.held_bytes} != "
                f"sum(chunk_size)={actual}"
            )
        expected_total = quarantine.total_evicted + len(queued)
        if quarantine.total_quarantined != expected_total:
            failures.append(
                f"quarantine total_quarantined={quarantine.total_quarantined}"
                f" != evicted({quarantine.total_evicted}) + queued"
                f"({len(queued)})"
            )
        if quarantine.held_bytes > quarantine.budget_bytes:
            failures.append(
                f"quarantine over budget at rest: held="
                f"{quarantine.held_bytes} budget={quarantine.budget_bytes}"
            )
        for allocation in queued:
            if allocation.state is not AllocationState.QUARANTINED:
                failures.append(
                    f"queued allocation #{allocation.allocation_id} in state"
                    f" {allocation.state.value}"
                )
        return failures

    def _check_allocator(self) -> List[str]:
        allocator = self.san.allocator
        layout = self.san.layout
        failures = []
        live = allocator.live_allocations
        queued = list(self.san.quarantine._queue)
        expected_in_use = sum(a.chunk_size for a in live) + sum(
            a.chunk_size for a in queued
        )
        if allocator.bytes_in_use != expected_in_use:
            failures.append(
                f"allocator bytes_in_use={allocator.bytes_in_use} != "
                f"live+quarantined chunk bytes {expected_in_use}"
            )
        chunks = sorted(
            ((untag(a.base) - a.left_redzone, a) for a in live + queued),
            key=lambda pair: pair[0],
        )
        previous_end = layout.heap_base
        for chunk_base, allocation in chunks:
            chunk_end = chunk_base + allocation.chunk_size
            if chunk_base < layout.heap_base or chunk_end > layout.heap_end:
                failures.append(
                    f"allocation #{allocation.allocation_id} chunk "
                    f"[{chunk_base:#x},{chunk_end:#x}) outside the heap arena"
                )
            if chunk_base < previous_end:
                failures.append(
                    f"allocation #{allocation.allocation_id} chunk overlaps "
                    f"its predecessor (base {chunk_base:#x} < {previous_end:#x})"
                )
            previous_end = max(previous_end, chunk_end)
        return failures

    def _check_stack(self) -> List[str]:
        stack = self.san.stack
        layout = self.san.layout
        failures = []
        previous_end = layout.stack_base
        for frame in stack._frames:
            if frame.base < previous_end:
                failures.append(
                    f"frame #{frame.frame_id} base {frame.base:#x} below the "
                    f"previous frame end {previous_end:#x} (LIFO broken)"
                )
            if frame.end > layout.stack_end:
                failures.append(
                    f"frame #{frame.frame_id} escapes the stack arena"
                )
            for variable in frame.variables:
                raw = untag(variable.base)
                if raw < frame.base or raw + variable.size > frame.end:
                    failures.append(
                        f"stack var {variable.name} outside frame "
                        f"#{frame.frame_id}"
                    )
            previous_end = frame.end
        return failures

    # ------------------------------------------------------------------
    # shadow encodings
    # ------------------------------------------------------------------
    def _object_segments(self, base: int, usable: int):
        first = segment_index(base)
        count = (usable + SEGMENT_SIZE - 1) >> 3
        return first, count

    def _check_giantsan_shadow(self) -> List[str]:
        enc = giantsan_encoding
        shadow = self.san.shadow
        failures = []
        for allocation in self.san.allocator.live_allocations:
            expected = enc.object_codes(allocation.usable_size)
            first, count = self._object_segments(
                allocation.base, allocation.usable_size
            )
            actual = bytes(shadow.view(first, count))
            if actual != expected:
                failures.append(
                    f"GiantSan object #{allocation.allocation_id} shadow "
                    f"{actual.hex()} != canonical {expected.hex()}"
                )
                continue
            # the memoized table's own object: its hash is cached too
            degrees = _folding_violation(expected)
            if degrees is not None:
                failures.append(
                    f"GiantSan object #{allocation.allocation_id} violates "
                    f"the folding invariant: degrees={list(degrees)}"
                )
            failures += self._check_redzones(allocation, enc)
        return failures + self._check_freed_poison(enc)

    def _check_asan_shadow(self) -> List[str]:
        enc = asan_encoding
        shadow = self.san.shadow
        failures = []
        for allocation in self.san.allocator.live_allocations:
            full, tail = divmod(allocation.usable_size, SEGMENT_SIZE)
            expected = bytes([enc.GOOD] * full + ([tail] if tail else []))
            first, count = self._object_segments(
                allocation.base, allocation.usable_size
            )
            actual = bytes(shadow.view(first, count))
            if actual != expected:
                failures.append(
                    f"ASan object #{allocation.allocation_id} shadow "
                    f"{actual.hex()} != canonical {expected.hex()}"
                )
            failures += self._check_redzones(allocation, enc)
        return failures + self._check_freed_poison(enc)

    def _check_freed_poison(self, enc) -> List[str]:
        """Every quarantined object's shadow must be all ``HEAP_FREED``."""
        shadow = self.san.shadow
        failures = []
        for allocation in self.san.quarantine._queue:
            first, count = self._object_segments(
                allocation.base, allocation.usable_size
            )
            codes = shadow.view(first, count).tobytes()
            if codes.count(enc.HEAP_FREED) != count:
                failures.append(
                    f"quarantined object #{allocation.allocation_id} not "
                    f"fully freed-poisoned"
                )
        return failures

    def _check_redzones(self, allocation, enc) -> List[str]:
        """Left/right redzone segments must carry heap poison codes."""
        shadow = self.san.shadow
        failures = []
        left_segments = allocation.left_redzone >> 3
        if left_segments:
            codes = shadow.view(
                segment_index(allocation.chunk_base), left_segments
            ).tobytes()
            if codes.count(enc.HEAP_LEFT_REDZONE) != left_segments:
                failures.append(
                    f"object #{allocation.allocation_id} left redzone not "
                    f"poisoned"
                )
        first_rz = segment_index(
            allocation.base + allocation.usable_size + SEGMENT_SIZE - 1
        )
        end_seg = segment_index(allocation.chunk_end)
        if end_seg > first_rz:
            codes = shadow.view(first_rz, end_seg - first_rz).tobytes()
            if codes.count(enc.HEAP_RIGHT_REDZONE) != end_seg - first_rz:
                failures.append(
                    f"object #{allocation.allocation_id} right redzone not "
                    f"poisoned"
                )
        return failures

    def _check_hwasan_tags(self) -> List[str]:
        san = self.san
        failures = []
        for allocation in san.allocator.live_allocations:
            tag = pointer_tag(allocation.base)
            if tag == 0:
                failures.append(
                    f"live HWASan allocation #{allocation.allocation_id} "
                    f"carries the free tag"
                )
                continue
            raw = untag(allocation.base)
            first = raw >> 4
            count = (allocation.usable_size + 15) >> 4
            granules = san._tags[first : first + count]
            if any(actual != tag for actual in granules):
                failures.append(
                    f"allocation #{allocation.allocation_id} granule tags "
                    f"diverge from pointer tag {tag:#04x}"
                )
        return failures

