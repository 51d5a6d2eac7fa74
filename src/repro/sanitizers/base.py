"""Sanitizer runtime interface shared by all tools under evaluation.

A sanitizer owns the simulated process state (address space, shadow
memory, allocator, quarantine, stack) and exposes:

* allocation hooks (``malloc``/``free``/stack frames) that maintain
  shadow metadata — the paper's "runtime support library" — and
  notify the sanitizer's ``observers`` after each one;
* runtime checks (``check_access`` for one instruction,
  ``check_region`` for one memory operation) — the guards the
  instrumented program calls;
* :class:`CheckStats` event counters the cost model converts into
  simulated cycles, so overhead ratios can be derived deterministically.

Concrete tools: :mod:`repro.sanitizers.native`, ``asan``, ``asanmm``,
``giantsan``, ``lfp``, and the ``hwasan`` extension.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..errors import AccessType, ErrorKind, ErrorLog, ErrorReport
from ..memory import (
    AddressSpace,
    Allocation,
    ArenaLayout,
    DEFAULT_REDZONE,
    GlobalAllocator,
    GlobalVariable,
    HeapAllocator,
    Quarantine,
    StackAllocator,
    StackFrame,
    exact_size_policy,
)
from ..memory.layout import DEFAULT_QUARANTINE_BYTES
from ..shadow import ShadowMemory


class EventKind(enum.Enum):
    """The lifecycle events a sanitizer reports to its observers."""

    MALLOC = "malloc"
    FREE = "free"
    FRAME_PUSH = "frame-push"
    FRAME_POP = "frame-pop"
    GLOBAL = "global"
    REPORT = "report"


@dataclass
class CheckStats:
    """Event counters a run accumulates; input to the cost model."""

    #: Shadow bytes read on check paths (the metadata-loading cost the
    #: paper attributes ~80% of ASan's overhead to).
    shadow_loads: int = 0
    #: Shadow bytes written while poisoning/unpoisoning.
    shadow_stores: int = 0
    #: Runtime check instances executed, of any kind.
    checks_executed: int = 0
    #: Instruction-level checks (one <=8-byte access each).
    instruction_checks: int = 0
    #: Operation-level region checks (CI(L, R) style).
    region_checks: int = 0
    #: Region checks satisfied by the fast path alone.
    fast_checks: int = 0
    #: Region checks that needed the slow path too.
    slow_checks: int = 0
    #: Checks answered from a quasi-bound cache without metadata loads.
    cached_hits: int = 0
    #: Cache misses that reloaded metadata and updated the quasi-bound.
    cache_updates: int = 0
    #: Segments visited by linear region scans (ASan's guardian loop).
    segments_scanned: int = 0
    #: Extra per-operation instructions (LFP's stack simulation, etc.).
    extra_instructions: int = 0
    #: malloc / free counts.
    allocations: int = 0
    frees: int = 0
    #: Error reports raised.
    reports: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merged(self, other: "CheckStats") -> "CheckStats":
        result = CheckStats()
        for f in fields(self):
            setattr(result, f.name, getattr(self, f.name) + getattr(other, f.name))
        return result


@dataclass
class FoldResult:
    """Outcome of folding a loop's checks without running them.

    ``stat_deltas`` maps :class:`CheckStats` field names to the exact
    amount the per-iteration execution would have added; ``fast_only``
    and ``full_check`` are the Figure 10 classifications the interpreter
    would have recorded at the check sites.
    """

    stat_deltas: Dict[str, float] = field(default_factory=dict)
    fast_only: int = 0
    full_check: int = 0

    def merge(self, other: "FoldResult") -> None:
        for name, delta in other.stat_deltas.items():
            self.stat_deltas[name] = self.stat_deltas.get(name, 0) + delta
        self.fast_only += other.fast_only
        self.full_check += other.full_check

    def apply(self, stats: CheckStats) -> None:
        for name, delta in self.stat_deltas.items():
            setattr(stats, name, getattr(stats, name) + delta)


@dataclass(frozen=True)
class Capabilities:
    """What the tool's instrumentation pipeline may rely on.

    The instrumenter consults these to decide which passes to run, which
    is how one IR program gets the per-tool check placement the paper's
    Table 1 / Figure 10 compare.
    """

    #: O(1) region checks of arbitrary size (GiantSan's CI).
    constant_time_region: bool = False
    #: Quasi-bound history caching (GiantSan §4.3).
    history_caching: bool = False
    #: Anchor-based enhancement: checks span [anchor, access_end).
    anchor_checks: bool = False
    #: Static check merging/elimination (ASan-- and GiantSan).
    check_elimination: bool = False
    #: Detects temporal errors (quarantine-backed).
    temporal: bool = True


class Sanitizer:
    """Base class: owns simulated process state and default hooks.

    Subclasses override the check methods and the shadow-poisoning hooks.
    The base class implements allocation plumbing (allocator + quarantine
    wiring) so every tool shares identical heap behaviour; only metadata
    handling differs.  Tools change what ``malloc``/``free`` do through
    the protected ``_malloc``/``_free``, so :meth:`_notify` is the one
    place ``observers`` hear of lifecycle events.

    Each observer has ``observe(sanitizer, kind, address, size,
    subject)``, called after every event in tuple order.  ``subject`` is
    what the caller got back (the allocation, frame, global or report)
    or, for FREE, the outcome: ``"ok"``, the report kind or ``"raised
    <Exc>"``.  Observers hold the sanitizer only weakly, so a finished
    run's memory is freed by refcount.
    """

    name = "base"
    capabilities = Capabilities()

    def __init__(
        self,
        layout: Optional[ArenaLayout] = None,
        redzone: int = DEFAULT_REDZONE,
        quarantine_bytes: int = DEFAULT_QUARANTINE_BYTES,
        halt_on_error: bool = False,
        size_policy=exact_size_policy,
    ):
        self.layout = layout or ArenaLayout()
        self.space = AddressSpace(self.layout)
        self.shadow = ShadowMemory(self.layout.total_size)
        # bounds used on every single check: cached as plain attributes
        # so hot paths skip the layout attribute chain
        self._total_size = self.layout.total_size
        self._heap_base = self.layout.heap_base
        self._heap_end = self.layout.heap_end
        self.redzone = redzone
        self.allocator = HeapAllocator(
            self.space, redzone=redzone, size_policy=size_policy
        )
        self.stack = StackAllocator(self.space, redzone=max(redzone, 8))
        self.globals = GlobalAllocator(self.space, redzone=max(redzone, 8))
        # a weak hook: a bound method would close a quarantine <->
        # sanitizer cycle and keep every finished run's address space
        # and shadow alive until the cyclic GC ran
        evict = weakref.WeakMethod(self._evict_chunk)
        self.quarantine = Quarantine(
            quarantine_bytes, lambda allocation: evict()(allocation)
        )
        self.log = ErrorLog(halt_on_error=halt_on_error)
        self.stats = CheckStats()
        #: Telemetry registry (:class:`repro.telemetry.Telemetry`) when a
        #: session enabled it; None keeps every check path untelemetered.
        #: Check-path call sites gate on ``is not None`` so a disabled
        #: run pays one attribute test at most.
        self.telemetry = None
        #: Lifecycle observers; empty costs each event one truth test.
        self.observers: tuple = ()
        self._poison_null_page()

    # ------------------------------------------------------------------
    # shadow maintenance hooks (overridden per encoding)
    # ------------------------------------------------------------------
    def _poison_null_page(self) -> None:
        """Poison the null guard page; no-op for tools without shadow."""

    def _poison_alloc(self, allocation: Allocation) -> None:
        """Set shadow for a fresh allocation."""

    def _poison_free(self, allocation: Allocation) -> None:
        """Set shadow for a freed (quarantined) allocation."""

    def _unpoison_chunk(self, allocation: Allocation) -> None:
        """Clear shadow when a chunk leaves quarantine."""

    def _poison_stack_frame(self, frame: StackFrame) -> None:
        """Set shadow for a pushed stack frame."""

    def _poison_stack_pop(self, frame: StackFrame) -> None:
        """Poison a popped frame's extent (use-after-return)."""

    # ------------------------------------------------------------------
    # allocation API used by programs
    # ------------------------------------------------------------------
    def malloc(self, size: int) -> Allocation:
        """Allocate and poison; the program receives ``allocation.base``."""
        allocation = self._malloc(size)
        if self.observers:
            self._notify(EventKind.MALLOC, allocation.base, size, allocation)
        return allocation

    def free(self, address: int) -> None:
        """Free, then tell observers the chunk's size and the outcome."""
        if not self.observers:
            self._free(address)
            return
        # size the chunk now: after the free the allocation is gone
        allocation = self.allocator.lookup(self.resolve_address(address))
        size = allocation.requested_size if allocation is not None else 0
        reports_before = len(self.log.reports)
        try:
            self._free(address)
        except BaseException as exc:
            # halt_on_error raised mid-free: the FREE still failed
            self._notify(
                EventKind.FREE, address, size, f"raised {type(exc).__name__}"
            )
            raise
        fired = self.log.reports[reports_before:]
        outcome = fired[-1].kind.value if fired else "ok"
        self._notify(EventKind.FREE, address, size, outcome)

    def _notify(self, kind: EventKind, address: int, size: int, subject):
        for observer in self.observers:
            observer.observe(self, kind, address, size, subject)

    def _malloc(self, size: int) -> Allocation:
        allocation = self.allocator.malloc(size)
        self.stats.allocations += 1
        self._poison_alloc(allocation)
        return allocation

    def _free(self, address: int) -> None:
        """Double/invalid-free diagnosis, then quarantine entry."""
        allocation = self.allocator.lookup(address)
        if allocation is None:
            kind = (
                ErrorKind.DOUBLE_FREE
                if self._was_freed(address)
                else ErrorKind.INVALID_FREE
            )
            self._report(kind, address, 0, AccessType.FREE)
            return
        self.allocator.free(address)
        self.stats.frees += 1
        self._poison_free(allocation)
        self.quarantine.push(allocation)

    def _was_freed(self, address: int) -> bool:
        for allocation in self.quarantine._queue:
            if allocation.base == address:
                return True
        return False

    def _evict_chunk(self, allocation: Allocation) -> None:
        self._unpoison_chunk(allocation)
        self.allocator.release_chunk(allocation)

    def define_global(self, name: str, size: int) -> GlobalVariable:
        """Define an immortal global buffer (ASan-style global redzones)."""
        variable = self.globals.define(name, size)
        self._poison_global(variable)
        if self.observers:
            self._notify(EventKind.GLOBAL, variable.base, size, variable)
        return variable

    def _poison_global(self, variable: GlobalVariable) -> None:
        """Set shadow for a global definition."""

    def push_frame(self, sizes: List[int], names: Optional[List[str]] = None):
        frame = self.stack.push_frame(sizes, names)
        self._poison_stack_frame(frame)
        if self.observers:
            self._notify(EventKind.FRAME_PUSH, frame.base, frame.size, frame)
        return frame

    def pop_frame(self) -> StackFrame:
        frame = self.stack.pop_frame()
        self._poison_stack_pop(frame)
        if self.observers:
            self._notify(EventKind.FRAME_POP, frame.base, frame.size, frame)
        return frame

    def resolve_address(self, pointer: int) -> int:
        """Map a pointer value to the raw address the hardware would
        access.  Identity for every tool except tag-based ones (HWASan
        strips the top-byte tag, like TBI hardware)."""
        return pointer

    # ------------------------------------------------------------------
    # runtime checks (overridden per tool)
    # ------------------------------------------------------------------
    def check_access(self, address: int, width: int, access: AccessType) -> bool:
        """Guard one <=8-byte access; True when safe."""
        return True

    def check_region(
        self,
        start: int,
        end: int,
        access: AccessType,
        anchor: Optional[int] = None,
    ) -> bool:
        """Guard the memory operation touching ``[start, end)``.

        ``anchor`` is the object base for anchor-based enhancement;
        tools that ignore anchors check only ``[start, end)``.
        """
        return True

    # ------------------------------------------------------------------
    # bulk-check folding (superblock fast path)
    # ------------------------------------------------------------------
    # The fast path (:mod:`repro.runtime.fastpath`) executes an eligible
    # loop as one superblock.  Before doing so it asks the sanitizer to
    # *fold* the loop's per-iteration checks: decide, without mutating
    # any state, whether every iteration's check passes, and if so return
    # the exact stat deltas the per-iteration execution would have
    # accumulated.  Returning ``None`` means "cannot fold" (ineligible
    # shape, or at least one check would fail/report) and the interpreter
    # falls back to per-iteration execution — so error paths always run
    # through the reference implementation.

    def fold_access_checks(
        self,
        count: int,
        address: int,
        stride: int,
        width: int,
        access: AccessType,
    ) -> Optional["FoldResult"]:
        """Fold ``count`` instruction checks at ``address + i * stride``."""
        return None

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
    ) -> Optional["FoldResult"]:
        """Fold ``count`` region checks of ``[start + i*s, end + i*e)``."""
        return None

    def make_cache(self) -> "AccessCache":
        """A per-pointer history cache; no-op unless the tool supports it."""
        return AccessCache()

    def check_cached(
        self,
        cache: "AccessCache",
        base: int,
        offset: int,
        width: int,
        access: AccessType,
    ) -> bool:
        """Guard ``[base+offset, base+offset+width)`` with history caching.

        Default: no cache, delegate to an ordinary region/access check.
        """
        return self.check_region(base + offset, base + offset + width, access)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(
        self,
        kind: ErrorKind,
        address: int,
        size: int,
        access: AccessType,
        shadow_value: Optional[int] = None,
        detail: str = "",
    ) -> None:
        self.stats.reports += 1
        report = ErrorReport(
            kind=kind,
            address=address,
            size=size,
            access=access,
            shadow_value=shadow_value,
            detail=detail,
        )
        # before logging: halt_on_error raises there, and a REPORT must
        # be sequenced before the FREE that it failed
        if self.observers:
            self._notify(EventKind.REPORT, address, size, report)
        self.log.report(report)

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def memory_overhead(self) -> Dict[str, int]:
        """Metadata and padding bytes this tool holds right now.

        * ``shadow_bytes`` — the dedicated metadata store (ASan-family:
          1/8 of the address space; tag-based tools report their tag
          table; LFP/Native report 0);
        * ``redzone_bytes`` — padding around live objects;
        * ``slack_bytes`` — size-class rounding slack inside live objects
          (LFP/BBC's overhead, and their false-negative surface);
        * ``quarantine_bytes`` — freed memory held back from reuse.
        """
        redzone = 0
        slack = 0
        for allocation in self.allocator.live_allocations:
            redzone += allocation.left_redzone + allocation.right_redzone
            slack += allocation.usable_size - allocation.requested_size
        return {
            "shadow_bytes": self._metadata_bytes(),
            "redzone_bytes": redzone,
            "slack_bytes": slack,
            "quarantine_bytes": self.quarantine.held_bytes,
        }

    def _metadata_bytes(self) -> int:
        """Size of the dedicated metadata store (0 when the tool keeps
        none; overridden by tag-based tools)."""
        return len(self.shadow) if self._uses_shadow() else 0

    def _uses_shadow(self) -> bool:
        # a tool "uses" shadow iff it overrides the poisoning hooks
        return type(self)._poison_alloc is not Sanitizer._poison_alloc

    @property
    def error_count(self) -> int:
        return len(self.log)

    def reset_stats(self) -> None:
        self.stats.reset()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} errors={self.error_count}>"


class AccessCache:
    """Per-pointer quasi-bound state (paper §4.3, Figure 9).

    ``ub`` is the cached upper bound, in bytes relative to the anchor:
    offsets with ``offset + width <= ub`` were proven addressable by the
    folded segment loaded at the last cache miss.  Tools without caching
    leave it permanently at 0 so every lookup misses.

    ``lb`` is the optional quasi-*lower*-bound (the §5.4 mitigation for
    reverse traversals, off by default): a non-positive byte offset such
    that ``[anchor+lb, anchor)`` is known addressable.
    """

    __slots__ = ("ub", "lb")

    def __init__(self) -> None:
        self.ub = 0
        self.lb = 0

    def covers(self, end_offset: int) -> bool:
        return end_offset <= self.ub

    def covers_below(self, offset: int) -> bool:
        return offset >= self.lb

    def reset(self) -> None:
        self.ub = 0
        self.lb = 0
