"""Execution tracing: a bounded event log for debugging sanitizer runs.

Attach a :class:`Tracer` to any sanitizer as one of its ``observers``
and every allocation, free, frame push/pop, global definition and error
report is recorded as a structured event.  The trace answers the
questions a report alone cannot — "what was at this address before?",
"how many allocations separated the free from the use?" — the same role
compiler-rt's allocation stack traces play.

The log is a ring buffer, so tracing long runs is safe.  REPORT events
are retained outside the ring: chatty malloc/free traffic must never
evict the record of an actual error.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from .sanitizers.base import EventKind, Sanitizer

#: Each event's detail string, from the subject the sanitizer passes
#: (a FREE's subject is already its outcome).
_DETAIL = {
    EventKind.MALLOC: lambda chunk: f"allocation #{chunk.allocation_id}",
    EventKind.FREE: str,
    EventKind.FRAME_PUSH: lambda frame: f"frame #{frame.frame_id}",
    EventKind.FRAME_POP: lambda frame: f"frame #{frame.frame_id}",
    EventKind.GLOBAL: lambda variable: variable.name,
    EventKind.REPORT: lambda report: report.kind.value,
}


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event, with a monotonically increasing sequence."""

    sequence: int
    kind: EventKind
    address: int
    size: int
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"#{self.sequence:06d} {self.kind.value:10s} "
            f"addr={self.address:#x} size={self.size}"
            + (f" ({self.detail})" if self.detail else "")
        )


class Tracer:
    """Records a sanitizer's lifecycle events as its observer.

    Usage::

        san = GiantSan()
        tracer = Tracer.attach(san)
        ... run ...
        for event in tracer.events_near(report.address):
            print(event)
    """

    def __init__(self, capacity: int = 4096):
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        # reports live outside the ring: they are rare (bounded by the
        # sanitizer's error log) and must survive any amount of
        # allocation traffic
        self._reports: List[TraceEvent] = []
        self._sequence = 0
        # set by attach(), weakly: detach() needs it, the run must not
        self._sanitizer: Optional[weakref.ref] = None

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, sanitizer: Sanitizer, capacity: int = 4096) -> "Tracer":
        """Add a tracer to ``sanitizer``'s observers; returns the tracer.

        Attaching is idempotent: a sanitizer that already has a tracer
        returns that same tracer instead of adding a second one (which
        would double-record every event).  Use :meth:`detach` before
        attaching a fresh tracer.
        """
        for observer in sanitizer.observers:
            if isinstance(observer, cls):
                return observer
        tracer = cls(capacity=capacity)
        tracer._sanitizer = weakref.ref(sanitizer)
        sanitizer.observers += (tracer,)
        return tracer

    def detach(self) -> None:
        """Remove this tracer from the sanitizer's observers; recorded
        events stay.

        No-op for a tracer that was never attached (or already detached).
        After detaching, :meth:`attach` may install a fresh tracer.
        """
        sanitizer = self._sanitizer() if self._sanitizer else None
        self._sanitizer = None
        if sanitizer is not None:
            sanitizer.observers = tuple(
                observer for observer in sanitizer.observers
                if observer is not self
            )

    def observe(self, sanitizer, kind, address, size, subject) -> None:
        self.record(kind, address, size, _DETAIL[kind](subject))

    # ------------------------------------------------------------------
    def record(
        self, kind: EventKind, address: int, size: int, detail: str = ""
    ) -> TraceEvent:
        event = TraceEvent(
            sequence=self._sequence,
            kind=kind,
            address=address,
            size=size,
            detail=detail,
        )
        self._sequence += 1
        if kind is EventKind.REPORT:
            self._reports.append(event)
        else:
            self._events.append(event)
        return event

    @property
    def events(self) -> List[TraceEvent]:
        """All retained events, merged back into sequence order."""
        merged = list(self._events) + self._reports
        merged.sort(key=lambda e: e.sequence)
        return merged

    def __len__(self) -> int:
        return len(self._events) + len(self._reports)

    def of_kind(self, kind: EventKind) -> List[TraceEvent]:
        return [e for e in self.events if e.kind is kind]

    def events_near(
        self, address: int, radius: int = 256
    ) -> List[TraceEvent]:
        """Events whose address range touches ``address +- radius``."""
        return [
            e
            for e in self.events
            if e.address - radius <= address <= e.address + max(e.size, 0) + radius
        ]

    def history_of(self, address: int) -> List[TraceEvent]:
        """Lifecycle events for the object containing ``address``.

        FREE events carry the freed chunk's requested size (looked up
        from the allocator at free time) but are still matched through
        the base address of a containing malloc/global event: an invalid
        free has no size, and base matching keeps the pairing exact even
        for those.
        """
        bases = set()
        containing: List[TraceEvent] = []
        for e in self.events:
            if e.kind in (EventKind.MALLOC, EventKind.GLOBAL):
                if e.address <= address < e.address + max(e.size, 1):
                    bases.add(e.address)
                    containing.append(e)
            elif e.kind is EventKind.FREE and e.address in bases:
                containing.append(e)
        return containing

    def render(self, events: Optional[List[TraceEvent]] = None) -> str:
        chosen = self.events if events is None else events
        if not chosen:
            return "(no events)"
        return "\n".join(str(e) for e in chosen)
