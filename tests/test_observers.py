"""The sanitizer's lifecycle-observer contract, for every tool.

A :class:`~repro.trace.Tracer`, a
:class:`~repro.fuzz.invariants.ShadowInvariantChecker` and a
:class:`~repro.telemetry.Telemetry` registry attached together each see
every event of one program exactly once, MALLOC carries the pointer the
program got (HWASan's tag included), and observing changes nothing the
run reports.
"""

import pytest

import engines
from repro import ProgramBuilder
from repro.fuzz.invariants import ShadowInvariantChecker
from repro.runtime import ExecConfig, Session
from repro.sanitizers import SANITIZER_FACTORIES
from repro.sanitizers.hwasan import HWASan, pointer_tag
from repro.trace import EventKind, Tracer


def program():
    b = ProgramBuilder()
    with b.function("leaf") as f:
        f.stack_alloc("buf", 32)
        f.store("buf", 0, 8, 1)
    with b.function("main") as m:
        m.global_alloc("g", 64)
        p = m.malloc("p", 48)
        m.malloc("q", 32)
        m.store("p", 48, 4, 1)  # one past the end
        m.call("leaf")
        m.free("q")
        m.free("q")  # double free
        m.ret(p)
    return b.build()


#: The non-REPORT events ``program`` fires, per kind.
LIFECYCLE = {
    EventKind.GLOBAL: 1,
    EventKind.MALLOC: 2,
    EventKind.FRAME_PUSH: 1,
    EventKind.FRAME_POP: 1,
    EventKind.FREE: 2,
}


def observables(session, result):
    """The engines' observables and the sanitizer's report log; the
    telemetry views are left out, since only one of the compared runs
    has telemetry on."""
    observed = engines.observables(result, session.sanitizer)
    observed.pop("telemetry", None)
    observed.pop("superblock", None)
    observed["log"] = [
        (r.kind, r.address) for r in session.sanitizer.log.reports
    ]
    return observed


@pytest.mark.parametrize("tool", sorted(SANITIZER_FACTORIES))
def test_each_observer_sees_each_event_once(tool):
    plain = Session(tool, ExecConfig())
    expected = observables(plain, plain.run(program()))

    session = Session(tool, ExecConfig(), telemetry=True)
    san = session.sanitizer
    checker = ShadowInvariantChecker.attach(san)
    tracer = Tracer.attach(san)
    assert san.observers == (session.telemetry, checker, tracer)
    result = session.run(program())
    assert observables(session, result) == expected

    counts = {kind: len(tracer.of_kind(kind)) for kind in LIFECYCLE}
    assert counts == LIFECYCLE
    assert len(tracer.of_kind(EventKind.REPORT)) == len(san.log.reports)
    assert checker.checks_run == sum(LIFECYCLE.values())
    assert checker.violations == []

    pointer = result.return_value
    assert tracer.of_kind(EventKind.MALLOC)[0].address == pointer
    if isinstance(san, HWASan):
        assert pointer_tag(pointer) != 0
    # the first free of q is sized from the chunk, tagged pointer or not
    first_free = tracer.of_kind(EventKind.FREE)[0]
    assert (first_free.size, first_free.detail) == (32, "ok")

    fresh = SANITIZER_FACTORIES[tool]()
    redzones = sum(
        chunk.left_redzone + chunk.right_redzone
        for chunk in (fresh.malloc(48), fresh.malloc(32))
    )
    counters = session.telemetry.snapshot().counters
    assert counters["redzone_bytes_poisoned"] == redzones
    assert counters["global_definitions"] == 1


def test_detach_leaves_other_observers():
    session = Session("GiantSan", ExecConfig(), telemetry=True)
    san = session.sanitizer
    tracer = Tracer.attach(san)
    tracer.detach()
    assert san.observers == (session.telemetry,)
