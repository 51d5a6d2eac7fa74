"""Regression: a finished session's sanitizer is freed by refcount.

Each sanitizer owns a multi-MiB ``AddressSpace`` and shadow plane.  The
quarantine used to hold the bound ``Sanitizer._evict_chunk`` as its
eviction hook, a reference cycle that kept every finished run's memory
alive until the cyclic GC ran: thousands of short detection runs then
piled up hundreds of MB.  With the collector disabled, dropping the
session must free the address space at once, for every tool, on both
engines, with and without the elision audit, and with each kind of
lifecycle observer attached.
"""

import gc
import weakref

import pytest

from repro import ProgramBuilder
from repro.fuzz.invariants import ShadowInvariantChecker
from repro.runtime import ExecConfig, Session
from repro.sanitizers import SANITIZER_FACTORIES
from repro.trace import Tracer
from repro.workloads.spec import SPEC_BY_NAME


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("audit_elisions", [False, True])
@pytest.mark.parametrize("tool", sorted(SANITIZER_FACTORIES))
def test_space_dies_with_its_session(no_gc, tool, audit_elisions):
    program = SPEC_BY_NAME["505.mcf_r"].build()
    spaces = []
    # memoize off always tree-walks; the first memoized run compiles the
    # program mid-run, so the second runs compiled from its entry
    for memoize in (False, True, True):
        session = Session(
            tool, ExecConfig(memoize=memoize), audit_elisions=audit_elisions
        )
        result = session.run(program, [2])
        spaces.append(weakref.ref(session.sanitizer.space))
        del session, result
    assert [space() for space in spaces] == [None, None, None]


def observed_program():
    """A malloc/free pair, a stack frame and a global: every hook fires."""
    b = ProgramBuilder()
    with b.function("leaf") as f:
        f.stack_alloc("buf", 32)
        f.store("buf", 0, 8, 1)
    with b.function("main") as m:
        m.global_alloc("g", 64)
        m.malloc("p", 48)
        m.call("leaf")
        m.free("p")
    return b.build()


def _with_telemetry(tool):
    return Session(tool, ExecConfig(), telemetry=True), None


def _with_tracer(tool):
    session = Session(tool, ExecConfig())
    return session, Tracer.attach(session.sanitizer)


def _with_checker(tool):
    # the fuzz driver's way: a recording checker on a plain session
    session = Session(tool, ExecConfig(memoize=False))
    return session, ShadowInvariantChecker.attach(session.sanitizer)


@pytest.mark.parametrize(
    "observe",
    [_with_telemetry, _with_tracer, _with_checker],
    ids=["telemetry", "tracer", "checker"],
)
@pytest.mark.parametrize("tool", sorted(SANITIZER_FACTORIES))
def test_observed_space_dies_with_its_session(no_gc, tool, observe):
    # an observer outliving its run must not keep the run's memory alive
    session, observer = observe(tool)
    session.run(observed_program())
    space = weakref.ref(session.sanitizer.space)
    del session
    assert space() is None
    del observer
