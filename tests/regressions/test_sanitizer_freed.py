"""Regression: a finished session's sanitizer is freed by refcount.

Each sanitizer owns a multi-MiB ``AddressSpace`` and shadow plane.  The
quarantine used to hold the bound ``Sanitizer._evict_chunk`` as its
eviction hook, a reference cycle that kept every finished run's memory
alive until the cyclic GC ran: thousands of short detection runs then
piled up hundreds of MB.  With the collector disabled, dropping the
session must free the address space at once, for every tool, on both
engines, with and without the elision audit.
"""

import gc
import weakref

import pytest

from repro.runtime import ExecConfig, Session
from repro.sanitizers import SANITIZER_FACTORIES
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
    # memoize off always tree-walks; the second memoized run follows a
    # run of over COMPILE_AFTER_INSTRUCTIONS, so it runs compiled
    for memoize in (False, True, True):
        session = Session(
            tool, ExecConfig(memoize=memoize), audit_elisions=audit_elisions
        )
        result = session.run(program, [2])
        spaces.append(weakref.ref(session.sanitizer.space))
        del session, result
    assert [space() for space in spaces] == [None, None, None]
