"""Regression: the instrumentation memo is an LRU, not clear-at-bound.

The memo used to drop every entry once it held 256, so a sweep with
more distinct programs than that (one Tables 3-5 pass has 1,525 keys)
missed on every repeat pass.  Now a hit moves its entry to the recent
end and a miss at the bound evicts only the least-recently-used entry.
"""

import importlib

import pytest

from repro import ProgramBuilder
from repro.sanitizers import ASan

# the module, not the function ``repro.passes.instrument`` exports
memo = importlib.import_module("repro.passes.instrument")


def sized_program(size: int):
    b = ProgramBuilder()
    with b.function("main") as f:
        f.malloc("p", size)
        f.store("p", 0, 8, size)
        f.free("p")
        f.ret(0)
    return b.build()


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(memo, "_MEMO", {})
    return memo


def lookup(program) -> bool:
    """Request ``program``'s instrumentation; True when it was a hit."""
    hits = memo.instrumentation_cache_stats()["hits"]
    memo.instrument_cached(program, caps=ASan.capabilities)
    return memo.instrumentation_cache_stats()["hits"] > hits


def test_bound_covers_a_detection_sweep():
    # Tables 3-5 (1,525 keys) plus Table 2 (120) in one process
    assert memo._MEMO_LIMIT >= 1525 + 120


def test_first_entry_survives_more_than_256_misses(empty_memo):
    programs = [sized_program(8 * (i + 1)) for i in range(300)]
    for program in programs:
        assert not lookup(program)
    assert lookup(programs[0])
    assert len(memo._MEMO) == 300


def test_miss_at_bound_evicts_only_least_recent(empty_memo, monkeypatch):
    monkeypatch.setattr(memo, "_MEMO_LIMIT", 4)
    programs = [sized_program(8 * (i + 1)) for i in range(5)]
    for program in programs[:4]:
        assert not lookup(program)
    first = memo.instrument_cached(programs[0], caps=ASan.capabilities)
    # the hit made programs[1] the least recently used
    assert not lookup(programs[4])
    assert len(memo._MEMO) == 4
    assert memo.instrument_cached(programs[0], caps=ASan.capabilities) is first
    for program in (programs[2], programs[3], programs[4]):
        assert lookup(program)
    assert not lookup(programs[1])
