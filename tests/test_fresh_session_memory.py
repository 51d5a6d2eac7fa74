"""Fresh session memory: a prebuilt shadow image over a lazy address space.

Each sanitizer's shadow starts as a copy of an image built once per
(class, layout) by its ``_poison_null_page`` hook, and its address space
is a private anonymous mapping that reads as zero until written.  Both
must be indistinguishable from building everything afresh per session.
"""

import os

import pytest

from repro.memory import AddressSpace, ArenaLayout
from repro.runtime import Session
from repro.sanitizers import SANITIZER_FACTORIES
from repro.shadow import ShadowMemory

LAYOUTS = [
    ArenaLayout(),
    ArenaLayout(heap_size=1 << 16, stack_size=1 << 14, globals_size=1 << 13),
]


def whole(shadow: ShadowMemory) -> bytes:
    return shadow.region(0, len(shadow))


def hook_on_zeroed(tool: str, layout: ArenaLayout) -> bytes:
    """The shadow the tool's hook writes over a zeroed ``ShadowMemory``."""
    probe = SANITIZER_FACTORIES[tool](layout=layout)
    probe.shadow = ShadowMemory(layout.total_size)
    probe._poison_null_page()
    return whole(probe.shadow)


def arena_probes(layout: ArenaLayout):
    """First, middle and last byte of every arena, null page included."""
    for lo, hi in (
        (0, layout.heap_base),
        (layout.heap_base, layout.heap_end),
        (layout.stack_base, layout.stack_end),
        (layout.globals_base, layout.globals_end),
    ):
        yield from (lo, (lo + hi) // 2, hi - 1)


@pytest.mark.parametrize("layout", LAYOUTS, ids=["default", "small"])
@pytest.mark.parametrize("tool", sorted(SANITIZER_FACTORIES))
class TestFreshSanitizer:
    def test_shadow_matches_hook_on_zeroed_shadow(self, tool, layout):
        expected = hook_on_zeroed(tool, layout)
        first = SANITIZER_FACTORIES[tool](layout=layout)
        assert whole(first.shadow) == expected
        # a later session copies the image; writes must not leak into it
        first.shadow.fill(0, len(first.shadow), 0x5A)
        second = SANITIZER_FACTORIES[tool](layout=layout)
        assert whole(second.shadow) == expected

    def test_space_reads_zero_in_every_arena(self, tool, layout):
        space = SANITIZER_FACTORIES[tool](layout=layout).space
        for address in arena_probes(layout):
            assert space.load(address, 1) == 0, hex(address)


def test_store_is_not_visible_in_next_session():
    first = Session("GiantSan").sanitizer
    layout = first.layout
    for address in arena_probes(layout):
        first.space.store(address, 1, 0xAB)
    second = Session("GiantSan").sanitizer
    for address in arena_probes(layout):
        assert first.space.load(address, 1) == 0xAB
        assert second.space.load(address, 1) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_cannot_write_parent_memory():
    space = AddressSpace()
    address = space.layout.heap_base + 64
    space.store(address, 8, 0x1122334455667788)
    pid = os.fork()
    if pid == 0:  # child: sees the parent's bytes, then overwrites them
        ok = space.load(address, 8) == 0x1122334455667788
        space.store(address, 8, 0xDEAD)
        space.store(address + 8, 8, 0xBEEF)
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert space.load(address, 8) == 0x1122334455667788
    assert space.load(address + 8, 8) == 0
