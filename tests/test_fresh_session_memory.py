"""Fresh session memory: mapped metadata planes over a lazy address space.

Each sanitizer's shadow maps, copy-on-write, a sealed image file built
once per (class, layout) by its ``_poison_null_page`` hook; tools whose
hook writes nothing, and HWASan's tag table, get zeroed anonymous
mappings.  The address space is a private anonymous mapping that reads
as zero until written.  All of it must be indistinguishable from
building everything afresh per session.
"""

import mmap
import os
import sys
import threading
import tracemalloc

import pytest

from repro.memory import AddressSpace, ArenaLayout
from repro.runtime import Session
from repro.sanitizers import SANITIZER_FACTORIES, base
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


def planes(san) -> list:
    """Every mapped metadata plane of ``san``: the shadow, and the tag
    table of a tool that keeps one (HWASan)."""
    found = [san.shadow._shadow]
    tags = getattr(san, "_tags", None)
    if tags is not None:
        found.append(tags)
    return found


def snapshot(san) -> list:
    return [bytes(plane) for plane in planes(san)]


def overwrite(san, code: int) -> None:
    for plane in planes(san):
        plane[:] = bytes([code]) * len(plane)


def image_of(san):
    """The cached image ``san``'s shadow maps; None for a zeroed shadow."""
    return base._SHADOW_IMAGES.get((type(san), san.layout))


def has_image(tool: str) -> bool:
    cls = type(SANITIZER_FACTORIES[tool](layout=LAYOUTS[1]))
    return cls._poison_null_page is not base.Sanitizer._poison_null_page


@pytest.fixture
def empty_image_cache(monkeypatch):
    """A private, empty image cache for one test."""
    monkeypatch.setattr(base, "_SHADOW_IMAGES", {})


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

    def test_writes_stay_in_their_session(self, tool, layout):
        factory = SANITIZER_FACTORIES[tool]
        first = factory(layout=layout)
        concurrent = factory(layout=layout)
        initial = snapshot(concurrent)
        overwrite(first, 0x5A)
        later = factory(layout=layout)
        assert snapshot(first) == [
            b"\x5a" * len(plane) for plane in planes(first)
        ]
        assert snapshot(concurrent) == initial
        assert snapshot(later) == initial

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_in_the_child(self, tool, layout):
        san = SANITIZER_FACTORIES[tool](layout=layout)
        initial = snapshot(san)
        pid = os.fork()
        if pid == 0:  # child: sees the parent's planes, then overwrites
            code = 1
            try:
                code = 0 if snapshot(san) == initial else 1
                overwrite(san, 0xA5)
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert snapshot(san) == initial

    @pytest.mark.skipif(
        not hasattr(os, "memfd_create"), reason="needs os.memfd_create"
    )
    def test_image_file_refuses_writes(self, tool, layout, empty_image_cache):
        san = SANITIZER_FACTORIES[tool](layout=layout)
        image = image_of(san)
        if not has_image(tool):
            assert image is None and not base._SHADOW_IMAGES
            return
        with pytest.raises(PermissionError):
            os.pwrite(image.fileno(), b"\x00", 0)
        with pytest.raises(PermissionError):
            mmap.mmap(image.fileno(), image.size, flags=mmap.MAP_SHARED)
        assert whole(san.shadow) == hook_on_zeroed(tool, layout)

    def test_eviction_closes_the_image_file(
        self, tool, layout, empty_image_cache, monkeypatch
    ):
        monkeypatch.setattr(base, "_SHADOW_IMAGES_LIMIT", 1)
        factory = SANITIZER_FACTORIES[tool]
        expected = hook_on_zeroed(tool, layout)
        first = factory(layout=layout)
        image = image_of(first)
        other = LAYOUTS[1] if layout is LAYOUTS[0] else LAYOUTS[0]
        factory(layout=other)  # the one-entry cache evicts ``image``
        if not has_image(tool):
            assert image is None and not base._SHADOW_IMAGES
            return
        assert image.closed
        assert image_of(first) is not image
        assert whole(first.shadow) == expected
        assert whole(factory(layout=layout).shadow) == expected

    def test_images_without_memfd_are_identical(
        self, tool, layout, empty_image_cache, monkeypatch
    ):
        expected = hook_on_zeroed(tool, layout)
        monkeypatch.delattr(os, "memfd_create", raising=False)
        factory = SANITIZER_FACTORIES[tool]
        first = factory(layout=layout)
        second = factory(layout=layout)
        assert whole(first.shadow) == whole(second.shadow) == expected
        assert has_image(tool) == (image_of(first) is not None)

    def test_new_session_allocates_little(self, tool, layout):
        Session(tool, layout=layout)  # builds the image, warms imports
        tracemalloc.start()
        try:
            session = Session(tool, layout=layout)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert session.sanitizer.layout == layout
        assert allocated < 64 * 1024


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


def test_threads_share_the_image_cache(empty_image_cache, monkeypatch):
    """Sessions built on more threads than cores, over more layouts than
    the cache holds, each start from their layout's image, and no image
    the cache keeps is closed."""
    monkeypatch.setattr(base, "_SHADOW_IMAGES_LIMIT", 2)
    layouts = LAYOUTS[1:] + [
        ArenaLayout(heap_size=1 << 15, stack_size=1 << 13, globals_size=1 << 12),
        ArenaLayout(heap_size=1 << 17, stack_size=1 << 13, globals_size=1 << 12),
    ]
    expected = {layout: hook_on_zeroed("ASan", layout) for layout in layouts}
    errors = []

    def build(offset: int) -> None:
        try:
            for step in range(60):
                layout = layouts[(offset + step) % len(layouts)]
                san = SANITIZER_FACTORIES["ASan"](layout=layout)
                if whole(san.shadow) != expected[layout]:
                    errors.append(f"wrong shadow for {layout}")
        except Exception as exc:  # a thread cannot fail the test itself
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=build, args=(n,)) for n in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(base._SHADOW_IMAGES) <= 2
    assert not any(image.closed for image in base._SHADOW_IMAGES.values())
