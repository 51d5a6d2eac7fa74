"""Raw shadow memory: one shadow byte per 8-byte segment.

Both ASan and GiantSan map the application address ``a`` to the shadow
index ``a >> 3`` (paper §2.2).  This module stores the shadow array and
moves bytes; *what the bytes mean* is defined by the encoding modules
(:mod:`repro.shadow.asan_encoding`, :mod:`repro.shadow.giantsan_encoding`).

The store is a private ``mmap``, as the paper's runtime reserves its
shadow with ``mmap`` and lets the kernel supply pages as they are
touched.  A zeroed shadow is an anonymous mapping; a shadow that starts
from a sanitizer's initial poisoning maps a sealed :class:`ShadowImage`
file copy-on-write, so a session pays only for the pages it writes.
Bulk fills are one slice write, and bulk scans are one C-level
``translate`` + ``find`` over the slice.
"""

from __future__ import annotations

import mmap
import os
import weakref
from typing import Optional

from ..memory.layout import SEGMENT_SHIFT, SEGMENT_SIZE


def _sealed_file(codes) -> int:
    """A file descriptor holding ``codes``.

    The file is a ``memfd`` sealed against writes, resizing and shared
    writable maps where the host has ``memfd_create``, else an unlinked
    temporary file, which nothing writes after this.
    """
    view = memoryview(codes).cast("B")
    try:
        fd = os.memfd_create(
            "repro-shadow-image", os.MFD_CLOEXEC | os.MFD_ALLOW_SEALING
        )
        sealable = True
    except (AttributeError, OSError):  # no memfd on this host
        import tempfile  # lazily: set-up time counts imports

        with tempfile.TemporaryFile() as handle:
            fd = os.dup(handle.fileno())
        sealable = False
    try:
        written = 0
        while written < len(view):
            written += os.write(fd, view[written:])
        if sealable:
            import fcntl

            fcntl.fcntl(
                fd,
                fcntl.F_ADD_SEALS,
                fcntl.F_SEAL_WRITE | fcntl.F_SEAL_SHRINK
                | fcntl.F_SEAL_GROW | fcntl.F_SEAL_SEAL,
            )
    except BaseException:
        os.close(fd)
        raise
    return fd


class ShadowImage:
    """A whole shadow's initial bytes, written once into a sealed file.

    Every :class:`ShadowMemory` built from the image maps the file
    ``MAP_PRIVATE``: it reads the image's pages until it writes one,
    and the kernel then copies that page for it alone.  The file closes
    on :meth:`close`, or when the last reference to the image goes;
    shadows already mapped from it keep their pages.
    """

    def __init__(self, codes):
        self.size = len(codes)
        self._fd = _sealed_file(codes)
        self._closer = weakref.finalize(self, os.close, self._fd)

    @property
    def closed(self) -> bool:
        return not self._closer.alive

    def close(self) -> None:
        self._closer()

    def fileno(self) -> int:
        return self._fd

    def map(self) -> mmap.mmap:
        """A private, writable mapping of the image."""
        return mmap.mmap(self._fd, self.size, flags=mmap.MAP_PRIVATE)


class ShadowMemory:
    """The shadow array for a simulated address space.

    Indices are *segment* indices, not byte addresses; use
    :meth:`index_of` to map an address.  All values are unsigned bytes
    (0..255); ASan's signed interpretation is applied by its encoding.
    """

    def __init__(self, memory_size: int, image: Optional[ShadowImage] = None):
        """A zeroed shadow, or a copy-on-write mapping of ``image`` (a
        whole shadow, as a sanitizer's initial poisoning leaves it).

        Both are private mappings, so a process forked while the shadow
        is live writes its own copy of a page, never the parent's.
        """
        if memory_size <= 0 or memory_size % SEGMENT_SIZE:
            raise ValueError(
                "memory size must be a positive multiple of the segment size"
            )
        size = memory_size >> SEGMENT_SHIFT
        if image is None:
            self._shadow = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        elif image.size != size:
            raise ValueError(
                f"shadow image of {image.size} bytes does not fit a "
                f"shadow of {size} bytes"
            )
        else:
            self._shadow = image.map()

    def __len__(self) -> int:
        return len(self._shadow)

    @staticmethod
    def index_of(address: int) -> int:
        """Shadow index of the segment covering ``address``."""
        return address >> SEGMENT_SHIFT

    def load(self, index: int) -> int:
        """Read one shadow byte (the unit the cost model charges for)."""
        return self._shadow[index]

    def store(self, index: int, code: int) -> None:
        """Write one shadow byte."""
        self._shadow[index] = code & 0xFF

    def _range_check(self, index: int, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        if index < 0 or index + count > len(self._shadow):
            raise IndexError(
                f"shadow range [{index}, {index + count}) leaves the "
                f"shadow array of {len(self._shadow)} bytes"
            )

    def fill(self, index: int, count: int, code: int) -> None:
        """Set ``count`` consecutive shadow bytes to ``code``."""
        self._range_check(index, count)
        self._shadow[index : index + count] = bytes([code & 0xFF]) * count

    def write_codes(self, index: int, codes) -> None:
        """Write a precomputed code sequence from any bytes-like object
        (segment folding hands its cached poison tables straight in)."""
        self._range_check(index, len(codes))
        self._shadow[index : index + len(codes)] = codes

    def region(self, index: int, count: int) -> bytes:
        """Snapshot of ``count`` shadow bytes starting at ``index``."""
        self._range_check(index, count)
        return bytes(self._shadow[index : index + count])

    def view(self, index: int, count: int) -> memoryview:
        """Zero-copy view of ``count`` shadow bytes starting at ``index``.

        The view aliases live shadow storage: later stores are visible
        through it.  Callers that need a stable snapshot (for example to
        compare before/after states) must use :meth:`region` instead.
        """
        self._range_check(index, count)
        return memoryview(self._shadow)[index : index + count]

    def codes_for_range(self, address: int, size: int) -> bytes:
        """Shadow bytes covering the byte range ``[address, address+size)``."""
        if size <= 0:
            return b""
        first = self.index_of(address)
        last = self.index_of(address + size - 1)
        return self.region(first, last - first + 1)

    # ------------------------------------------------------------------
    # bulk scanning primitive
    # ------------------------------------------------------------------
    def find_not_full(self, index: int, count: int, full_flags: bytes) -> int:
        """Offset of the first non-fully-addressable segment, or -1.

        ``full_flags`` is a 256-entry table mapping fully-addressable
        codes to ``0`` and everything else to ``1`` (see
        :func:`repro.shadow.oracle.scan_tables`).  This is the one
        primitive every bulk region scan reduces to: a C-level
        ``translate`` + ``find`` over the slice.
        """
        self._range_check(index, count)
        return self._shadow[index : index + count].translate(full_flags).find(1)

