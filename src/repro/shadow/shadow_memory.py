"""Raw shadow memory: one shadow byte per 8-byte segment.

Both ASan and GiantSan map the application address ``a`` to the shadow
index ``a >> 3`` (paper §2.2).  This module stores the shadow array and
moves bytes; *what the bytes mean* is defined by the encoding modules
(:mod:`repro.shadow.asan_encoding`, :mod:`repro.shadow.giantsan_encoding`).

The store is a plain ``bytearray``: bulk fills are one slice write, and
bulk scans are one C-level ``translate`` + ``find`` over the slice.
"""

from __future__ import annotations

from typing import Optional

from ..memory.layout import SEGMENT_SHIFT, SEGMENT_SIZE


class ShadowMemory:
    """The shadow array for a simulated address space.

    Indices are *segment* indices, not byte addresses; use
    :meth:`index_of` to map an address.  All values are unsigned bytes
    (0..255); ASan's signed interpretation is applied by its encoding.
    """

    def __init__(self, memory_size: int, image: Optional[bytes] = None):
        """A zeroed shadow, or a copy of ``image`` (a whole shadow's
        bytes, as a sanitizer's initial poisoning leaves them)."""
        if memory_size % SEGMENT_SIZE:
            raise ValueError("memory size must be a multiple of the segment size")
        size = memory_size >> SEGMENT_SHIFT
        if image is None:
            self._shadow = bytearray(size)
        elif len(image) != size:
            raise ValueError(
                f"shadow image of {len(image)} bytes does not fit a "
                f"shadow of {size} bytes"
            )
        else:
            self._shadow = bytearray(image)

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

