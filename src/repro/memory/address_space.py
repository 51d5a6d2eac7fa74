"""Byte-accurate simulated address space.

This is the substrate the sanitizers protect: a flat range of bytes split
into heap / stack / globals arenas (see :mod:`repro.memory.layout`).  It
stores real data so workloads can compute with loaded values (the paper's
``y[j] = x[i]`` pattern needs genuine loads), and it performs *no* safety
checking of its own beyond arena bounds — safety is the sanitizers' job.

The bytes live in a private anonymous ``mmap``, not a ``bytearray``: the
kernel hands out zero pages only as a run first touches them, so a short
run over a multi-megabyte layout pays for the few pages it uses rather
than for zeroing the whole range.
"""

from __future__ import annotations

import mmap
import struct
from typing import Iterable

from ..errors import AddressSpaceError
from .layout import DEFAULT_LAYOUT, ArenaLayout

_STRUCT_BY_WIDTH = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}
_MASK_BY_WIDTH = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF, 8: 0xFFFFFFFFFFFFFFFF}

#: Precompiled codecs; ``struct.Struct`` methods skip the per-call format
#: parse and are also what the compiled engine inlines for loads/stores.
CODEC_BY_WIDTH = {
    width: struct.Struct(fmt) for width, fmt in _STRUCT_BY_WIDTH.items()
}


class AddressSpace:
    """A flat, byte-addressable memory with arena bookkeeping.

    Addresses are plain integers.  ``load``/``store`` move little-endian
    integers of width 1, 2, 4, or 8; ``read_bytes``/``write_bytes`` move
    raw ranges (used by the memset/memcpy intrinsics).

    Memory reads as zero until written.  It is mapped ``MAP_PRIVATE``
    (Python's default is ``MAP_SHARED``) so that a process forked while
    a session is live gets copy-on-write pages: a store in the child
    never reaches the parent's bytes.
    """

    def __init__(self, layout: ArenaLayout = None):
        self.layout = layout or DEFAULT_LAYOUT
        self._size = self.layout.total_size
        self._mem = mmap.mmap(-1, self._size, flags=mmap.MAP_PRIVATE)

    def __len__(self) -> int:
        return self._size

    def _bounds_check(self, address: int, size: int) -> None:
        if address < 0 or address + size > self._size:
            raise AddressSpaceError(
                f"access [{address:#x}, {address + size:#x}) leaves the "
                f"simulated address space of {self._size:#x} bytes"
            )

    def load(self, address: int, width: int) -> int:
        """Load a ``width``-byte little-endian unsigned integer."""
        codec = CODEC_BY_WIDTH.get(width)
        if codec is None:
            raise ValueError(f"unsupported load width: {width}")
        if address < 0 or address + width > self._size:
            self._bounds_check(address, width)
        return codec.unpack_from(self._mem, address)[0]

    def store(self, address: int, width: int, value: int) -> None:
        """Store a ``width``-byte little-endian unsigned integer."""
        codec = CODEC_BY_WIDTH.get(width)
        if codec is None:
            raise ValueError(f"unsupported store width: {width}")
        if address < 0 or address + width > self._size:
            self._bounds_check(address, width)
        codec.pack_into(self._mem, address, value & _MASK_BY_WIDTH[width])

    def read_bytes(self, address: int, size: int) -> bytes:
        """Copy ``size`` raw bytes out of memory."""
        if size < 0:
            raise ValueError("size must be non-negative")
        self._bounds_check(address, size)
        return bytes(self._mem[address : address + size])

    def write_bytes(self, address: int, data: bytes) -> None:
        """Copy raw bytes into memory."""
        self._bounds_check(address, len(data))
        self._mem[address : address + len(data)] = data

    def fill(self, address: int, size: int, byte: int) -> None:
        """memset: set ``size`` bytes to ``byte``."""
        if size < 0:
            raise ValueError("size must be non-negative")
        self._bounds_check(address, size)
        self._mem[address : address + size] = bytes([byte & 0xFF]) * size

    def copy(self, dst: int, src: int, size: int) -> None:
        """memmove-style copy that tolerates overlap."""
        if size < 0:
            raise ValueError("size must be non-negative")
        self._bounds_check(src, size)
        self._bounds_check(dst, size)
        self._mem[dst : dst + size] = bytes(self._mem[src : src + size])

    def find_byte(self, address: int, byte: int, limit: int) -> int:
        """Offset of the first occurrence of ``byte`` in ``[address,
        address+limit)``, or -1 when absent (strlen support)."""
        self._bounds_check(address, limit)
        index = self._mem.find(bytes([byte & 0xFF]), address, address + limit)
        return -1 if index < 0 else index - address

    def arena_of(self, address: int) -> str:
        """Arena name for ``address`` (delegates to the layout)."""
        return self.layout.arena_of(address)

    def snapshot(self, addresses: Iterable[int]) -> bytes:
        """Bytes at the given addresses, for debugging and tests."""
        return bytes(self._mem[a] for a in addresses)
