"""Byte-exact addressability oracle.

The oracle walks shadow codes one segment at a time and decides whether a
region is fully addressable.  It is deliberately slow and obviously
correct: property tests compare every sanitizer's O(1)/O(n) check result
against it, and detection experiments use it as ground truth.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..memory.layout import SEGMENT_SIZE, segment_index, segment_offset
from . import asan_encoding, giantsan_encoding
from .shadow_memory import ShadowMemory

#: An oracle prefix function: addressable bytes at the start of one
#: segment given its shadow code.
PrefixFn = Callable[[int], int]


def region_is_addressable(
    shadow: ShadowMemory,
    start: int,
    end: int,
    prefix_of: PrefixFn,
) -> Tuple[bool, Optional[int]]:
    """Whether every byte in ``[start, end)`` is addressable.

    Returns ``(ok, faulting_address)``; ``faulting_address`` is the first
    non-addressable byte when ``ok`` is False.

    ``prefix_of`` interprets one shadow code as the length of the
    addressable prefix of its segment (encoding-specific).
    """
    if end <= start:
        return True, None
    address = start
    while address < end:
        index = segment_index(address)
        code = shadow.load(index)
        prefix = prefix_of(code)
        offset = segment_offset(address)
        if offset >= prefix:
            return False, address
        segment_end = (index + 1) * SEGMENT_SIZE
        addressable_until = index * SEGMENT_SIZE + prefix
        if addressable_until < min(end, segment_end):
            return False, addressable_until
        address = segment_end
    return True, None


def asan_region_is_addressable(
    shadow: ShadowMemory, start: int, end: int
) -> Tuple[bool, Optional[int]]:
    """Oracle specialized to the ASan encoding."""
    return region_is_addressable(
        shadow, start, end, asan_encoding.addressable_prefix
    )


def giantsan_region_is_addressable(
    shadow: ShadowMemory, start: int, end: int
) -> Tuple[bool, Optional[int]]:
    """Oracle specialized to the GiantSan encoding."""
    return region_is_addressable(
        shadow, start, end, giantsan_encoding.addressable_prefix
    )


def first_poison_code(
    shadow: ShadowMemory, start: int, end: int, prefix_of: PrefixFn
) -> Optional[int]:
    """Shadow code of the segment containing the first violation, or None."""
    ok, fault = region_is_addressable(shadow, start, end, prefix_of)
    if ok:
        return None
    return shadow.load(segment_index(fault))


# ----------------------------------------------------------------------
# bulk scanning (segment-folding analogue for the simulator itself)
# ----------------------------------------------------------------------
# The per-segment walk above is the reference semantics.  The bulk scans
# below answer the same question over a whole shadow *slice*: every code
# maps to a one-byte full/partial flag and the first non-full segment is
# located by the shadow plane's ``find_not_full`` primitive (a C-level
# ``translate``/``find``).  Only that single segment then needs the
# per-code arithmetic, so a region of N segments costs O(N) C-level
# work — zero-copy, straight over the live shadow storage — instead of
# N Python-level iterations.  Property tests cross-validate the bulk
# scans against :func:`region_is_addressable` on randomized shadow
# states.

#: 256-entry tables per prefix function, built once and memoized.
_TABLE_CACHE: dict = {}


def scan_tables(prefix_of: PrefixFn):
    """``(prefix_table, full_flags)`` for one encoding's prefix function.

    ``prefix_table[code]`` is the addressable prefix (0..8) of a segment
    holding ``code``; ``full_flags`` maps fully-addressable codes to
    ``0x00`` and everything else to ``0x01`` so ``translate`` + ``find``
    can locate the first non-full segment of a slice.
    """
    tables = _TABLE_CACHE.get(prefix_of)
    if tables is None:
        prefixes = bytes(
            min(prefix_of(code), SEGMENT_SIZE) for code in range(256)
        )
        full_flags = bytes(
            0 if prefixes[code] >= SEGMENT_SIZE else 1 for code in range(256)
        )
        tables = (prefixes, full_flags)
        _TABLE_CACHE[prefix_of] = tables
    return tables


def scan_codes(
    codes: bytes,
    first_index: int,
    start: int,
    end: int,
    prefix_of: PrefixFn,
) -> Tuple[bool, Optional[int], int]:
    """Bulk equivalent of :func:`region_is_addressable` over a slice.

    ``codes`` must cover the segments of ``[start, end)`` starting at
    segment ``first_index``.  Returns ``(ok, faulting_address,
    segments_visited)`` where ``segments_visited`` is exactly the number
    of segments the reference walk would have examined (every full
    segment up to and including the stopping one).
    """
    if end <= start:
        return True, None, 0
    prefixes, full_flags = scan_tables(prefix_of)
    count = segment_index(end - 1) - first_index + 1
    pos = codes.translate(full_flags).find(1, 0, count)
    if pos < 0:
        return True, None, count
    # Every segment before ``pos`` is fully addressable; replay the
    # reference walk's arithmetic on the first non-full segment.
    index = first_index + pos
    segment_base = index * SEGMENT_SIZE
    address = start if pos == 0 else segment_base
    prefix = prefixes[codes[pos]]
    if address - segment_base >= prefix:
        return False, address, pos + 1
    segment_end = segment_base + SEGMENT_SIZE
    addressable_until = segment_base + prefix
    if addressable_until < min(end, segment_end):
        return False, addressable_until, pos + 1
    # The partial prefix covers everything still needed, which is only
    # possible when this is the region's last segment: done.
    return True, None, pos + 1


def scan_region(
    shadow: ShadowMemory,
    start: int,
    end: int,
    prefix_of: PrefixFn,
) -> Tuple[bool, Optional[int], int]:
    """Bulk equivalent of :func:`region_is_addressable`, zero-copy.

    Same contract as :func:`scan_codes`, but the slice search runs
    through the shadow plane's ``find_not_full`` primitive directly on
    live shadow storage — no snapshot is taken.  ``segments_visited`` is
    exactly the number of segments the reference walk would have
    examined.
    """
    if end <= start:
        return True, None, 0
    prefixes, full_flags = scan_tables(prefix_of)
    first = segment_index(start)
    count = segment_index(end - 1) - first + 1
    pos = shadow.find_not_full(first, count, full_flags)
    if pos < 0:
        return True, None, count
    index = first + pos
    segment_base = index * SEGMENT_SIZE
    address = start if pos == 0 else segment_base
    prefix = prefixes[shadow.load(index)]
    if address - segment_base >= prefix:
        return False, address, pos + 1
    segment_end = segment_base + SEGMENT_SIZE
    addressable_until = segment_base + prefix
    if addressable_until < min(end, segment_end):
        return False, addressable_until, pos + 1
    return True, None, pos + 1


def bulk_region_is_addressable(
    shadow: ShadowMemory, start: int, end: int, prefix_of: PrefixFn
) -> Tuple[bool, Optional[int]]:
    """Drop-in fast replacement for :func:`region_is_addressable`."""
    ok, fault, _ = scan_region(shadow, start, end, prefix_of)
    return ok, fault
