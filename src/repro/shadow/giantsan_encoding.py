"""GiantSan's shadow encoding with folded segments (paper §4.1, Def. 1).

State codes in one unsigned shadow byte::

    m[p] = 64 - i   -> the p-th segment is an (i)-folded segment
    m[p] = 72 - k   -> the p-th segment is k-partial (first k bytes good)
    m[p] > 72       -> error codes (redzone, freed, stack poison, ...)

The encoding is *monotone*: a smaller code means more consecutive
addressable bytes follow the segment base.  The integer trick
``u = (v <= 64) << (67 - v)`` recovers the guaranteed addressable byte
count without a log2 (paper §4.2); it yields ``8 * 2^i`` for folded codes
and 0 for everything else.

Error codes reuse compiler-rt's poison values (0xF1..0xFE), which all
satisfy ``> 72``, so report classification is shared with the ASan
encoding module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional

from ..errors import ErrorKind
from ..memory.allocator import Allocation
from ..memory.layout import SEGMENT_SIZE, segment_index
from . import asan_encoding, folding
from .folding import MAX_DEGREE, run_lengths
from .shadow_memory import ShadowMemory

#: Code for a plain good segment: (0)-folded.
GOOD = 64

#: Boundary constants from Definition 1.
FOLDED_MAX_CODE = 64  # codes <= 64 are folded segments
PARTIAL_BASE = 72  # code 72 - k for a k-partial segment
ERROR_THRESHOLD = 72  # codes > 72 are error codes

#: Poison codes are shared with the ASan encoding (all > 72).
HEAP_LEFT_REDZONE = asan_encoding.HEAP_LEFT_REDZONE
HEAP_RIGHT_REDZONE = asan_encoding.HEAP_RIGHT_REDZONE
HEAP_FREED = asan_encoding.HEAP_FREED
STACK_LEFT_REDZONE = asan_encoding.STACK_LEFT_REDZONE
STACK_MID_REDZONE = asan_encoding.STACK_MID_REDZONE
STACK_RIGHT_REDZONE = asan_encoding.STACK_RIGHT_REDZONE
STACK_AFTER_RETURN = asan_encoding.STACK_AFTER_RETURN
GLOBAL_REDZONE = asan_encoding.GLOBAL_REDZONE
NULL_PAGE = asan_encoding.NULL_PAGE


def encode_folded(degree: int) -> int:
    """Shadow code for an (i)-folded segment.

    Degrees carry six bits (0..``MAX_DEGREE``), so emitted codes span
    [1, 64]; code 0 is reserved headroom and never produced.
    """
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"folding degree out of range: {degree}")
    return FOLDED_MAX_CODE - degree


def encode_partial(k: int) -> int:
    """Shadow code for a k-partial segment (1 <= k <= 7)."""
    if not 1 <= k <= SEGMENT_SIZE - 1:
        raise ValueError(f"partial byte count out of range: {k}")
    return PARTIAL_BASE - k


def decode_degree(code: int) -> Optional[int]:
    """Folding degree for a folded code, else None."""
    return FOLDED_MAX_CODE - code if code <= FOLDED_MAX_CODE else None


def decode_partial(code: int) -> Optional[int]:
    """Addressable prefix length k for a partial code, else None."""
    if FOLDED_MAX_CODE < code <= PARTIAL_BASE - 1:
        return PARTIAL_BASE - code
    return None


def is_error_code(code: int) -> bool:
    """True for codes marking non-addressable segments (> 72)."""
    return code > ERROR_THRESHOLD


def guaranteed_bytes(code: int) -> int:
    """Addressable bytes guaranteed from the segment base.

    The branch-free form the paper uses: ``(v <= 64) << (67 - v)``.
    Folded codes yield ``8 * 2^degree``; partial and error codes yield 0.
    """
    return (1 << (67 - code)) if code <= FOLDED_MAX_CODE else 0


def addressable_prefix(code: int) -> int:
    """Addressable bytes at the start of the single segment with ``code``
    (caps folded guarantees at one segment; used by the oracle)."""
    if code <= FOLDED_MAX_CODE:
        return SEGMENT_SIZE
    partial = decode_partial(code)
    return partial if partial is not None else 0


def classify(code: int) -> ErrorKind:
    """Error kind implied by hitting ``code``."""
    if is_error_code(code) and code in asan_encoding.ERROR_KIND_BY_CODE:
        return asan_encoding.ERROR_KIND_BY_CODE[code]
    if decode_partial(code) is not None:
        return ErrorKind.HEAP_BUFFER_OVERFLOW
    return ErrorKind.UNKNOWN


def _expand_codes(runs, tail: int) -> bytes:
    """Run expansion: degree runs then the partial tail."""
    codes = bytearray()
    for degree, run in runs:
        codes.extend(bytes([encode_folded(degree)]) * run)
    if tail:
        codes.append(encode_partial(tail))
    return bytes(codes)


@lru_cache(maxsize=4096)
def _object_codes_cached(size: int, cap: int) -> bytes:
    # ``cap`` is folding.MAX_DEGREE at call time, the cap run_lengths uses
    good, tail = divmod(size, SEGMENT_SIZE)
    return _expand_codes(run_lengths(good), tail)


def object_codes(size: int) -> bytes:
    """The shadow code sequence for an object of ``size`` bytes.

    ``size // 8`` good segments get folded codes (Figure 5); a trailing
    ``size % 8`` tail becomes a partial segment.  The sequence depends
    only on ``size`` and the degree cap and is immutable, so it is
    memoized: repeated malloc/free of the same size class poisons from a
    precomputed table.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    return _object_codes_cached(size, folding.MAX_DEGREE)


def poison_object_shadow(shadow: ShadowMemory, base: int, size: int) -> int:
    """Write folded codes for an object at ``base``, one slice write of
    the memoized table; returns shadow bytes written (the linear-time
    poisoning cost the paper notes in §4.1)."""
    codes = object_codes(size)
    shadow.write_codes(segment_index(base), codes)
    return len(codes)


def poison_allocation(shadow: ShadowMemory, allocation: Allocation) -> int:
    """Shadow setup for a fresh heap allocation under GiantSan.

    Identical to ASan's poisoning except the object's interior receives
    folding degrees instead of uniform zeros (paper §4.5, "Shadow
    Poisoning").  Rounding slack from BBC/LFP-style policies is folded in
    as addressable, matching their semantics.  Returns the shadow bytes
    written, the quantity the telemetry shadow-traffic counters record.
    """
    written = poison_object_shadow(
        shadow, allocation.base, allocation.usable_size
    )
    left_segments = allocation.left_redzone >> 3
    if left_segments:
        shadow.fill(
            segment_index(allocation.chunk_base), left_segments, HEAP_LEFT_REDZONE
        )
        written += left_segments
    first_rz = segment_index(allocation.base + allocation.usable_size + 7)
    end_seg = segment_index(allocation.chunk_end)
    if end_seg > first_rz:
        shadow.fill(first_rz, end_seg - first_rz, HEAP_RIGHT_REDZONE)
        written += end_seg - first_rz
    return written


def poison_freed(shadow: ShadowMemory, allocation: Allocation) -> int:
    """Mark a freed object's region as HEAP_FREED (quarantine entry);
    returns the shadow bytes written."""
    index = segment_index(allocation.base)
    count = (allocation.usable_size + SEGMENT_SIZE - 1) >> 3
    shadow.fill(index, count, HEAP_FREED)
    return count


def unpoison_chunk(shadow: ShadowMemory, allocation: Allocation) -> int:
    """Reset a recycled chunk's shadow to plain good segments; returns
    the shadow bytes written."""
    index = segment_index(allocation.chunk_base)
    count = allocation.chunk_size >> 3
    shadow.fill(index, count, GOOD)
    return count


def refold_region(shadow: ShadowMemory, base: int, size: int) -> None:
    """Rebuild folding for ``[base, base+size)`` treated as one object.

    Exposed for manual poisoning APIs (``__asan_unpoison`` analogue).
    """
    poison_object_shadow(shadow, base, size)


def describe_codes(codes: List[int]) -> List[str]:
    """Human-readable rendering of shadow codes, for debugging/printing."""
    labels = []
    for code in codes:
        degree = decode_degree(code)
        if degree is not None:
            labels.append(f"({degree})")
            continue
        partial = decode_partial(code)
        if partial is not None:
            labels.append(f"{partial}-part")
            continue
        labels.append(f"err:{code:#x}")
    return labels
