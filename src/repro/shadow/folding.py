"""Binary segment folding: the paper's core encoding trick (§4.1).

A "good" segment holds 8 addressable bytes.  Folding summarizes runs of
good segments: an ``(i)``-folded segment guarantees that it and the next
``2^i - 1`` segments are all good, i.e. at least ``8 * 2^i`` consecutive
addressable bytes start at its base.

For an object whose allocated region contains ``g`` good segments, the
j-th good segment receives degree ``floor(log2(g - j))`` — the largest
power-of-two run that still fits in the remaining good segments.  That
reproduces the paper's Figure 5 pattern: counting from the object's end
there is one (0)-folded, two (1)-folded, four (2)-folded segments, and the
head of the object absorbs the highest degree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

#: Maximum folding degree.  The paper reserves six shadow bits for the
#: degree (§1: "six shadow bits are sufficient"), so degrees are
#: 0..63 and a degree-i segment encodes as code ``64 - i`` in [1, 64].
#: Code 0 is reserved headroom of the monotone encoding, never emitted.
#: :func:`degree_for_remaining` clamps to this cap, which only objects
#: with >= 2^63 good segments (2^66 bytes) could exceed.  The memo
#: tables below key on the cap as read at call time, so the degree
#: ablation may patch it to a lower value.
MAX_DEGREE = 63


def floor_log2(value: int) -> int:
    """``floor(log2(value))`` for positive integers."""
    if value <= 0:
        raise ValueError(f"floor_log2 needs a positive value: {value}")
    return value.bit_length() - 1


def degree_for_remaining(remaining: int) -> int:
    """Folding degree of a good segment with ``remaining`` good segments
    (including itself) until the object's addressable region ends."""
    return min(floor_log2(remaining), MAX_DEGREE)


@lru_cache(maxsize=4096)
def _fold_runs(good_segments: int, cap: int) -> Tuple[tuple, ...]:
    """Memoized (degree, run_length) pairs, keyed on the segment count
    and ``cap``, the :data:`MAX_DEGREE` the caller read.

    Allocator hooks recompute the folding for the same handful of object
    sizes on every malloc/free; the run decomposition depends only on the
    segment count and the cap, so an LRU turns poisoning into a table
    lookup.
    """
    runs: List[tuple] = []
    remaining = good_segments
    while remaining > 0:
        degree = degree_for_remaining(remaining)
        runs.append((degree, remaining - (1 << degree) + 1))
        remaining = (1 << degree) - 1
    return tuple(runs)


def fold_degrees(good_segments: int) -> List[int]:
    """Degrees for each of ``good_segments`` consecutive good segments.

    Runs in O(number of distinct degrees) internally; the returned list
    is what gets encoded into shadow memory.
    """
    if good_segments < 0:
        raise ValueError("good_segments must be non-negative")
    degrees: List[int] = []
    for degree, run_length in _fold_runs(good_segments, MAX_DEGREE):
        # All segments whose remaining count is still >= 2^degree share it.
        degrees.extend([degree] * run_length)
    return degrees


def run_lengths(good_segments: int) -> List[tuple]:
    """(degree, run_length) pairs for ``good_segments`` good segments,
    ordered from the object base; a compact form of :func:`fold_degrees`."""
    if good_segments <= 0:
        return []
    return list(_fold_runs(good_segments, MAX_DEGREE))


def verify_degrees(degrees: List[int]) -> bool:
    """Check the folding invariant: degree d at position j requires at
    least 2^d good segments remaining (len - j >= 2^d).

    Used by property tests; returns False on any violation.
    """
    total = len(degrees)
    return all((1 << d) <= total - j for j, d in enumerate(degrees))
