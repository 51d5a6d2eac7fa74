"""Shadow memory and the two shadow encodings (ASan, GiantSan).

Both encodings write into one store, the private ``mmap`` plane of
:class:`ShadowMemory`; a :class:`ShadowImage` holds a sealed initial
plane that new shadows map copy-on-write.
"""

from .shadow_memory import ShadowImage, ShadowMemory
from .folding import (
    MAX_DEGREE,
    floor_log2,
    degree_for_remaining,
    fold_degrees,
    run_lengths,
    verify_degrees,
)
from . import asan_encoding, giantsan_encoding, oracle

__all__ = [
    "ShadowImage",
    "ShadowMemory",
    "MAX_DEGREE",
    "floor_log2",
    "degree_for_remaining",
    "fold_degrees",
    "run_lengths",
    "verify_degrees",
    "asan_encoding",
    "giantsan_encoding",
    "oracle",
]
