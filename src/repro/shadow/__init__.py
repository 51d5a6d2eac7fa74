"""Shadow memory and the two shadow encodings (ASan, GiantSan).

Both encodings write into one store, the ``bytearray`` plane of
:class:`ShadowMemory`.
"""

from .shadow_memory import ShadowMemory
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
