"""Native execution baseline: no metadata, no checks.

Used as the denominator for every overhead ratio in Table 2 and the
"Native" series in Figure 11.  The allocator still runs (programs need
memory) but with zero redzones, no quarantine, and no shadow writes.
"""

from __future__ import annotations

from .base import Capabilities, Sanitizer


class NativeSanitizer(Sanitizer):
    """No-op sanitizer; every check passes and costs nothing."""

    name = "Native"
    capabilities = Capabilities(temporal=False)

    def __init__(self, layout=None, **kwargs):
        kwargs.setdefault("redzone", 0)
        kwargs.setdefault("quarantine_bytes", 0)
        super().__init__(layout=layout, **kwargs)

    def _malloc(self, size):
        # no poisoning, no sanitizer event accounting — native malloc's
        # own cost is already charged by the interpreter's cycle table
        return self.allocator.malloc(size)

    def _free(self, address) -> None:
        allocation = self.allocator.lookup(address)
        if allocation is None:
            return  # native free of a bad pointer: undefined, not counted
        self.allocator.free(address)
        self.allocator.release_chunk(allocation)
