"""Machine-speed probe for the end-to-end benchmark.

On a shared host the same pass can take 1.5x longer from one minute to
the next, and medians inside a run do not remove a slow phase that lasts
the whole run.  So the benchmark reports each pass's wall time in units
of fixed reference work timed *during* that pass: a SIGALRM handler
runs it every ``PERIOD_S``, wherever the pass is, and records how long
it took.

The reference work is two loops, because the host does not slow every
kind of work alike: ``cpu_loop`` is interpreter work that stays in the
core's caches, and ``MemoryLoop`` zeroes a buffer larger than the L2
cache, as the workloads do when they build a simulated address space.
A workload names the share of its time that slows like the memory
loop; the i-th sample's reference time is
``d_i = (1 - share) * cpu_i + share * memory_i``.

For a pass of net wall time ``T`` (the probe's own loops taken out),
the pass costs ``T * mean(1 / d_i)`` references.  ``1 / d_i`` is the
machine's speed at the i-th sample, and the samples are spread evenly
over the pass, so their mean is the pass's average speed; a sample hit
by a stall weighs little.

``setup_s`` must stay in seconds, so set-up is sampled with
``cpu_loop`` alone (imports and corpus generation are interpreter work)
and reported as ``refs * NOMINAL_REFERENCE_S``: its time on a machine
where ``cpu_loop`` takes 1 ms.

The loops are the unit of every ``*_refs`` metric and of ``setup_s``:
changing them, their sizes or a workload's share changes every recorded
value.
"""

from __future__ import annotations

import ctypes
import signal
import statistics
import time
from typing import List

_clock = time.perf_counter

#: Iterations of ``cpu_loop``: about 0.9 ms on a 2 GHz Xeon core.
CPU_ITERATIONS = 2000
#: Bytes ``MemoryLoop`` zeroes: about 0.5 ms, and 4x a 2 MiB L2 cache.
MEMORY_BYTES = 8 << 20
#: Seconds from the end of one sample to the start of the next.
PERIOD_S = 0.05
#: Seconds one reference takes at the speed ``setup_s`` is scaled to.
NOMINAL_REFERENCE_S = 0.001


class _Mixer:
    __slots__ = ("shift",)

    def __init__(self, shift: int) -> None:
        self.shift = shift

    def mix(self, total: int, value: int) -> int:
        return (total + (value >> self.shift)) & 0xFFFF


_MIXER = _Mixer(3)


def cpu_loop(iterations: int = CPU_ITERATIONS) -> int:
    """Fixed interpreter work: calls, attributes, dicts, bytearray, str.

    It creates no object the garbage collector tracks, so sampling it
    does not move the workload's collections.
    """
    table = {}
    buffer = bytearray(4096)
    mixer = _MIXER
    total = 0
    for i in range(iterations):
        table[i & 1023] = i ^ total
        value = table.get((i * 7) & 1023)
        if value is not None:
            total = mixer.mix(total, value)
        buffer[i & 4095] = total & 255
        total ^= len(str(i))
    return total


class MemoryLoop:
    """Zeroes one buffer allocated up front, so no call touches malloc."""

    def __init__(self, size: int = MEMORY_BYTES) -> None:
        self.size = size
        self.buffer = bytearray(size)
        self.address = ctypes.addressof(ctypes.c_char.from_buffer(self.buffer))

    def __call__(self) -> None:
        ctypes.memset(self.address, 0, self.size)


def timed(loop) -> float:
    started = _clock()
    loop()
    return _clock() - started


class SpeedProbe:
    """Samples the reference during a ``with`` block.

    Only one probe may be active in a process, in its main thread, and
    the block must not use SIGALRM itself.  At a memory share of 0 only
    ``cpu_loop`` runs.
    """

    def __init__(self, memory_share: float = 0.0,
                 period_s: float = PERIOD_S) -> None:
        self.memory_share = memory_share
        self.period_s = period_s
        self.memory_loop = MemoryLoop() if memory_share else None
        #: reference time of each sample
        self.samples: List[float] = []
        #: time the probe's own loops took inside the block
        self.probe_s = 0.0
        self.active = False

    def _measure(self) -> None:
        cpu = timed(cpu_loop)
        memory = timed(self.memory_loop) if self.memory_loop else 0.0
        self.probe_s += cpu + memory
        share = self.memory_share
        self.samples.append((1.0 - share) * cpu + share * memory)

    def _sample(self, signum, frame) -> None:
        # a signal still pending when the block ends is dropped
        if self.active:
            self._measure()
            # re-armed only now, so a stalled sample never nests
            signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def __enter__(self) -> "SpeedProbe":
        self.samples, self.probe_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.active = True
        self.started = _clock()
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        #: wall time of the block without the probe's own loops
        self.net_s = _clock() - self.started - self.probe_s
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # a block shorter than one period: sample once after it
            self._measure()

    @property
    def speed(self) -> float:
        """References per second over the block: ``mean(1 / d_i)``."""
        return statistics.fmean(1.0 / sample for sample in self.samples)

    @property
    def refs(self) -> float:
        """The block's net wall time in references."""
        return self.net_s * self.speed

    @property
    def ref_ms(self) -> float:
        """Median reference time of the samples, in milliseconds."""
        return statistics.median(self.samples) * 1e3
