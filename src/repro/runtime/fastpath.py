"""Superblock fast path: bulk execution of eligible loops.

The tree-walking interpreter dispatches one IR node per iteration, which
makes the big experiment sweeps interpreter-bound.  This module applies
the paper's own insight to the simulator: just as one folded segment
vouches for a whole region, one *superblock* can execute a whole
straight-line loop when its behaviour is statically predictable.

A loop is eligible when

* its body is straight line — only ``Compute``/``Assign``/``Load``/
  ``Store`` plus leftover ``CheckAccess``/``CheckRegion`` instructions
  (no control flow, calls, allocation, intrinsics, or history caching);
* every memory/check site's base pointer is loop-invariant and its
  offset is affine in the induction variable (the same SCEV-style
  analysis loop-check promotion uses);
* the body lowers to a runner: interpretable operators only, and shift
  amounts must be non-negative constants so bulk execution cannot raise
  mid-flight.

Execution then proceeds in three phases, each of which may *decline* and
fall back to the per-iteration interpreter (so every error path and
every edge case runs through the reference implementation):

1. **Precheck** — instruction budget, required variables present, every
   accessed address range inside the simulated address space.
2. **Fold** — the sanitizer's ``fold_*_checks`` hooks decide, without
   mutating anything, that every per-iteration check passes and return
   the exact stat deltas (see :mod:`repro.sanitizers.base`).
3. **Run + charge** — the lowered body performs the real loads and
   stores directly on the address-space buffer, and native cycles /
   instruction counts / CheckStats / Figure 10 categories are charged
   arithmetically (count × per-iteration events), matching the
   tree-walker to the last counter.  An eligible body runs as a slice
   kernel: each memory site is one stepped slice of the buffer, every
   value is computed over whole slices and every store is one slice
   assignment, after all loads.  When a store shares a byte with
   another site on this entry (a dependence carried through memory),
   or the body is not eligible, a per-element runner performs the loads
   and stores in program order instead.

This module plans and executes; it generates no code.  Both lowerings
come from the compiled engine's emitter
(:func:`repro.runtime.compiler.compile_superblock`), and both engines
call :func:`try_execute`, which also records the superblock telemetry:
the ``superblock`` phase, ``superblock_loops``, ``superblock_iterations``,
``superblock_bulk_iterations`` (the iterations that ran as slices) and
every decline reason.

Disable it with ``ExecConfig(fastpath=False)`` (``REPRO_FASTPATH=0`` in
the CLI); the configuration-matrix tests assert identical results.

The fold hooks' whole-range addressability scans go through
``repro.shadow.ShadowMemory.find_not_full``, so a superblock's
covering-range scan is one C-level ``translate``/``find`` over the
shadow slice instead of a per-segment walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..errors import AccessType
from ..ir.nodes import (
    Assign,
    CheckAccess,
    CheckRegion,
    Compute,
    Expr,
    Load,
    Loop,
    Protection,
    Store,
)
from ..passes.constprop import assigned_vars
from ..passes.loop_bounds import affine_of
from ..sanitizers.base import FoldResult

if TYPE_CHECKING:
    from .compiler import Superblock

#: Attribute used to memoize the analysis result on each Loop node.
_PLAN_ATTR = "_fastpath_plan"

#: Loops shorter than this run through the tree walker; the superblock
#: setup cost (invariant evaluation, folding, closure entry) only pays
#: off once several iterations are amortized over it.
MIN_TRIP_COUNT = 4


class _Ineligible(Exception):
    """Internal signal: this loop cannot take the fast path."""


# ----------------------------------------------------------------------
# the loop plan
# ----------------------------------------------------------------------
@dataclass
class _MemSite:
    """One Load/Store with an affine address: base + coeff*i + offset."""

    base: str
    coefficient: int
    offset_expr: Expr  # loop-invariant part, evaluated once per entry
    width: int


@dataclass
class _AccessCheckSite:
    """One leftover in-loop CheckAccess (ASan / ASan-- shapes)."""

    base: str
    coefficient: int
    offset_expr: Expr
    width: int
    access: AccessType


@dataclass
class _RegionCheckSite:
    """One leftover in-loop CheckRegion (LFP's region placement)."""

    base: str
    start_coefficient: int
    start_expr: Expr
    end_coefficient: int
    end_expr: Expr
    access: AccessType
    use_anchor: bool


@dataclass
class LoopPlan:
    """Everything needed to run one eligible loop as a superblock."""

    body_len: int
    arith_count: int  # Assign instructions per iteration
    memory_count: int  # Load + Store instructions per iteration
    compute_cycles: float  # summed Compute cycles per iteration
    mem_sites: List[_MemSite] = field(default_factory=list)
    access_checks: List[_AccessCheckSite] = field(default_factory=list)
    region_checks: List[_RegionCheckSite] = field(default_factory=list)
    #: Figure 10 access categories charged per iteration.
    protection_per_iter: Dict[str, int] = field(default_factory=dict)
    #: Variables the body reads from ``env`` before the first write.
    preload: List[str] = field(default_factory=list)
    #: The lowered body: slice kernel and per-element runner.
    superblock: Optional["Superblock"] = None


def _classify(protection: Protection) -> Optional[str]:
    """The Figure 10 category ``_classify_access`` would record."""
    if protection is Protection.ELIMINATED:
        return "eliminated"
    if protection is Protection.CACHED:
        return "cached"
    if protection is Protection.ELIDED:
        return "elided"
    if protection is Protection.UNPROTECTED:
        return "unprotected"
    return None  # DIRECT: classified at the check instruction


def analyze_loop(loop: Loop) -> Optional[LoopPlan]:
    """Build (or reuse) the superblock plan for ``loop``; None = ineligible.

    The result is memoized on the Loop node itself, so instrumented
    programs shared through the memo cache analyze each loop once per
    process no matter how many runs execute it.
    """
    plan = getattr(loop, _PLAN_ATTR, _PLAN_ATTR)
    if plan is not _PLAN_ATTR:
        return plan
    try:
        plan = _analyze(loop)
    except _Ineligible:
        plan = None
    setattr(loop, _PLAN_ATTR, plan)
    return plan


def _analyze(loop: Loop) -> LoopPlan:
    body = loop.body
    if not body:
        raise _Ineligible("empty body")
    killed = assigned_vars(body) | {loop.var}
    if loop.var in assigned_vars(body):
        raise _Ineligible("induction variable reassigned")

    plan = LoopPlan(
        body_len=len(body), arith_count=0, memory_count=0, compute_cycles=0.0
    )

    def affine(expr: Expr):
        result = affine_of(expr, loop.var, killed)
        if result is None:
            raise _Ineligible("non-affine offset")
        return result

    def invariant_base(name: str) -> None:
        if name in killed:
            raise _Ineligible("loop-variant base pointer")

    for instr in body:
        kind = type(instr)
        if kind is Compute:
            plan.compute_cycles += instr.cycles
        elif kind is Assign:
            plan.arith_count += 1
        elif kind is Load or kind is Store:
            invariant_base(instr.base)
            site = affine(instr.offset)
            plan.mem_sites.append(
                _MemSite(instr.base, site.coefficient, site.offset, instr.width)
            )
            category = _classify(instr.protection)
            if category:
                plan.protection_per_iter[category] = (
                    plan.protection_per_iter.get(category, 0) + 1
                )
            plan.memory_count += 1
        elif kind is CheckAccess:
            invariant_base(instr.base)
            site = affine(instr.offset)
            plan.access_checks.append(
                _AccessCheckSite(
                    instr.base,
                    site.coefficient,
                    site.offset,
                    instr.width,
                    instr.access,
                )
            )
        elif kind is CheckRegion:
            invariant_base(instr.base)
            start = affine(instr.start)
            end = affine(instr.end)
            plan.region_checks.append(
                _RegionCheckSite(
                    instr.base,
                    start.coefficient,
                    start.offset,
                    end.coefficient,
                    end.offset,
                    instr.access,
                    instr.use_anchor,
                )
            )
        else:
            raise _Ineligible(kind.__name__)

    # local import: the compiler imports this module
    from .compiler import compile_superblock

    lowered = compile_superblock(
        loop, [site.coefficient for site in plan.mem_sites]
    )
    if lowered is None:
        raise _Ineligible("body does not lower")
    plan.superblock, plan.preload = lowered
    return plan


# ----------------------------------------------------------------------
# runtime execution
# ----------------------------------------------------------------------
def _declined(tele, reason: str) -> None:
    """Record a decline reason when telemetry is on; always None."""
    if tele is not None:
        tele.note_superblock_decline(reason)
    return None


def try_execute(interpreter, loop: Loop, values: range, env: Dict[str, int]) -> bool:
    """Run ``loop`` as a superblock if possible; False means fall back.

    Never partially executes: every declining branch happens before the
    first state mutation, so the caller's per-iteration loop can take
    over cleanly.  Both engines call this for every loop they may run as
    a superblock.  When the interpreter carries a telemetry registry,
    the call is one ``superblock`` phase event, a taken superblock adds
    to ``superblock_loops`` and ``superblock_iterations`` (and to
    ``superblock_bulk_iterations`` when it ran as slices), and every
    decline is counted by reason (the wiring-regression signal
    `repro profile` surfaces); the disabled path adds one test.
    """
    tele = interpreter.telemetry
    if tele is None:
        return _execute(interpreter, None, loop, values, env) is not None
    profiler = tele.profiler
    started = profiler.begin("superblock")
    bulk = _execute(interpreter, tele, loop, values, env)
    profiler.end("superblock", started)
    if bulk is None:
        return False
    tele.incr("superblock_loops")
    tele.incr("superblock_iterations", len(values))
    if bulk:
        tele.incr("superblock_bulk_iterations", len(values))
    return True


def _execute(
    interpreter, tele, loop: Loop, values: range, env
) -> Optional[bool]:
    """:func:`try_execute` without the phase and the taken counters:
    None when the loop declines, else whether it ran as slices."""
    count = len(values)
    if count < MIN_TRIP_COUNT:
        return _declined(tele, "short_trip")
    if interpreter._needs_resolve:
        return _declined(tele, "needs_address_resolution")
    plan = analyze_loop(loop)
    if plan is None:
        return _declined(tele, "ineligible_body")
    if (
        interpreter.instructions + count * plan.body_len
        > interpreter.max_instructions
    ):
        # the reference path raises BudgetExceeded exactly
        return _declined(tele, "instruction_budget")
    for name in plan.preload:
        if name not in env:
            # the reference path raises NameError/KeyError
            return _declined(tele, "unbound_variable")
    sanitizer = interpreter.san
    space = sanitizer.space
    total_size = space.layout.total_size
    first, last, stride = values[0], values[-1], values.step

    evaluated: Dict[int, int] = {}

    def invariant(expr: Expr) -> int:
        key = id(expr)
        value = evaluated.get(key)
        if value is None:
            value = interpreter._eval(expr, env)
            evaluated[key] = value
        return value

    try:
        for site in plan.mem_sites:
            base = env[site.base]
            offset = invariant(site.offset_expr)
            lo = base + site.coefficient * first + offset
            hi = base + site.coefficient * last + offset
            if lo > hi:
                lo, hi = hi, lo
            if lo < 0 or hi + site.width > total_size:
                # reference path records hardware faults
                return _declined(tele, "address_out_of_range")

        folded = FoldResult()
        for check in plan.access_checks:
            base = env[check.base]
            address = base + check.coefficient * first + invariant(
                check.offset_expr
            )
            result = sanitizer.fold_access_checks(
                count,
                address,
                check.coefficient * stride,
                check.width,
                check.access,
            )
            if result is None:
                return _declined(tele, "fold_declined")
            folded.merge(result)
        for check in plan.region_checks:
            base = env[check.base]
            start = base + check.start_coefficient * first + invariant(
                check.start_expr
            )
            end = base + check.end_coefficient * first + invariant(
                check.end_expr
            )
            result = sanitizer.fold_region_checks(
                count,
                base,
                start,
                check.start_coefficient * stride,
                end,
                check.end_coefficient * stride,
                check.access,
                check.use_anchor,
            )
            if result is None:
                return _declined(tele, "fold_declined")
            folded.merge(result)
    except (KeyError, NameError):
        # undefined variable: reference path raises it
        return _declined(tele, "unbound_variable")

    bulk = plan.superblock.run(env, values, space._mem)

    interpreter.instructions += count * plan.body_len
    costs = interpreter.costs
    interpreter.native_cycles += count * (
        costs.loop_iteration
        + plan.arith_count * costs.arith
        + plan.memory_count * costs.memory_access
        + plan.compute_cycles
    )
    folded.apply(sanitizer.stats)
    protection_counts = interpreter.protection_counts
    for category, per_iteration in plan.protection_per_iter.items():
        protection_counts[category] += per_iteration * count
    if folded.fast_only:
        protection_counts["fast_only"] += folded.fast_only
    if folded.full_check:
        protection_counts["full_check"] += folded.full_check
    return bulk
