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
* expressions use only interpretable operators (shift amounts must be
  non-negative constants so bulk execution cannot raise mid-flight).

Execution then proceeds in three phases, each of which may *decline* and
fall back to the per-iteration interpreter (so every error path and
every edge case runs through the reference implementation):

1. **Precheck** — instruction budget, required variables present, every
   accessed address range inside the simulated address space.
2. **Fold** — the sanitizer's ``fold_*_checks`` hooks decide, without
   mutating anything, that every per-iteration check passes and return
   the exact stat deltas (see :mod:`repro.sanitizers.base`).
3. **Run + charge** — a compiled Python closure performs the real loads
   and stores in program order directly on the address-space buffer,
   and native cycles / instruction counts / CheckStats / Figure 10
   categories are charged arithmetically (count × per-iteration
   events), matching the tree-walker to the last counter.

Disable it with ``ExecConfig(fastpath=False)`` or ``REPRO_FASTPATH=0``
(the differential test suite runs every proxy both ways and asserts
identical results).

The fold hooks' whole-range addressability scans go through
``repro.shadow.ShadowMemory.find_not_full``, so a superblock's
covering-range scan is one C-level ``translate``/``find`` over the
shadow slice instead of a per-segment walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import AccessType
from ..ir.nodes import (
    Assign,
    BinOp,
    CheckAccess,
    CheckRegion,
    Compute,
    Const,
    Expr,
    Load,
    Loop,
    Protection,
    Store,
    Var,
)
from ..memory.address_space import CODEC_BY_WIDTH
from ..passes.constprop import assigned_vars
from ..passes.loop_bounds import affine_of
from ..sanitizers.base import FoldResult

#: Attribute used to memoize the analysis result on each Loop node.
_PLAN_ATTR = "_fastpath_plan"

#: Loops shorter than this run through the tree walker; the superblock
#: setup cost (invariant evaluation, folding, closure entry) only pays
#: off once several iterations are amortized over it.
MIN_TRIP_COUNT = 4


# ----------------------------------------------------------------------
# expression compilation
# ----------------------------------------------------------------------
_BIN_TEMPLATES = {
    "+": "({} + {})",
    "-": "({} - {})",
    "*": "({} * {})",
    "//": "_div({}, {})",
    "%": "_mod({}, {})",
    "<<": "({} << {})",
    ">>": "({} >> {})",
    "&": "({} & {})",
    "|": "({} | {})",
    "^": "({} ^ {})",
    "<": "int({} < {})",
    "<=": "int({} <= {})",
    ">": "int({} > {})",
    ">=": "int({} >= {})",
    "==": "int({} == {})",
    "!=": "int({} != {})",
}


def _div(a: int, b: int) -> int:
    return a // b if b else 0


def _mod(a: int, b: int) -> int:
    return a % b if b else 0


class _Ineligible(Exception):
    """Internal signal: this loop cannot take the fast path."""


class _Namer:
    """Maps IR variable names to safe, stable Python local names."""

    def __init__(self) -> None:
        self._names: Dict[str, str] = {}

    def local(self, name: str) -> str:
        local = self._names.get(name)
        if local is None:
            local = f"v{len(self._names)}"
            self._names[name] = local
        return local


def _emit(expr: Expr, namer: _Namer, reads: List[str]) -> str:
    """Compile one IR expression to Python source (fully parenthesized)."""
    if type(expr) is Const:
        return repr(expr.value)
    if type(expr) is Var:
        reads.append(expr.name)
        return namer.local(expr.name)
    if type(expr) is BinOp:
        template = _BIN_TEMPLATES.get(expr.op)
        if template is None:
            raise _Ineligible(expr.op)
        if expr.op in ("<<", ">>"):
            # A negative shift amount raises mid-run; only allow shapes
            # that provably cannot (the tree walker handles the rest).
            if not (type(expr.right) is Const and expr.right.value >= 0):
                raise _Ineligible("non-constant shift")
        return template.format(
            _emit(expr.left, namer, reads), _emit(expr.right, namer, reads)
        )
    raise _Ineligible(type(expr).__name__)


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
    #: Variables the closure reads from ``env`` before the first write.
    preload: List[str] = field(default_factory=list)
    runner: Callable = None
    source: str = ""


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
    namer = _Namer()
    loop_local = namer.local(loop.var)
    lines: List[str] = []
    written = {loop.var}
    preload: List[str] = []

    def note_reads(names: List[str]) -> None:
        for name in names:
            if name not in written and name not in preload:
                preload.append(name)

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
            reads: List[str] = []
            code = _emit(instr.expr, namer, reads)
            note_reads(reads)
            lines.append(f"{namer.local(instr.dst)} = {code}")
            written.add(instr.dst)
            plan.arith_count += 1
        elif kind is Load or kind is Store:
            if instr.width not in (1, 2, 4, 8):
                raise _Ineligible("unsupported width")
            invariant_base(instr.base)
            site = affine(instr.offset)
            reads = []
            offset_code = _emit(instr.offset, namer, reads)
            note_reads(reads + [instr.base])
            address = f"({namer.local(instr.base)} + {offset_code})"
            plan.mem_sites.append(
                _MemSite(instr.base, site.coefficient, site.offset, instr.width)
            )
            category = _classify(instr.protection)
            if category:
                plan.protection_per_iter[category] = (
                    plan.protection_per_iter.get(category, 0) + 1
                )
            plan.memory_count += 1
            if kind is Load:
                lines.append(
                    f"{namer.local(instr.dst)} = "
                    f"_u{instr.width}(mem, {address})[0]"
                )
                written.add(instr.dst)
            else:
                reads = []
                value_code = _emit(instr.value, namer, reads)
                note_reads(reads)
                mask = (1 << (8 * instr.width)) - 1
                lines.append(
                    f"_p{instr.width}(mem, {address}, {value_code} & {mask})"
                )
        elif kind is CheckAccess:
            invariant_base(instr.base)
            site = affine(instr.offset)
            note_reads([instr.base])
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
            note_reads([instr.base])
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

    plan.preload = preload
    plan.source, plan.runner = _compile(
        loop, namer, loop_local, preload, lines, written
    )
    return plan


def _compile(
    loop: Loop,
    namer: _Namer,
    loop_local: str,
    preload: List[str],
    lines: List[str],
    written: set,
) -> Tuple[str, Callable]:
    """Assemble and compile the superblock closure."""
    source = ["def _superblock(env, values, mem):"]
    for name in preload:
        source.append(f"    {namer.local(name)} = env[{name!r}]")
    source.append(f"    for {loop_local} in values:")
    if lines:
        source.extend(f"        {line}" for line in lines)
    else:
        source.append("        pass")
    for name in sorted(written):
        source.append(f"    env[{name!r}] = {namer.local(name)}")
    text = "\n".join(source)
    namespace = {"_div": _div, "_mod": _mod}
    for width, codec in CODEC_BY_WIDTH.items():
        namespace[f"_u{width}"] = codec.unpack_from
        namespace[f"_p{width}"] = codec.pack_into
    exec(compile(text, "<fastpath>", "exec"), namespace)  # noqa: S102
    return text, namespace["_superblock"]


# ----------------------------------------------------------------------
# runtime execution
# ----------------------------------------------------------------------
def _declined(interpreter, reason: str) -> bool:
    """Record a decline reason when telemetry is on; always False."""
    tele = interpreter.telemetry
    if tele is not None:
        tele.note_superblock_decline(reason)
    return False


def try_execute(interpreter, loop: Loop, values: range, env: Dict[str, int]) -> bool:
    """Run ``loop`` as a superblock if possible; False means fall back.

    Never partially executes: every declining branch happens before the
    first state mutation, so the tree walker can take over cleanly.
    When the interpreter carries a telemetry registry, every decline is
    counted by reason (the wiring-regression signal `repro profile`
    surfaces); the disabled path adds no work beyond the decline itself.
    """
    count = len(values)
    if count < MIN_TRIP_COUNT:
        return _declined(interpreter, "short_trip")
    if interpreter._needs_resolve:
        return _declined(interpreter, "needs_address_resolution")
    plan = analyze_loop(loop)
    if plan is None:
        return _declined(interpreter, "ineligible_body")
    if (
        interpreter.instructions + count * plan.body_len
        > interpreter.max_instructions
    ):
        # the reference path raises BudgetExceeded exactly
        return _declined(interpreter, "instruction_budget")
    for name in plan.preload:
        if name not in env:
            # the reference path raises NameError/KeyError
            return _declined(interpreter, "unbound_variable")
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
                return _declined(interpreter, "address_out_of_range")

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
                return _declined(interpreter, "fold_declined")
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
                return _declined(interpreter, "fold_declined")
            folded.merge(result)
    except (KeyError, NameError):
        # undefined variable: reference path raises it
        return _declined(interpreter, "unbound_variable")

    plan.runner(env, values, space._mem)

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
    return True
