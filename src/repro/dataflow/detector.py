"""Static bug detector: definite memory errors, found before running.

Combines the interval and allocation-state fixpoints to flag accesses
that are wrong on *every* execution reaching them:

* **definite-oob** — the access's offset interval lies entirely outside
  ``[0, size)`` of a statically sized object (every execution of the
  site overflows or underflows);
* **definite-uaf** — the access's heap root is FREED on all paths in;
* **definite-double-free** — a ``Free`` whose root is already FREED on
  all paths.

"May" errors (offset interval straddling the bound, MAYBE lifetime) are
deliberately not reported: those are what the runtime checks are for.
Findings carry ``always_executes`` — whether the faulting block lies on
every entry-to-exit path (its block dominates the exit) — so a consumer
can tell "this program cannot run correctly" from "this branch, if
taken, is doomed".

With function summaries (the ``repro analyze --whole-program``
listing passes them) the same definite-only discipline extends across
calls: a call whose callee *must* dereference a parameter on every
path is itself a definite use-after-free when the argument's object is
freed on all paths in, and a definite out-of-bounds when the callee's
must-access range provably exceeds the argument's statically known
object size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir.nodes import (
    Call,
    Free,
    GlobalAlloc,
    Instr,
    Load,
    Malloc,
    Memset,
    StackAlloc,
    Store,
    Var,
)
from ..ir.program import Function, Program, walk
from .allocstate import FREED, AllocStateAnalysis
from .cfg import CFG, lower_function
from .dominators import immediate_dominators
from .intervals import Interval, IntervalAnalysis, eval_expr
from .solver import Solution, solve


def root_sizes(function: Function, summaries=None) -> Dict[str, int]:
    """Constant object sizes keyed by provenance root."""
    from ..passes.constprop import eval_const

    sizes: Dict[str, int] = {}
    for instr in walk(function.body):
        if isinstance(instr, Malloc):
            size = eval_const(instr.size)
            if size is not None:
                sizes[f"alloc:{id(instr)}"] = size
        elif isinstance(instr, StackAlloc):
            sizes[f"stack:{id(instr)}"] = instr.size
        elif isinstance(instr, GlobalAlloc):
            sizes[f"global:{id(instr)}"] = instr.size
        elif isinstance(instr, Call) and summaries is not None:
            summary = summaries.get(instr.func)
            if summary is not None and summary.returns_fresh is not None:
                sizes[f"callret:{id(instr)}"] = summary.returns_fresh
    return sizes


class FunctionDataflow:
    """All per-function dataflow results, computed once and shared.

    Bundles the CFG lowering, provenance, constant object sizes,
    dominators, and the interval and allocation-state fixpoints — the
    facts the rebased passes and the detector consume.
    """

    def __init__(self, function: Function, summaries=None):
        from ..passes.alias import ProvenanceMap

        self.function = function
        self.summaries = summaries
        self.cfg: CFG = lower_function(function)
        self.pmap = ProvenanceMap(function, summaries=summaries)
        self.sizes = root_sizes(function, summaries=summaries)
        self.intervals: Solution = solve(
            self.cfg, IntervalAnalysis(summaries=summaries)
        )
        self.alloc_analysis = AllocStateAnalysis(
            function, self.pmap, summaries=summaries
        )
        self.allocstate: Solution = solve(self.cfg, self.alloc_analysis)
        self.idom = immediate_dominators(self.cfg)

    def always_executes(self, block_index: int) -> bool:
        """True when the block lies on every entry-to-exit path."""
        current: Optional[int] = 1  # the exit block
        while current is not None:
            if current == block_index:
                return True
            current = self.idom.get(current)
            if current == 0:
                return block_index == 0
        return False

    def reachable(self, block_index: int) -> bool:
        return block_index in self.intervals.in_states


@dataclass(frozen=True)
class StaticFinding:
    """One definite memory bug found at instrumentation time."""

    function: str
    kind: str  # definite-oob | definite-uaf | definite-double-free
    site_id: int
    detail: str
    always_executes: bool

    def render(self) -> str:
        scope = (
            "on every run" if self.always_executes else "on a feasible path"
        )
        return f"[{self.kind}] {self.function}: {self.detail} ({scope})"


def _span(
    offset_iv: Interval, width: int, base_off: int
) -> Optional[tuple]:
    """Root-relative ``(lo, hi)`` touched bounds (either may be None)."""
    lo = None if offset_iv.lo is None else base_off + offset_iv.lo
    hi = None if offset_iv.hi is None else base_off + offset_iv.hi + width
    return lo, hi


def detect_function(flow: FunctionDataflow) -> List[StaticFinding]:
    """All definite findings in one function."""
    findings: List[StaticFinding] = []
    for block in flow.cfg.blocks:
        if not flow.reachable(block.index):
            continue
        always = flow.always_executes(block.index)
        # replay yields a live state object; snapshot each step
        alloc_states = [
            flow.alloc_analysis.copy(state)
            for _, state in flow.allocstate.replay(block)
        ]
        for position, (instr, ivals) in enumerate(
            flow.intervals.replay(block)
        ):
            astate = alloc_states[position]
            finding = _inspect(flow, instr, ivals, astate, always)
            if finding is not None:
                findings.append(finding)
    return findings


def _inspect(
    flow: FunctionDataflow,
    instr: Instr,
    ivals,
    astate,
    always: bool,
) -> Optional[StaticFinding]:
    name = flow.function.name
    if isinstance(instr, Free):
        prov = flow.pmap.provenance(instr.ptr)
        if (
            prov is not None
            and prov.root.startswith("alloc:")
            and AllocStateAnalysis.state_of(astate, prov.root) == FREED
        ):
            return StaticFinding(
                function=name,
                kind="definite-double-free",
                site_id=-1,
                detail=f"free({instr.ptr}) of an already-freed object",
                always_executes=always,
            )
        return None

    if isinstance(instr, Call):
        return _inspect_call(flow, instr, astate, always)

    if isinstance(instr, (Load, Store)):
        base, offset, width = instr.base, instr.offset, instr.width
    elif isinstance(instr, Memset):
        base, offset, width = instr.base, instr.offset, 0
    else:
        return None

    prov = flow.pmap.provenance(base)
    if prov is None:
        return None
    base_off = _const_offset(prov)
    if base_off is None:
        return None

    if prov.root.startswith("alloc:") and (
        AllocStateAnalysis.state_of(astate, prov.root) == FREED
    ):
        return StaticFinding(
            function=name,
            kind="definite-uaf",
            site_id=getattr(instr, "site_id", -1),
            detail=f"access through {base} after its object is freed "
            "on all paths",
            always_executes=always,
        )

    size = flow.sizes.get(prov.root)
    if size is None:
        return None
    offset_iv = eval_expr(offset, ivals)
    if offset_iv.is_bottom():
        return None
    if isinstance(instr, Memset):
        length_iv = eval_expr(instr.length, ivals)
        if length_iv.lo is None or length_iv.lo <= 0:
            return None
        width = length_iv.lo
    lo, hi = _span(offset_iv, width, base_off)
    if lo is not None and lo + width > size and width > 0:
        return StaticFinding(
            function=name,
            kind="definite-oob",
            site_id=getattr(instr, "site_id", -1),
            detail=(
                f"{_describe(instr)}: minimum offset {lo} + width {width} "
                f"exceeds object size {size} on every path"
            ),
            always_executes=always,
        )
    if hi is not None and hi <= 0 and width > 0:
        return StaticFinding(
            function=name,
            kind="definite-oob",
            site_id=getattr(instr, "site_id", -1),
            detail=(
                f"{_describe(instr)}: accessed range ends at offset {hi}, "
                "before the object begins, on every path"
            ),
            always_executes=always,
        )
    return None


def _inspect_call(
    flow: FunctionDataflow, instr: Call, astate, always: bool
) -> Optional[StaticFinding]:
    """Definite cross-call bugs: the callee's summarized must-access
    ranges applied to what the caller knows about the arguments."""
    if not flow.summaries:
        return None
    summary = flow.summaries.get(instr.func)
    if summary is None or summary.recursive:
        return None
    name = flow.function.name
    for index, facts in enumerate(summary.param_facts):
        if not facts.must_access:
            continue
        arg = instr.args[index] if index < len(instr.args) else None
        if not isinstance(arg, Var):
            continue
        prov = flow.pmap.provenance(arg.name)
        if prov is None:
            continue
        if prov.root.startswith(("alloc:", "callret:")) and (
            AllocStateAnalysis.state_of(astate, prov.root) == FREED
        ):
            return StaticFinding(
                function=name,
                kind="definite-uaf",
                site_id=-1,
                detail=(
                    f"call {summary.name}({arg.name}) dereferences "
                    f"parameter '{summary.params[index]}' of an object "
                    "freed on all paths"
                ),
                always_executes=always,
            )
        base_off = _const_offset(prov)
        size = flow.sizes.get(prov.root)
        if base_off is None or size is None:
            continue
        for lo, hi in facts.must_access:
            if base_off + hi > size or base_off + lo < 0:
                return StaticFinding(
                    function=name,
                    kind="definite-oob",
                    site_id=-1,
                    detail=(
                        f"call {summary.name}({arg.name}) always "
                        f"accesses bytes [{base_off + lo}, "
                        f"{base_off + hi}) of a {size}-byte object"
                    ),
                    always_executes=always,
                )
    return None


def _const_offset(prov) -> Optional[int]:
    from ..passes.constprop import eval_const

    return eval_const(prov.offset)


def _describe(instr: Instr) -> str:
    if isinstance(instr, Load):
        return f"load{instr.width} {instr.base}[{instr.offset}]"
    if isinstance(instr, Store):
        return f"store{instr.width} {instr.base}[{instr.offset}]"
    if isinstance(instr, Memset):
        return f"memset({instr.base} + {instr.offset}, .., {instr.length})"
    return type(instr).__name__


def analyze_program(program: Program, summaries=None) -> List[StaticFinding]:
    """Definite findings for every function of ``program``.

    Analyzes a clone with site ids assigned, so the input program is
    never mutated and findings carry stable site identifiers.  With
    ``summaries`` (looked up by callee name at each ``Call``) the
    definite bugs across calls are found too.
    """
    from ..ir.program import assign_site_ids

    clone = program.clone()
    assign_site_ids(clone)
    findings: List[StaticFinding] = []
    for function in clone.functions.values():
        findings.extend(
            detect_function(FunctionDataflow(function, summaries=summaries))
        )
    return findings
