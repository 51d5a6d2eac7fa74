"""Available-check analysis: which byte ranges are already guarded.

A *fact* says: "on every path reaching this point, the bytes in these
ranges of this object were validated by a check that executed after the
object's addressability last possibly changed."  A later check whose
coverage is contained in an available range is redundant and can be
eliminated — across block boundaries, which the old window-based
``AliasedCheckElimination`` could not see.

Facts are keyed two ways:

* by **provenance root** (``alloc:``/``stack:``/``global:``/``param:``)
  with root-relative byte ranges, when the base pointer's provenance and
  total offset are statically known;
* by **current value** of the base variable (``("v", name)``) otherwise.
  Such a fact covers ranges relative to whatever the variable holds
  *right now*; any redefinition of the variable kills it.  This is what
  dedupes checks on freshly loaded pointers (``p->a`` then ``p->b``),
  where provenance is unknown but the base value is provably unchanged.

Kills keep the analysis honest about lifetimes: ``Free`` through a known
pointer kills that root (plus all value-keyed facts, which may alias
it); ``Free`` through an unknown pointer kills everything; ``Call``
without a summary kills everything except stack/global roots (a callee
cannot pop the caller's frame).  A ``Malloc`` kills its own root's facts
— the same allocation site produces a fresh object every execution.

With interprocedural summaries (:mod:`repro.dataflow.summaries`) a call
site becomes precise in both directions:

* **kills** shrink to the callee's summarized free effects — only the
  provenance roots of arguments bound to may-freed parameters die (plus
  value-keyed facts, which may alias them).  A provably non-freeing
  callee kills nothing, so checks hoisted above a call stay available
  after it;
* **gen** appears: the callee's per-parameter must-``checked`` ranges —
  offsets it validated on every path by its exit — are translated
  through each argument's base offset and recorded post-call.  This is
  sound because the ranges were validated after the object's
  addressability last possibly changed (the callee's own analysis
  guarantees exactly that at its exit), and nothing between the
  callee's exit and the caller's post-call point runs at all.

``entry_facts`` seeds the boundary state: the cross-call eliminator
passes the intersection of every call site's surviving coverage,
letting a callee's prologue checks be elided when all callers already
validated the range (see ``passes/check_merging.py``).

Anchored region checks (GiantSan's §4.4.1 shape) validate everything
from the base pointer to the region end, so their coverage is widened to
``[min(base, start), end)`` before it is recorded or tested.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.nodes import (
    Assign,
    Call,
    CheckAccess,
    CheckRegion,
    Free,
    GlobalAlloc,
    Instr,
    Load,
    Malloc,
    PtrAdd,
    StackAlloc,
    Var,
)
from ..ir.program import Function
from .cfg import CFG, BasicBlock
from .solver import ForwardAnalysis


def eval_const(expr):
    """Late-bound :func:`repro.passes.constprop.eval_const`.

    The passes package imports this module at load time; importing it
    back lazily keeps ``import repro.dataflow`` cycle-free.  The first
    call rebinds this module's name to the real function, so later
    calls skip the import.
    """
    global eval_const
    from ..passes.constprop import eval_const

    return eval_const(expr)

#: An immutable, normalized set of half-open byte ranges.
IntervalSet = Tuple[Tuple[int, int], ...]

#: Fact key: a provenance root string, or ("v", variable name).
FactKey = object


def normalize(ranges: List[Tuple[int, int]]) -> IntervalSet:
    """Sort, drop empties, and coalesce overlapping/adjacent ranges."""
    spans = sorted((lo, hi) for lo, hi in ranges if lo < hi)
    merged: List[Tuple[int, int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return normalize(list(a) + list(b))


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    result: List[Tuple[int, int]] = []
    for alo, ahi in a:
        for blo, bhi in b:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo < hi:
                result.append((lo, hi))
    return normalize(result)


def covers(available: IntervalSet, lo: int, hi: int) -> bool:
    """True when ``[lo, hi)`` lies inside one available range."""
    if lo >= hi:
        return True  # empty coverage is vacuously guarded
    return any(alo <= lo and hi <= ahi for alo, ahi in available)


class AvailableCheckAnalysis(ForwardAnalysis):
    """Forward must-analysis of validated byte ranges.

    ``suppressed`` holds ``id()`` of checks that must not generate facts
    — the elimination pass uses it to rule out a check justifying its
    own deletion through a loop back edge.
    """

    def __init__(
        self,
        function: Function,
        provenance_map,
        suppressed: Optional[Set[int]] = None,
        summaries: Optional[Dict[str, object]] = None,
        entry_facts: Optional[Dict[FactKey, IntervalSet]] = None,
    ) -> None:
        self.function = function
        self.pmap = provenance_map
        self.suppressed: Set[int] = suppressed or set()
        self.summaries = summaries
        self.entry_facts = entry_facts

    # -- lattice -------------------------------------------------------
    def boundary(self, cfg: CFG) -> Dict[FactKey, IntervalSet]:
        if self.entry_facts:
            return dict(self.entry_facts)
        return {}

    def copy(self, state) -> Dict[FactKey, IntervalSet]:
        return dict(state)

    def meet(self, a, b) -> Dict[FactKey, IntervalSet]:
        merged: Dict[FactKey, IntervalSet] = {}
        for key in a.keys() & b.keys():
            ranges = intersect(a[key], b[key])
            if ranges:
                merged[key] = ranges
        return merged

    # -- coverage ------------------------------------------------------
    def coverage(
        self, instr: Instr
    ) -> Optional[Tuple[FactKey, int, int]]:
        """``(fact key, lo, hi)`` guarded by ``instr``, or None.

        Offsets must fold to constants (constant propagation has already
        run); anything symbolic generates and eliminates nothing.
        """
        if isinstance(instr, CheckAccess):
            offset = eval_const(instr.offset)
            if offset is None:
                return None
            key, base_off = self._key_for(instr.base)
            lo = base_off + offset
            return key, lo, lo + instr.width
        if isinstance(instr, CheckRegion):
            start = eval_const(instr.start)
            end = eval_const(instr.end)
            if start is None or end is None:
                return None
            key, base_off = self._key_for(instr.base)
            lo, hi = base_off + start, base_off + end
            if instr.use_anchor:
                # the runtime widens the region to start at the anchor
                lo = min(lo, base_off)
            return key, lo, hi
        return None

    def _key_for(self, base: str) -> Tuple[FactKey, int]:
        prov = self.pmap.provenance(base)
        if prov is not None:
            base_off = eval_const(prov.offset)
            if base_off is not None:
                return prov.root, base_off
        return ("v", base), 0

    # -- transfer ------------------------------------------------------
    def transfer(self, instr: Instr, state) -> None:
        if isinstance(instr, (CheckAccess, CheckRegion)):
            if id(instr) in self.suppressed:
                return
            covered = self.coverage(instr)
            if covered is not None:
                key, lo, hi = covered
                state[key] = union(state.get(key, ()), ((lo, hi),))
            return
        if isinstance(instr, Free):
            prov = self.pmap.provenance(instr.ptr)
            if prov is None:
                state.clear()
                return
            self._kill_root(state, prov.root)
            self._kill_value_facts(state)
            return
        if isinstance(instr, Call):
            self._transfer_call(instr, state)
            return
        if isinstance(instr, Malloc):
            # this site's previous object (a prior loop iteration) is
            # not this object
            state.pop(f"alloc:{id(instr)}", None)
            self._kill_var(state, instr.dst)
            return
        if isinstance(instr, (StackAlloc, GlobalAlloc)):
            self._kill_var(state, instr.dst)
            return
        if isinstance(instr, (Assign, Load, PtrAdd)):
            self._kill_var(state, instr.dst)
            return

    def _transfer_call(self, instr: Call, state) -> None:
        summary = (
            self.summaries.get(instr.func)
            if self.summaries is not None
            else None
        )
        if (
            summary is None
            or summary.recursive
            or summary.may_free_unknown
        ):
            # opaque call: today's treatment — anything heap-like may
            # have been freed by the callee
            self._kill_heap_facts(state)
            if instr.dst:
                self._kill_var(state, instr.dst)
            return
        # -- kills: only what the summary says the callee may free
        freed_any = False
        for index, facts in enumerate(summary.param_facts):
            if not facts.freed:
                continue
            freed_any = True
            arg = (
                instr.args[index] if index < len(instr.args) else None
            )
            prov = (
                self.pmap.provenance(arg.name)
                if isinstance(arg, Var)
                else None
            )
            if prov is not None:
                self._kill_root(state, prov.root)
            else:
                # may-freed argument of unknown provenance: any object
                # could be the one that died
                self._kill_heap_facts(state)
                freed_any = False  # value facts already gone
                break
        if freed_any:
            # value-keyed facts may alias the freed roots
            self._kill_value_facts(state)
        # re-execution of this site yields a fresh returned object
        state.pop(f"callret:{id(instr)}", None)
        # -- gen: ranges the callee validated on every path by exit,
        # translated through each argument's base offset
        for index, facts in enumerate(summary.param_facts):
            ranges = self._call_facts(facts)
            if not ranges:
                continue
            arg = (
                instr.args[index] if index < len(instr.args) else None
            )
            if not isinstance(arg, Var):
                continue
            key, base_off = self._key_for(arg.name)
            shifted = tuple(
                (base_off + lo, base_off + hi) for lo, hi in ranges
            )
            state[key] = union(state.get(key, ()), shifted)
        if instr.dst:
            self._kill_var(state, instr.dst)

    def _call_facts(self, facts) -> IntervalSet:
        """Post-call fact ranges contributed per parameter (hook:
        :class:`repro.dataflow.summaries.MustAccessAnalysis` overrides
        this to propagate must-accessed instead of must-checked)."""
        return facts.checked

    def at_block_start(self, block: BasicBlock, state) -> None:
        loop = block.loop_body_of
        if loop is not None:
            # the header rebinds the induction variable every iteration
            self._kill_var(state, loop.var)

    @staticmethod
    def _kill_var(state, name: str) -> None:
        state.pop(("v", name), None)

    @staticmethod
    def _kill_value_facts(state) -> None:
        for key in list(state):
            if isinstance(key, tuple) and key and key[0] == "v":
                del state[key]

    @staticmethod
    def _kill_root(state, root: str) -> None:
        """Kill facts for a freed root — and, because distinct
        parameters may alias the same caller object, freeing through
        any ``param:`` root kills every ``param:`` fact."""
        state.pop(root, None)
        if root.startswith("param:"):
            for key in list(state):
                if isinstance(key, str) and key.startswith("param:"):
                    del state[key]

    @staticmethod
    def _kill_heap_facts(state) -> None:
        """Kill every fact except stack/global roots (a callee cannot
        pop the caller's frame or unmap a global)."""
        for key in list(state):
            if not (
                isinstance(key, str)
                and key.startswith(("stack:", "global:"))
            ):
                del state[key]
