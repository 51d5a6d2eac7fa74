"""Redundant-check elimination and constant-offset merging (§4.4.2).

Two transformations:

* **Cross-block elimination** — a check covered, on *every* incoming
  path, by equal-or-wider must-aliased checks is dropped.  This runs the
  :class:`~repro.dataflow.available.AvailableCheckAnalysis` must-
  analysis to fixpoint over the lowered CFG, so a check after an ``If``
  whose both arms performed a wider check dies, and a check dominated by
  an earlier one is recognized across any nesting — strictly subsuming
  the old straight-line-window deduplication (ASan--'s core
  optimization, also used by GiantSan).

* **Constant-offset merging** — for region-capable tools, checks on the
  same object with constant offsets collapse into a single region check
  covering their span: Figure 8's ``CI(p, p+4); CI(p, p+8)`` becoming
  ``CI(p, p+8)``; Table 1's ``p[0] + p[10] + p[20]`` costing one check.
  Merging groups are keyed by provenance root when it is known, and by
  the base pointer's *current value* otherwise (a freshly loaded ``p``
  used for ``p->a`` then ``p->b``), the latter killed whenever the base
  variable is redefined.

Elimination must not let a check justify its own removal through a loop
back edge (delete it and the "available" fact it generated disappears
with it).  The pass therefore iterates a shrinking candidate set: start
from every covered check, re-run the analysis with the candidates
generating *no* facts, and keep only the ones still covered — at the
fixpoint every deleted check is covered by kept checks alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.nodes import (
    Call,
    CheckAccess,
    CheckRegion,
    Const,
    Free,
    GlobalAlloc,
    If,
    Instr,
    Load,
    Loop,
    Malloc,
    Memcpy,
    Memset,
    Protection,
    StackAlloc,
    Store,
    Strcpy,
)
from ..ir.program import Program, transform_blocks, walk
from .alias import ProvenanceMap
from .base import Pass, PassStats
from .constprop import fold

#: Instructions that end a merging window.
_BARRIERS = (Call, Free, Loop, If, Malloc, StackAlloc, GlobalAlloc)


class CrossBlockCheckElimination(Pass):
    """Remove checks covered on all paths by must-aliased checks."""

    name = "cross-block-check-elimination"

    def run(self, program: Program, stats: PassStats) -> None:
        sites = _site_map(program)
        for function in program.functions.values():
            doomed = self._converge(function, ProvenanceMap(function))
            if not doomed:
                continue

            def prune(block: List[Instr]) -> List[Instr]:
                kept: List[Instr] = []
                for instr in block:
                    if id(instr) not in doomed:
                        kept.append(instr)
                        continue
                    site = sites.get(getattr(instr, "site_id", -1))
                    if site is not None:
                        site.protection = Protection.ELIMINATED
                return kept

            function.body = transform_blocks(function.body, prune)
            stats.eliminated += len(doomed)
            stats.bump("cross_block_eliminated", len(doomed))

    # ------------------------------------------------------------------
    @staticmethod
    def _converge(function, pmap: ProvenanceMap) -> Set[int]:
        """The ids of the checks that are safe to delete together.

        Iterates ``D_{k+1} = covered(suppress=D_k) ∩ D_k`` to a
        fixpoint (monotonically shrinking, hence terminating): at the
        end, every member is covered even when no member generates
        facts, i.e. by surviving checks only.
        """
        from .. import dataflow  # lazy: dataflow lazily imports passes

        cfg = dataflow.lower_function(function)
        doomed: Optional[Set[int]] = None
        while True:
            analysis = dataflow.AvailableCheckAnalysis(
                function, pmap, suppressed=doomed or set()
            )
            solution = dataflow.solve(cfg, analysis)
            covered: Set[int] = set()
            for block in cfg.blocks:
                if block.index not in solution.in_states:
                    continue
                for instr, state in solution.replay(block):
                    if not isinstance(instr, (CheckAccess, CheckRegion)):
                        continue
                    span = analysis.coverage(instr)
                    if span is None:
                        continue
                    key, lo, hi = span
                    if dataflow.covers(state.get(key, ()), lo, hi):
                        covered.add(id(instr))
            new = covered if doomed is None else (covered & doomed)
            if new == doomed or not new:
                return new
            doomed = new


#: Historical name: the window-based deduplication this pass subsumes.
AliasedCheckElimination = CrossBlockCheckElimination


class ConstantOffsetMerging(Pass):
    """Collapse same-object constant-offset region checks into one.

    Only valid for tools whose region checks are O(1) at any size
    (GiantSan); merging for ASan would trade N cheap checks for one scan
    of the same total cost.
    """

    name = "constant-offset-merging"

    def run(self, program: Program, stats: PassStats) -> None:
        sites = _site_map(program)
        for function in program.functions.values():
            pmap = ProvenanceMap(function)
            function.body = transform_blocks(
                function.body, lambda block: self._merge(block, pmap, stats, sites)
            )

    def _merge(
        self, block: List[Instr], pmap: ProvenanceMap, stats: PassStats, sites
    ) -> List[Instr]:
        result: List[Instr] = []
        #: group key -> (result index of the anchor check, anchor's own
        #: relative base offset, merged min_off, merged max_off)
        groups: Dict[object, Tuple[int, int, int, int]] = {}
        for instr in block:
            if isinstance(instr, _BARRIERS):
                groups.clear()
                result.append(instr)
                continue
            span = self._const_span(instr, pmap)
            if span is None:
                # a redefinition changes what the base pointer *value*
                # refers to; facts keyed by that value die with it
                dst = getattr(instr, "dst", None)
                if isinstance(dst, str):
                    groups.pop(("v", dst), None)
                result.append(instr)
                continue
            key, base_off, low, high = span
            if key in groups:
                index, anchor_off, cur_low, cur_high = groups[key]
                merged_low = min(cur_low, low)
                merged_high = max(cur_high, high)
                anchor_check: CheckRegion = result[index]  # type: ignore[assignment]
                # offsets are group-relative; rebase onto the anchor
                # check's own base pointer before storing them
                anchor_check.start = Const(merged_low - anchor_off)
                anchor_check.end = Const(merged_high - anchor_off)
                groups[key] = (index, anchor_off, merged_low, merged_high)
                stats.eliminated += 1
                if isinstance(key, tuple):
                    stats.bump("value_keyed_merged")
                site = sites.get(instr.site_id)
                if site is not None:
                    site.protection = Protection.ELIMINATED
                continue  # drop: folded into the anchor check
            groups[key] = (len(result), base_off, low, high)
            result.append(instr)
        return result

    @staticmethod
    def _const_span(
        instr: Instr, pmap: ProvenanceMap
    ) -> Optional[Tuple[object, int, int, int]]:
        """(group key, base_offset, start, end) for constant spans.

        The key is the provenance root when the base's provenance and
        offset are statically known (offsets root-relative), or
        ``("v", base)`` — the base pointer's current value — otherwise
        (offsets relative to that value).
        """
        if not isinstance(instr, CheckRegion):
            return None
        start = fold(instr.start)
        end = fold(instr.end)
        if not isinstance(start, Const) or not isinstance(end, Const):
            return None
        prov = pmap.provenance(instr.base)
        if prov is not None and isinstance(prov.offset, Const):
            base_off = prov.offset.value
            return (
                prov.root,
                base_off,
                base_off + start.value,
                base_off + end.value,
            )
        return ("v", instr.base), 0, start.value, end.value


def _site_map(program: Program) -> Dict[int, Instr]:
    """site_id -> memory instruction, for protection tagging."""
    mapping: Dict[int, Instr] = {}
    for function in program.functions.values():
        for instr in walk(function.body):
            if isinstance(instr, (Load, Store, Memset, Memcpy, Strcpy)):
                if instr.site_id >= 0:
                    mapping[instr.site_id] = instr
    return mapping
