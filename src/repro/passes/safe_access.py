"""Provably-safe check elision on whole-function dataflow facts.

ASan-- (Zhang et al. 2022) removes a check outright when the compiler
can prove the access stays inside its object.  This pass generalizes
that idea onto the dataflow framework (:mod:`repro.dataflow`): a check
is *elided* when

* the base pointer's provenance root and constant base offset are
  statically known,
* the object's size is a statically known constant,
* the object is definitely **LIVE** at the check (allocation-state
  analysis — an in-bounds proof says nothing about a freed object), and
* the checked byte range, evaluated over the interval fixpoint (loop
  induction variables clamped to their trip ranges, joins hulled), lies
  inside ``[0, size)``.

The same pass serves both pipelines: ASan--'s instruction checks and
GiantSan's merged/promoted region checks (after merging and promotion,
so surviving anchors and promoted loop regions elide as units).  Every
elision is recorded as an :class:`~repro.passes.base.ElisionRecord` in
``PassStats.elisions``; with ``audit=True`` the check is wrapped in
:class:`~repro.ir.nodes.CheckElided` instead of deleted, so the
interpreter can replay it against the shadow oracle and flag any
elision that would have fired — the fuzzer's soundness audit.

While the dataflow results are hot, the pass also runs the static bug
detector and stashes its definite findings in ``PassStats.findings``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.nodes import (
    Call,
    CheckAccess,
    CheckElided,
    CheckRegion,
    Free,
    Instr,
    Loop,
    Protection,
)
from ..ir.program import Program, transform_blocks, walk
from .base import ElisionRecord, Pass, PassStats
from .check_merging import _site_map
from .constprop import eval_const


def _barred_check_ids(function) -> "set":
    """Checks inside loops whose body frees or calls.

    Same conservatism as :data:`~repro.passes.loop_promotion`'s loop
    barriers: a free (or a call, which may free) in a loop body keeps
    every per-iteration check in place, even when the allocation-state
    fixpoint can tell the freed object apart from the checked one.
    """
    barred = set()
    for instr in walk(function.body):
        if isinstance(instr, Loop) and any(
            isinstance(i, (Free, Call)) for i in walk(instr.body)
        ):
            for i in walk(instr.body):
                if isinstance(i, (CheckAccess, CheckRegion)):
                    barred.add(id(i))
    return barred


class SafeAccessElimination(Pass):
    """Elide checks whose access provably stays in a live object."""

    name = "safe-access-elimination"

    def __init__(self, audit: bool = False):
        self.audit = audit

    def run(self, program: Program, stats: PassStats) -> None:
        from .. import dataflow  # lazy: dataflow lazily imports passes

        sites = _site_map(program)
        for function in program.functions.values():
            flow = dataflow.FunctionDataflow(function)
            stats.findings.extend(dataflow.detect_function(flow))
            decisions = self._decide(flow)
            if not decisions:
                continue

            def prune(block: List[Instr]) -> List[Instr]:
                kept: List[Instr] = []
                for instr in block:
                    record = decisions.get(id(instr))
                    if record is None:
                        kept.append(instr)
                        continue
                    stats.eliminated += 1
                    stats.bump("safe_access_removed")
                    stats.elisions.append(record)
                    site = sites.get(getattr(instr, "site_id", -1))
                    if site is not None:
                        site.protection = Protection.ELIDED
                    if self.audit:
                        kept.append(
                            CheckElided(inner=instr, reason=record.reason)
                        )
                return kept

            function.body = transform_blocks(function.body, prune)

    # ------------------------------------------------------------------
    def _decide(self, flow) -> Dict[int, ElisionRecord]:
        """``id(check) -> ElisionRecord`` for every elidable check."""
        decisions: Dict[int, ElisionRecord] = {}
        barred = _barred_check_ids(flow.function)
        for block in flow.cfg.blocks:
            if not flow.reachable(block.index):
                continue
            # replay yields a live state object; snapshot each step
            alloc_states = [
                flow.alloc_analysis.copy(state)
                for _, state in flow.allocstate.replay(block)
            ]
            for position, (instr, ivals) in enumerate(
                flow.intervals.replay(block)
            ):
                if not isinstance(instr, (CheckAccess, CheckRegion)):
                    continue
                if id(instr) in barred:
                    continue
                record = self._elidable(
                    flow, instr, ivals, alloc_states[position]
                )
                if record is not None:
                    decisions[id(instr)] = record
        return decisions

    @staticmethod
    def _elidable(
        flow, check: Instr, ivals, astate
    ) -> Optional[ElisionRecord]:
        from ..dataflow import LIVE, AllocStateAnalysis, eval_expr

        prov = flow.pmap.provenance(check.base)
        if prov is None:
            return None
        size = flow.sizes.get(prov.root)
        if size is None:
            return None
        base_off = eval_const(prov.offset)
        if base_off is None:
            return None
        if AllocStateAnalysis.state_of(astate, prov.root) != LIVE:
            # an in-bounds offset into a freed (or maybe-freed) object is
            # still a bug the check must keep catching
            return None
        if isinstance(check, CheckAccess):
            offset = eval_expr(check.offset, ivals)
            if offset.is_bottom() or offset.lo is None or offset.hi is None:
                return None
            lo = base_off + offset.lo
            hi = base_off + offset.hi + check.width
        else:
            start = eval_expr(check.start, ivals)
            end = eval_expr(check.end, ivals)
            if start.is_bottom() or end.is_bottom():
                return None
            if start.lo is None or end.hi is None:
                return None
            lo = base_off + start.lo
            hi = base_off + end.hi
            if check.use_anchor:
                # the runtime widens the region to start at the anchor
                lo = min(lo, base_off)
        if 0 <= lo and hi <= size:
            return ElisionRecord(
                function=flow.function.name,
                site_id=getattr(check, "site_id", -1),
                root=prov.root,
                reason=(
                    f"bytes [{lo}, {hi}) within live object "
                    f"{prov.root} of size {size}"
                ),
            )
        return None
