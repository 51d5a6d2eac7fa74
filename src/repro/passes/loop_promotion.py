"""Check-in-loop promotion via SCEV-style bounds (§4.4.2).

For region-capable tools (GiantSan), a per-iteration check whose offset
is affine in the induction variable of a bounded unit-step loop is
replaced by ONE region check before the loop — Table 1's bounded-loop row
(N checks -> 1) and Figure 8c's ``CI(x, x + 4N)``.

For instruction-level tools with elimination (ASan--), only
loop-*invariant* checks can be hoisted (their address never changes);
varying accesses keep their per-iteration checks, which is exactly the
efficiency gap between ASan-- and GiantSan the ablation study measures.

The pass is rebased onto the whole-function dataflow facts: when the
interval fixpoint at a loop header proves the trip count positive
(``end.lo > start.hi``), relocated first/last-iteration checks are
emitted unguarded instead of wrapped in a zero-trip ``If`` guard.  Only
that relocation reads the fixpoint, so it is solved in ``hoist`` mode
alone, and only for functions that contain a loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.nodes import (
    BinOp,
    Call,
    CheckAccess,
    CheckRegion,
    Const,
    Free,
    If,
    Instr,
    Load,
    Loop,
    Memcpy,
    Memset,
    Protection,
    Store,
    Strcpy,
    Var,
)
from ..ir.program import Program, transform_blocks, walk
from .base import Pass, PassStats
from .constprop import fold
from .loop_bounds import (
    affine_of,
    loop_killed_vars,
    offset_bounds,
    trip_range,
)


def _body_has_barrier(loop: Loop, summaries=None) -> bool:
    """A free — or a call that may free — bars promotion out of a loop.

    With interprocedural summaries a call to a provably non-freeing
    callee is harmless here: it cannot change any object's
    addressability (its writes touch contents, not bounds), and its
    only register effect is its destination variable, which
    :func:`~repro.passes.loop_bounds.loop_killed_vars` already treats
    as loop-varying.
    """
    from ..dataflow.summaries import call_frees_nothing

    for i in walk(loop.body):
        if isinstance(i, Free):
            return True
        if isinstance(i, Call) and not call_frees_nothing(i, summaries):
            return True
    return False


class LoopCheckPromotion(Pass):
    """Promote affine in-loop checks to pre-loop region checks."""

    name = "loop-check-promotion"

    def __init__(self, mode: str, interprocedural: bool = False):
        if mode not in ("region", "hoist"):
            raise ValueError(f"unknown promotion mode: {mode}")
        self.mode = mode
        self.interprocedural = interprocedural

    def run(self, program: Program, stats: PassStats) -> None:
        from .. import dataflow  # lazy: dataflow lazily imports passes

        sites = _site_map(program)
        summaries = (
            dataflow.compute_summaries(program)
            if self.interprocedural
            else None
        )
        for function in program.functions.values():
            # only hoist mode reads trip counts (the zero-trip guard)
            positive_trips = (
                self._positive_trip_loops(function, summaries)
                if self.mode == "hoist"
                and any(isinstance(i, Loop) for i in walk(function.body))
                else set()
            )
            function.body = transform_blocks(
                function.body,
                lambda block: self._process_block(
                    block, stats, sites, positive_trips, summaries
                ),
            )

    @staticmethod
    def _positive_trip_loops(function, summaries=None) -> Set[int]:
        """ids of loops whose trip count the intervals prove positive."""
        from .. import dataflow  # lazy: dataflow lazily imports passes

        cfg = dataflow.lower_function(function)
        solution = dataflow.solve(
            cfg, dataflow.IntervalAnalysis(summaries=summaries)
        )
        proven: Set[int] = set()
        for block in cfg.blocks:
            if block.loop is None or block.index not in solution.in_states:
                continue
            state = solution.in_states[block.index]
            start = dataflow.eval_expr(block.loop.start, state)
            end = dataflow.eval_expr(block.loop.end, state)
            if (
                not start.is_bottom()
                and not end.is_bottom()
                and start.hi is not None
                and end.lo is not None
                and end.lo > start.hi
            ):
                proven.add(id(block.loop))
        return proven

    # ------------------------------------------------------------------
    def _process_block(
        self,
        block: List[Instr],
        stats,
        sites,
        positive_trips: Set[int],
        summaries=None,
    ) -> List[Instr]:
        result: List[Instr] = []
        for instr in block:
            if isinstance(instr, Loop):
                promoted = self._promote_from_loop(
                    instr, stats, sites, positive_trips, summaries
                )
                result.extend(promoted)
            result.append(instr)
        return result

    def _promote_from_loop(
        self,
        loop: Loop,
        stats: PassStats,
        sites,
        positive_trips: Set[int],
        summaries=None,
    ) -> List[Instr]:
        killed = loop_killed_vars(loop)
        trips = trip_range(loop, killed)
        if trips is None or _body_has_barrier(loop, summaries):
            return []
        hoisted: List[Instr] = []
        remaining: List[Instr] = []
        for instr in loop.body:
            replacement = self._try_promote(
                instr, loop, killed, trips, stats,
                trip_positive=id(loop) in positive_trips,
            )
            if replacement is not None:
                hoisted.extend(replacement)
                stats.promoted += 1
                site = sites.get(getattr(instr, "site_id", -1))
                if site is not None:
                    site.protection = Protection.ELIMINATED
            else:
                remaining.append(instr)
        loop.body = remaining
        return hoisted

    # ------------------------------------------------------------------
    def _try_promote(
        self, instr: Instr, loop: Loop, killed, trips,
        stats: PassStats, trip_positive: bool,
    ) -> Optional[List[Instr]]:
        """A pre-loop replacement check for ``instr``, or None."""
        if isinstance(instr, CheckAccess):
            if instr.base in killed:
                return None
            affine = affine_of(instr.offset, loop.var, killed)
            if affine is None:
                return None
            if self.mode == "hoist":
                if affine.coefficient == 0:
                    # loop-invariant address: hoist the single check
                    return [
                        CheckAccess(
                            base=instr.base,
                            offset=affine.offset,
                            width=instr.width,
                            access=instr.access,
                            site_id=instr.site_id,
                        )
                    ]
                # ASan--'s check relocation for monotonic accesses: test
                # only the first and last iterations' addresses, guarded
                # against zero-trip loops.  (Assumes the iterated range
                # stays inside one object, as ASan-- does.)
                first_offset = fold(
                    BinOp(
                        "+",
                        BinOp("*", Const(affine.coefficient), trips.first),
                        affine.offset,
                    )
                )
                last_offset = fold(
                    BinOp(
                        "+",
                        BinOp("*", Const(affine.coefficient), trips.last),
                        affine.offset,
                    )
                )
                relocated: List[Instr] = [
                    CheckAccess(
                        base=instr.base,
                        offset=first_offset,
                        width=instr.width,
                        access=instr.access,
                        site_id=instr.site_id,
                    ),
                    CheckAccess(
                        base=instr.base,
                        offset=last_offset,
                        width=instr.width,
                        access=instr.access,
                        site_id=instr.site_id,
                    ),
                ]
                if trip_positive:
                    # the interval fixpoint proves the loop runs at least
                    # once, so the zero-trip guard is dead weight
                    stats.bump("guard_elided")
                    return relocated
                return [
                    If(cond=BinOp("<", loop.start, loop.end), then=relocated)
                ]
            bounds = offset_bounds(affine, trips, instr.width)
            if bounds is None:
                return None
            low, high = bounds
            return [
                CheckRegion(
                    base=instr.base,
                    start=fold(low),
                    end=fold(high),
                    access=instr.access,
                    use_anchor=True,
                    site_id=instr.site_id,
                )
            ]
        if isinstance(instr, CheckRegion) and self.mode == "region":
            if instr.base in killed:
                return None
            start_affine = affine_of(instr.start, loop.var, killed)
            end_affine = affine_of(instr.end, loop.var, killed)
            if start_affine is None or end_affine is None:
                return None
            start_bounds = offset_bounds(start_affine, trips, 0)
            end_bounds = offset_bounds(end_affine, trips, 0)
            if start_bounds is None or end_bounds is None:
                return None
            return [
                CheckRegion(
                    base=instr.base,
                    start=fold(start_bounds[0]),
                    end=fold(end_bounds[1]),
                    access=instr.access,
                    use_anchor=instr.use_anchor,
                    site_id=instr.site_id,
                )
            ]
        return None


def _site_map(program: Program) -> Dict[int, Instr]:
    mapping: Dict[int, Instr] = {}
    for function in program.functions.values():
        for instr in walk(function.body):
            if isinstance(instr, (Load, Store, Memset, Memcpy, Strcpy)):
                if instr.site_id >= 0:
                    mapping[instr.site_id] = instr
    return mapping
