"""Allocation-lifetime analysis: LIVE / FREED / MAYBE per object root.

Tracks, per provenance root (``alloc:``/``stack:``/``global:``/
``param:``), whether the object is definitely live, definitely freed, or
unknown at each program point.  Consumers:

* check **elision** requires LIVE — an in-bounds proof only removes a
  check when the object's lifetime provably covers the access;
* the static bug detector reports a *definite* use-after-free when an
  access's root is FREED on all paths, and a definite double-free when a
  ``Free`` executes against an already-FREED root.

Stack and global buffers stay live for the whole function (frames pop at
return; globals are immortal), so only heap roots ever transition.  A
``Free`` through an unknown pointer or a ``Call`` (which may free
anything the callee can reach) degrades every heap root to MAYBE.

With function summaries (the whole-program listing's) a ``Call``
degrades only the provenance roots of arguments bound to may-freed
parameters — a call to a provably non-freeing callee leaves every
lifetime fact intact.  A callee that definitely returns a fresh heap
allocation contributes a ``callret:{id(call)}`` root: MAYBE in the
entry state (the call has not executed), LIVE after the call
transfers.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.nodes import (
    Call,
    Free,
    GlobalAlloc,
    Instr,
    Malloc,
    StackAlloc,
    Var,
)
from ..ir.program import Function, walk
from .cfg import CFG
from .solver import ForwardAnalysis

LIVE = "live"
FREED = "freed"
MAYBE = "maybe"


def _meet_state(a: str, b: str) -> str:
    return a if a == b else MAYBE


class AllocStateAnalysis(ForwardAnalysis):
    """Forward lifetime analysis; state is ``{root: LIVE|FREED|MAYBE}``.

    Every root the function can mention is materialized in the entry
    state: stack/global/param roots start LIVE, heap roots start MAYBE
    (their ``Malloc`` has not executed yet) and become LIVE at their
    allocation site.
    """

    def __init__(
        self,
        function: Function,
        provenance_map,
        summaries: Optional[Dict[str, object]] = None,
    ) -> None:
        self.function = function
        self.pmap = provenance_map
        self.summaries = summaries
        # materialize every root up front so degradation (Call, unknown
        # Free) reaches roots that have not been touched yet
        self._entry: Dict[str, str] = {}
        for name in function.params:
            self._entry[f"param:{name}"] = LIVE
        for instr in walk(function.body):
            if isinstance(instr, Malloc):
                self._entry[f"alloc:{id(instr)}"] = MAYBE
            elif isinstance(instr, StackAlloc):
                self._entry[f"stack:{id(instr)}"] = LIVE
            elif isinstance(instr, GlobalAlloc):
                self._entry[f"global:{id(instr)}"] = LIVE
            elif isinstance(instr, Call):
                summary = self._summary_of(instr)
                if summary is not None and summary.returns_fresh is not None:
                    self._entry[f"callret:{id(instr)}"] = MAYBE

    def _summary_of(self, instr: Call):
        if self.summaries is None:
            return None
        return self.summaries.get(instr.func)

    def boundary(self, cfg: CFG) -> Dict[str, str]:
        return dict(self._entry)

    def copy(self, state: Dict[str, str]) -> Dict[str, str]:
        return dict(state)

    def meet(self, a: Dict[str, str], b: Dict[str, str]) -> Dict[str, str]:
        merged: Dict[str, str] = {}
        for root in a.keys() | b.keys():
            merged[root] = _meet_state(
                a.get(root, MAYBE), b.get(root, MAYBE)
            )
        return merged

    def transfer(self, instr: Instr, state: Dict[str, str]) -> None:
        if isinstance(instr, Malloc):
            state[f"alloc:{id(instr)}"] = LIVE
        elif isinstance(instr, Free):
            prov = self.pmap.provenance(instr.ptr)
            if prov is not None:
                state[prov.root] = FREED
                # distinct parameters may alias one caller object, so a
                # free through any param root clouds every other param
                self._degrade_param_aliases(state, prov.root)
            else:
                # an unknown pointer may free any heap object
                for root in list(state):
                    if self._heap_like(root):
                        state[root] = MAYBE
        elif isinstance(instr, Call):
            summary = self._summary_of(instr)
            if (
                summary is None
                or summary.recursive
                or summary.may_free_unknown
            ):
                # the callee may free anything it can reach
                for root in list(state):
                    if self._heap_like(root):
                        state[root] = MAYBE
                return
            # only arguments bound to may-freed parameters can die
            for index, facts in enumerate(summary.param_facts):
                if not facts.freed:
                    continue
                arg = (
                    instr.args[index]
                    if index < len(instr.args)
                    else None
                )
                prov = (
                    self.pmap.provenance(arg.name)
                    if isinstance(arg, Var)
                    else None
                )
                if prov is not None:
                    if self._heap_like(prov.root):
                        state[prov.root] = MAYBE
                    self._degrade_param_aliases(state, prov.root)
                else:
                    for root in list(state):
                        if self._heap_like(root):
                            state[root] = MAYBE
                    return
            if summary.returns_fresh is not None:
                state[f"callret:{id(instr)}"] = LIVE

    @staticmethod
    def _heap_like(root: str) -> bool:
        return not (root.startswith("stack:") or root.startswith("global:"))

    @staticmethod
    def _degrade_param_aliases(state: Dict[str, str], root: str) -> None:
        """A free through a ``param:`` root may have freed the object
        behind any *other* parameter (the caller may pass one pointer
        twice); degrade the rest to MAYBE."""
        if not root.startswith("param:"):
            return
        for other in state:
            if other.startswith("param:") and other != root:
                state[other] = MAYBE

    # ------------------------------------------------------------------
    @staticmethod
    def state_of(state: Dict[str, str], root: str) -> str:
        """The lifetime state of ``root`` (absent roots are unknown)."""
        return state.get(root, MAYBE)
