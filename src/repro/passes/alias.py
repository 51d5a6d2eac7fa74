"""Pointer provenance and must-alias analysis.

The paper adopts LLVM's intra-procedural must-alias analysis to merge
checks on aliased pointers (§4.4.2, "Aliased Check Elimination").  Our
IR makes this tractable: a pointer local derives from an allocation site
(``Malloc``/``StackAlloc``), a parameter, or another pointer plus an
offset.  Two access expressions must-alias when they share a provenance
root and syntactically equal offsets (after constant folding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..ir.nodes import (
    Assign,
    GlobalAlloc,
    BinOp,
    Call,
    Const,
    Expr,
    Instr,
    Load,
    Loop,
    If,
    Malloc,
    PtrAdd,
    StackAlloc,
    Var,
)
from ..ir.program import Function, walk
from .constprop import fold


@dataclass(frozen=True)
class Provenance:
    """A pointer's origin: a root object plus a symbolic byte offset."""

    root: str
    offset: Expr

    def shifted(self, extra: Expr) -> "Provenance":
        return Provenance(self.root, fold(BinOp("+", self.offset, extra)))


class ProvenanceMap:
    """Flow-insensitive (single-assignment-biased) provenance for one
    function.

    Workload pointers are effectively SSA; when a variable is re-bound to
    a *different* provenance we drop it from the map entirely, which is
    always safe (passes treat unknown provenance as "may alias anything"
    and skip the optimization).

    With function ``summaries`` (the whole-program listing's), a call
    whose callee definitely returns a fresh heap allocation roots its
    destination at ``callret:{id(call)}`` — a brand-new object the
    caller's analyses can track like any allocation site.
    """

    def __init__(self, function: Function, summaries=None):
        self._map: Dict[str, Provenance] = {}
        self._poisoned: set = set()
        self._summaries = summaries
        for name in function.params:
            self._set(name, Provenance(f"param:{name}", Const(0)))
        for instr in walk(function.body):
            self._visit(instr)

    def _set(self, name: str, provenance: Provenance) -> None:
        if name in self._poisoned:
            return
        existing = self._map.get(name)
        if existing is not None and existing != provenance:
            del self._map[name]
            self._poisoned.add(name)
            return
        self._map[name] = provenance

    def _visit(self, instr: Instr) -> None:
        if isinstance(instr, Malloc):
            self._set(instr.dst, Provenance(f"alloc:{id(instr)}", Const(0)))
        elif isinstance(instr, StackAlloc):
            self._set(instr.dst, Provenance(f"stack:{id(instr)}", Const(0)))
        elif isinstance(instr, GlobalAlloc):
            self._set(instr.dst, Provenance(f"global:{id(instr)}", Const(0)))
        elif isinstance(instr, PtrAdd):
            base = self._map.get(instr.base)
            if base is not None and instr.base not in self._poisoned:
                self._set(instr.dst, base.shifted(instr.offset))
            else:
                self._poisoned.add(instr.dst)
                self._map.pop(instr.dst, None)
        elif isinstance(instr, Assign):
            if isinstance(instr.expr, Var):
                source = self._map.get(instr.expr.name)
                if source is not None:
                    self._set(instr.dst, source)
                    return
            # assigning a non-pointer expression clears pointer facts
            self._map.pop(instr.dst, None)
        elif isinstance(instr, Load):
            self._map.pop(instr.dst, None)
        elif isinstance(instr, Call):
            if instr.dst:
                summary = (
                    self._summaries.get(instr.func)
                    if self._summaries is not None
                    else None
                )
                if (
                    summary is not None
                    and not summary.recursive
                    and summary.returns_fresh is not None
                ):
                    self._set(
                        instr.dst,
                        Provenance(f"callret:{id(instr)}", Const(0)),
                    )
                else:
                    self._map.pop(instr.dst, None)

    def provenance(self, var: str) -> Optional[Provenance]:
        return self._map.get(var)

    def same_object(self, a: str, b: str) -> bool:
        """True when both pointers provably reference the same object."""
        pa, pb = self._map.get(a), self._map.get(b)
        return pa is not None and pb is not None and pa.root == pb.root

    def must_alias(
        self, base_a: str, offset_a: Expr, base_b: str, offset_b: Expr
    ) -> bool:
        """True when base_a+offset_a and base_b+offset_b are provably the
        same address (same root, syntactically equal total offsets)."""
        pa, pb = self._map.get(base_a), self._map.get(base_b)
        if pa is None or pb is None or pa.root != pb.root:
            return False
        total_a = fold(BinOp("+", pa.offset, offset_a))
        total_b = fold(BinOp("+", pb.offset, offset_b))
        return total_a == total_b
