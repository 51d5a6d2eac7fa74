"""Interval (value-range) analysis — the SCEV-flavored workhorse.

Every integer local is mapped to a closed interval ``[lo, hi]`` (either
bound may be infinite).  Loop induction variables are clamped to their
trip range at the loop header, affine expressions over them evaluate to
tight ranges, and joins take the interval hull — which is exactly what
is needed to prove ``base + offset`` accesses in-bounds against a
statically known allocation size, or *definitely* out of bounds for the
static bug detector.

Arithmetic follows the interpreter's conventions (notably ``//`` and
``%`` by zero evaluate to 0), so a proof about an expression is a proof
about what the interpreter will compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..ir.nodes import (
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    GlobalAlloc,
    Instr,
    Load,
    Loop,
    Malloc,
    PtrAdd,
    StackAlloc,
    Var,
)
from .cfg import CFG, BasicBlock
from .solver import ForwardAnalysis


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` bounds mean +/- infinity."""

    lo: Optional[int]
    hi: Optional[int]

    def is_bottom(self) -> bool:
        """Empty interval (unreachable value)."""
        return (
            self.lo is not None and self.hi is not None and self.lo > self.hi
        )

    def is_constant(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def hull(self, other: "Interval") -> "Interval":
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        lo = (
            None
            if self.lo is None or other.lo is None
            else min(self.lo, other.lo)
        )
        hi = (
            None
            if self.hi is None or other.hi is None
            else max(self.hi, other.hi)
        )
        return Interval(lo, hi)

    def clamp(self, lo: Optional[int], hi: Optional[int]) -> "Interval":
        new_lo = self.lo
        if lo is not None and (new_lo is None or new_lo < lo):
            new_lo = lo
        new_hi = self.hi
        if hi is not None and (new_hi is None or new_hi > hi):
            new_hi = hi
        return Interval(new_lo, new_hi)

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)
BOTTOM = Interval(0, -1)


def const(value: int) -> Interval:
    return Interval(value, value)


def _add(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return Interval(lo, hi)


def _neg(a: Interval) -> Interval:
    lo = None if a.hi is None else -a.hi
    hi = None if a.lo is None else -a.lo
    return Interval(lo, hi)


def _mul(a: Interval, b: Interval) -> Interval:
    corners = []
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            if x is None or y is None:
                # sign analysis could sharpen this; infinity times
                # anything nonzero stays unbounded
                if (x == 0) or (y == 0):
                    corners.append(0)
                else:
                    return TOP
            else:
                corners.append(x * y)
    return Interval(min(corners), max(corners))


def _floordiv(a: Interval, b: Interval) -> Interval:
    # division by a single positive constant is the common case
    # (index scaling); the by-zero convention maps to literal 0
    if b.is_constant() and b.lo is not None:
        divisor = b.lo
        if divisor == 0:
            return const(0)
        if divisor > 0:
            lo = None if a.lo is None else a.lo // divisor
            hi = None if a.hi is None else a.hi // divisor
            return Interval(lo, hi)
    return TOP


def _mod(a: Interval, b: Interval) -> Interval:
    # x % m for m in a known-positive range lies in [0, max_m - 1];
    # a zero divisor evaluates to 0, which that range already contains
    if b.lo is not None and b.hi is not None and b.lo >= 0:
        if b.hi == 0:
            return const(0)
        return Interval(0, b.hi - 1)
    return TOP


def _shift_left(a: Interval, b: Interval) -> Interval:
    if b.is_constant() and b.lo is not None and b.lo >= 0:
        return _mul(a, const(1 << b.lo))
    return TOP


def _shift_right(a: Interval, b: Interval) -> Interval:
    if b.is_constant() and b.lo is not None and b.lo >= 0:
        return _floordiv(a, const(1 << b.lo))
    return TOP


def _bit_and(a: Interval, b: Interval) -> Interval:
    # masking a non-negative value with a non-negative constant bounds
    # the result by both the mask and the value
    if b.is_constant() and b.lo is not None and b.lo >= 0:
        if a.lo is not None and a.lo >= 0:
            hi = b.lo if a.hi is None else min(a.hi, b.lo)
            return Interval(0, hi)
        return Interval(0, b.lo)
    if a.is_constant() and a.lo is not None and a.lo >= 0:
        return _bit_and(b, a)
    return TOP


_COMPARISON = ("<", "<=", ">", ">=", "==", "!=")


def eval_expr(expr: Expr, env: Dict[str, Interval]) -> Interval:
    """The interval of ``expr`` under per-variable interval ``env``."""
    if isinstance(expr, Const):
        return const(expr.value)
    if isinstance(expr, Var):
        return env.get(expr.name, TOP)
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        if left.is_bottom() or right.is_bottom():
            return BOTTOM
        op = expr.op
        if op == "+":
            return _add(left, right)
        if op == "-":
            return _add(left, _neg(right))
        if op == "*":
            return _mul(left, right)
        if op == "//":
            return _floordiv(left, right)
        if op == "%":
            return _mod(left, right)
        if op == "<<":
            return _shift_left(left, right)
        if op == ">>":
            return _shift_right(left, right)
        if op == "&":
            return _bit_and(left, right)
        if op in ("|", "^"):
            return TOP
        if op in _COMPARISON:
            return Interval(0, 1)
    return TOP


class IntervalAnalysis(ForwardAnalysis):
    """Forward interval analysis over one function's CFG.

    The state is ``{variable name: Interval}``; absent variables are
    unconstrained (TOP).  Meet is the interval hull per variable, with
    variables known on only one side dropping to TOP (they may hold
    anything on the other path).

    With function ``summaries`` (the whole-program listing's) a call's
    destination takes the callee's summarized return interval instead
    of dropping to TOP.
    """

    def __init__(
        self, summaries: Optional[Dict[str, object]] = None
    ) -> None:
        self.summaries = summaries

    def boundary(self, cfg: CFG) -> Dict[str, Interval]:
        # parameters are unconstrained; nothing else is bound yet
        return {}

    def copy(self, state: Dict[str, Interval]) -> Dict[str, Interval]:
        return dict(state)

    def meet(
        self, a: Dict[str, Interval], b: Dict[str, Interval]
    ) -> Dict[str, Interval]:
        merged: Dict[str, Interval] = {}
        for name in a.keys() & b.keys():
            hull = a[name].hull(b[name])
            if hull != TOP:
                merged[name] = hull
        return merged

    def widen(
        self, old: Dict[str, Interval], new: Dict[str, Interval]
    ) -> Dict[str, Interval]:
        widened: Dict[str, Interval] = {}
        for name in old.keys() & new.keys():
            before, after = old[name], new[name]
            lo = before.lo if before.lo == after.lo else None
            hi = before.hi if before.hi == after.hi else None
            result = Interval(lo, hi)
            if result != TOP:
                widened[name] = result
        return widened

    def at_block_start(
        self, block: BasicBlock, state: Dict[str, Interval]
    ) -> None:
        loop = block.loop_body_of
        if loop is None:
            return
        # On the body-entry edge the induction variable ranges over
        # [start, end - 1] whatever the step or direction (forward
        # starts at start, reverse starts at end - step; both stay
        # inside the half-open [start, end)).  The clamp lives here and
        # not at the header so the loop *exit* edge keeps the hull of
        # pre-loop and in-loop values (a zero-trip loop leaves the
        # variable untouched).
        start = eval_expr(loop.start, state)
        end = eval_expr(loop.end, state)
        lo = start.lo
        hi = None if end.hi is None else end.hi - 1
        state[loop.var] = Interval(lo, hi)

    def transfer(self, instr: Instr, state: Dict[str, Interval]) -> None:
        if isinstance(instr, Assign):
            value = eval_expr(instr.expr, state)
            if value == TOP:
                state.pop(instr.dst, None)
            else:
                state[instr.dst] = value
        elif isinstance(instr, Load):
            # an unsigned width-byte load can produce [0, 2^(8w) - 1]
            state[instr.dst] = Interval(0, (1 << (8 * instr.width)) - 1)
        elif isinstance(instr, (Malloc, StackAlloc, GlobalAlloc, PtrAdd)):
            state.pop(instr.dst, None)
        elif isinstance(instr, Call):
            if instr.dst:
                summary = (
                    self.summaries.get(instr.func)
                    if self.summaries is not None
                    else None
                )
                if (
                    summary is not None
                    and not summary.recursive
                    and summary.returns_fresh is None
                    and summary.return_interval != TOP
                ):
                    state[instr.dst] = summary.return_interval
                else:
                    state.pop(instr.dst, None)
