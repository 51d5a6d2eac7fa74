r"""Lowering the structured IR to an explicit control-flow graph.

The mini-IR is fully structured (``Loop``/``If`` trees, no goto), which
the window-based passes exploited by simply clearing facts at every
nesting boundary.  The dataflow framework instead lowers each function
to basic blocks with explicit edges, so the worklist solver can meet
facts at joins and iterate loop back edges to a fixpoint — the same
shape LLVM's function passes see.

Lowering preserves instruction *identity*: blocks reference the very
``Instr`` objects of the structured tree, so analysis results keyed by
``id(instr)`` can be applied back to the tree (e.g. deleting a check via
:func:`~repro.ir.program.transform_blocks`).

Block shapes produced::

    If    ->  cond block --(then)--> arm blocks --+--> join
                          --(else)----------------+
    Loop  ->  preheader --> header <--(back edge)-- body tail
                              |  \--> body entry
                              \----> after (loop exit)
    Return -> edge straight to the function exit block; trailing code
              in the same structured block becomes unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..ir.nodes import If, Instr, Loop, Return
from ..ir.program import Function

#: Block kinds (informational; the solver only looks at edges).
ENTRY, EXIT, PLAIN, LOOP_HEADER, JOIN = (
    "entry",
    "exit",
    "plain",
    "loop-header",
    "join",
)


@dataclass
class BasicBlock:
    """One straight-line run of instructions plus its edges."""

    index: int
    kind: str = PLAIN
    #: Non-control instructions, in execution order (references into the
    #: structured tree, not copies).
    instrs: List[Instr] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    #: The ``Loop`` this block is the header of, if any.
    loop: Optional[Loop] = None
    #: The ``Loop`` whose body this block enters, if any.  Induction-
    #: variable facts hold on this edge only — not at the header, whose
    #: out-state also feeds the loop *exit* (where, after zero trips,
    #: the variable still holds its pre-loop value).
    loop_body_of: Optional[Loop] = None
    #: The ``If`` whose condition this block evaluates last, if any.
    branch: Optional[If] = None


@dataclass
class CFG:
    """The control-flow graph of one function."""

    function: Function
    blocks: List[BasicBlock] = field(default_factory=list)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    @property
    def exit(self) -> BasicBlock:
        return self.blocks[1]

    def new_block(self, kind: str = PLAIN) -> BasicBlock:
        block = BasicBlock(index=len(self.blocks), kind=kind)
        self.blocks.append(block)
        return block

    def add_edge(self, src: BasicBlock, dst: BasicBlock) -> None:
        if dst.index not in src.succs:
            src.succs.append(dst.index)
        if src.index not in dst.preds:
            dst.preds.append(src.index)

    # ------------------------------------------------------------------
    def rpo(self) -> List[int]:
        """Reverse post-order over blocks reachable from the entry."""
        seen = set()
        order: List[int] = []

        # iterative DFS (generated loop nests can be deep)
        stack: List[Tuple[int, int]] = [(0, 0)]
        seen.add(0)
        while stack:
            index, child = stack[-1]
            succs = self.blocks[index].succs
            if child < len(succs):
                stack[-1] = (index, child + 1)
                succ = succs[child]
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, 0))
            else:
                stack.pop()
                order.append(index)
        order.reverse()
        return order


def lower_function(function: Function) -> CFG:
    """Build the CFG of ``function`` (blocks 0/1 are entry/exit)."""
    cfg = CFG(function=function)
    entry = cfg.new_block(ENTRY)
    exit_block = cfg.new_block(EXIT)

    def lower_block(instrs: List[Instr], current: BasicBlock) -> BasicBlock:
        """Lower one structured block; returns the fall-through block."""
        for instr in instrs:
            if isinstance(instr, Loop):
                # current becomes the preheader
                header = cfg.new_block(LOOP_HEADER)
                header.loop = instr
                cfg.add_edge(current, header)
                body_entry = cfg.new_block()
                body_entry.loop_body_of = instr
                cfg.add_edge(header, body_entry)
                body_tail = lower_block(instr.body, body_entry)
                cfg.add_edge(body_tail, header)  # back edge
                after = cfg.new_block()
                cfg.add_edge(header, after)
                current = after
            elif isinstance(instr, If):
                current.branch = instr
                join = cfg.new_block(JOIN)
                for arm in (instr.then, instr.orelse):
                    arm_entry = cfg.new_block()
                    cfg.add_edge(current, arm_entry)
                    arm_tail = lower_block(arm, arm_entry)
                    cfg.add_edge(arm_tail, join)
                current = join
            elif isinstance(instr, Return):
                current.instrs.append(instr)
                cfg.add_edge(current, exit_block)
                # anything after an unconditional return is unreachable;
                # keep lowering into a predecessor-less block so the
                # tree and the graph stay in sync
                current = cfg.new_block()
            else:
                current.instrs.append(instr)
        return current

    tail = lower_block(function.body, entry)
    cfg.add_edge(tail, exit_block)
    return cfg
