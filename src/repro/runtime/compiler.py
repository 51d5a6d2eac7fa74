"""Compile-to-closures execution engine and the runtime's code generator.

The tree-walking :class:`~repro.runtime.interpreter.Interpreter` pays a
handler-table lookup and call, and a recursive ``Expr`` walk, for every
executed instruction; across a Table 2 sweep that dispatch — not the
sanitizer checks being studied — dominates wall-clock.  This module
removes it: a one-time compile pass walks each instrumented function's
IR once and lowers it to a flat Python function over a slot-indexed
environment (a plain list), with real Python control flow standing in
for ``Loop``/``If`` nodes and every expression pre-flattened to
straight-line source.  The hot path then runs compiled bytecode with
zero per-instruction pattern matching.

This is the only module that generates and ``exec``s Python.  One
emitter has three lowerings, which share the expression lowering and
the namespace:

* :class:`_Emitter` lowers a whole function to a closure ``(E, e)``;
* :class:`_SuperblockEmitter` lowers the body of one loop that
  :mod:`repro.runtime.fastpath` planned to a per-element superblock
  runner ``(env, values, mem)`` that performs only the loop's
  assignments, loads and stores, one iteration at a time;
* :class:`_BulkEmitter` lowers an eligible planned body to a *slice
  kernel* with the same signature: every memory site becomes one
  stepped, typed ``memoryview`` slice of the address space, every
  assignment and stored value one comprehension over those slices, and
  every store one slice assignment.  A kernel whose store shares a byte
  with another site on this entry declines before it writes anything,
  and the per-element runner runs instead.

Both engines reach the superblock lowerings through
:func:`repro.runtime.fastpath.try_execute`, which folds the checks and
charges every counter itself.  A superblock's namespace binds no
per-loop constant, so its source text alone determines the function:
:func:`superblock_function` compiles each distinct text once per
process, in a 128-entry ``functools.lru_cache`` that holds functions
and no IR.

Observable equivalence is the contract: native cycles, instruction
counts and the budget, CheckStats and the Figure 10 classification,
telemetry counters, error logs, and hardware-fault fallback semantics
all match the tree-walker bit for bit.  The configuration-matrix
harness in ``tests/test_config_matrix.py`` enforces this in every
execution cell over the Table 2 kernels, the fast-path decline shapes
and the pinned fuzz corpus.

A closure keeps its hot counters in locals and publishes them only at
flush points.  A *quiet* instruction (Compute, PtrAdd, Assign with no
shift, Load without address resolution) cannot raise and touches only
locals and the engine's own counters, so it joins a straight-line
*run*: the emitter adds up the run's instructions and collects its
constant cycle charges, and emits one ``I += k`` with one budget test
and the charges, one ``cy +=`` each in the tree walker's order, at the
next flush point.  That is before every other instruction (its own
count included, and its charge where the tree walker charges before
the instruction's effect, so a check, store, call, allocation,
intrinsic, ``If`` or ``Loop`` runs only inside the budget), and at the
end of every block, a loop iteration's included.
The charges are never summed: the same float additions in the same
order give ``cy`` the tree walker's bits whatever the costs are.
Each inlined first stage's hits are one local counter, which the
closure's ``finally`` multiplies into the stage's CheckStats increments
and Figure 10 category; so is each Figure 10 category of the accesses
that are not checked in place (eliminated, cached, elided,
unprotected), which the ``finally`` adds to the engine's
``protection_counts``.  Nothing reads those absolutely while the
closure runs: the slow path's classification reads a difference of
``fast_checks``, and the audit replay's snapshot and restore of the
stats commutes with a later addition.

So after any exception, everything its caller reaches equals the tree
walker's at the same raise: the sanitizer's stats, error log, shadow,
heap and address space.  A ``BudgetExceeded`` is raised at a flush,
where the engine's own counters may differ from the tree walker's
(nothing reads them after it): its instruction and cycle counts, and
its ``protection_counts``, to which the ``finally`` adds the accesses
of a run that the tree walker had not yet reached.  Every other
instruction is charged where the tree walker charges it, so an
exception from its own effect (an error report under
``halt_on_error``, a negative shift) leaves even those equal.

Functions the compiler cannot prove safe are simply *not compiled* and
run through the inherited tree-walker — :class:`CompiledEngine` is an
``Interpreter`` subclass, so compiled and interpreted functions call each
other freely.  The main reason to decline is a variable read that is not
*definitely assigned* on every path: the tree-walker would raise
``NameError``/``KeyError`` at the exact faulting instruction, and a slot
environment cannot reproduce that lazily, so such functions keep
reference semantics.  Audited functions (those holding a
:class:`~repro.ir.nodes.CheckElided` marker) also tree-walk: audit
instrumentation comes only from the fuzz driver, which never memoizes,
so the tree-walker's ``_replay_elided`` is the one replay there is.

At each check site the emitter inlines the sanitizer's *first stage*
of the check method (:class:`~repro.sanitizers.base.FirstStage`, the
two-stage shape of the paper's Algorithm 1): ASan's in-segment access
to a GOOD shadow byte, LFP's region inside a live allocation found by
its base, GiantSan's offset under the cached quasi-bound.  Where the
stage's test holds, the closure counts a hit, and makes the method's
CheckStats increments for all its hits when it returns; elsewhere it
calls the method, which decides the check from the start.  The stages
are part of the closure table key, and a sanitizer whose check method
was replaced on its class or instance inlines none for that method
(:meth:`~repro.sanitizers.base.Sanitizer.inline_stages`), so a wrapper
still sees every check.

Compiled loop headers flush the local counters, hand ``try_execute`` a
dict view of the live slots, and sync the slots back on success.
Generated code tests ``TEL is not None`` where telemetry probes sit
(loop entries, the ``interpreter_loop`` phase, cached-check convergence),
so one closure table serves runs with and without telemetry.

:meth:`repro.runtime.session.Session.run` runs every memoized program on
this engine, which tiers up at call boundaries: a run starts on the
tree-walker and compiles its whole program at the first call boundary
that reaches :data:`COMPILE_AFTER_INSTRUCTIONS`.  At a call's entry
that counts the callee's :func:`work_estimate`, so a run compiles at
the call that starts its hot work, before running it; at a return it
counts what the run executed, which covers loops whose bounds are not
constants.  A program with a closure table runs its closures from the
entry call.  With the memo off a session runs the plain
:class:`Interpreter`, which remains the reference.
"""

from __future__ import annotations

import struct
import sys
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir.nodes import (
    Assign,
    BinOp,
    CacheFinalize,
    Call,
    CheckAccess,
    CheckCached,
    CheckRegion,
    Compute,
    Const,
    Expr,
    Free,
    GlobalAlloc,
    If,
    Load,
    Loop,
    Malloc,
    Memcpy,
    Memset,
    Protection,
    PtrAdd,
    Return,
    StackAlloc,
    Store,
    Strcpy,
    Var,
)
from ..ir.program import Function, Program
from ..memory.address_space import CODEC_BY_WIDTH, _MASK_BY_WIDTH
from ..passes.constprop import assigned_vars
from ..sanitizers.base import FirstStage
from . import fastpath as _fastpath
from .cost_model import NativeCosts
from .interpreter import BudgetExceeded, Interpreter
from .intrinsics import guarded_memcpy, guarded_memset, guarded_strcpy

#: Attribute on :class:`~repro.ir.program.Program` memoizing compiled
#: tables, keyed by (costs, needs_resolve, inlined first stages).
#: Telemetry is tested at run time, so runs with and without it share a
#: table.  Instrumented programs shared through the instrumentation memo
#: cache therefore compile once per process, like fastpath loop plans.
_TABLE_ATTR = "_closure_tables"

#: Attribute on :class:`~repro.ir.program.Function` memoizing its
#: :func:`work_estimate`, as plans are memoized on loops.
_WORK_ATTR = "_work_estimate"

#: A :class:`CompiledEngine` run compiles its program at the first call
#: boundary where it reaches this many IR instructions: at a call's
#: entry when the instructions executed so far plus the callee's
#: :func:`work_estimate` reach it, or at a return once it has executed
#: them.  Compiling pays only over long runs, and the corpora split
#: cleanly: Table 2 runs execute 6,399-441,987 instructions each,
#: detection runs (Tables 3-5) at most 1,332 and fuzz cases at most
#: 312, and neither compiles (fuzz runs never memoize).  Both engines
#: produce identical observables, so where a run tiers up never changes
#: a result.
COMPILE_AFTER_INSTRUCTIONS = 4096


class _Uncompilable(Exception):
    """Internal signal: this function keeps tree-walker semantics."""


# ----------------------------------------------------------------------
# expression lowering
# ----------------------------------------------------------------------
# The tree-walker's _ARITH surface, with ``//`` and ``%`` returning 0 on
# a zero divisor.  A negative shift amount raises ValueError in both
# engines (plain Python semantics); only superblock runners restrict
# shift amounts (see _SuperblockEmitter.binop).
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

_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


def _div(a: int, b: int) -> int:
    return a // b if b else 0


def _mod(a: int, b: int) -> int:
    return a % b if b else 0


def _shiftless(node: Expr) -> bool:
    """Whether ``node`` has no shift, the one operator that raises."""
    if type(node) is BinOp:
        return (
            node.op not in ("<<", ">>")
            and _shiftless(node.left)
            and _shiftless(node.right)
        )
    return True


def _budget_exceeded(limit: int) -> BudgetExceeded:
    return BudgetExceeded(f"exceeded {limit} executed instructions")


#: Namespace shared by every generated function.
_SHARED_NS: Dict[str, object] = {
    "_div": _div,
    "_mod": _mod,
    "_BE": _budget_exceeded,
    "TRY": _fastpath.try_execute,
    "GMS": guarded_memset,
    "GMC": guarded_memcpy,
    "GSC": guarded_strcpy,
}
for _width, _codec in CODEC_BY_WIDTH.items():
    _SHARED_NS[f"U{_width}"] = _codec.unpack_from
    _SHARED_NS[f"K{_width}"] = _codec.pack_into


# ----------------------------------------------------------------------
# slice-kernel support
# ----------------------------------------------------------------------
#: Native ``struct``/``memoryview`` item codes of the address-space
#: codecs' widths.  Kernels view memory in native byte order, so they
#: lower only where the native sizes match and the host is
#: little-endian (the codecs are ``<B/<H/<I/<Q``).
_ITEM_CODES = {
    width: code
    for width, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
    if struct.calcsize(code) == width
}


def _view(memory: memoryview, address: int, step: int, count: int,
          width: int, code: str) -> memoryview:
    """The ``count`` ``width``-byte items at ``address``, ``address +
    step``, ... in that order, as one stepped, typed slice of
    ``memory``; ``step`` is a non-zero multiple of ``width``."""
    last = address + (count - 1) * step
    low, high = (address, last) if step > 0 else (last, address)
    return memory[low:high + width].cast(code)[::step // width]


def _overlap(count: int, sites: Sequence[Tuple[int, int, int, bool]]) -> bool:
    """Whether a store of ``sites`` shares a byte with another site over
    ``count`` iterations, so slices would reorder a memory dependence.

    Each site is ``(first address, byte step, width, is_store)``, in
    body order.  A load before a store over the identical address
    sequence is a read-modify-write that slices keep, since a kernel
    reads every slice before it stores any.  Sites with the same byte
    stride share a byte only where their within-stride intervals meet.
    """
    for index, (address, step, width, is_store) in enumerate(sites):
        if not is_store:
            continue
        low = min(address, address + (count - 1) * step)
        for other, (b_address, b_step, b_width, b_store) in enumerate(sites):
            if other == index or (
                other < index
                and not b_store
                and (b_address, b_step, b_width) == (address, step, width)
            ):
                continue
            b_low = min(b_address, b_address + (count - 1) * b_step)
            if (
                b_low >= low + abs(step) * (count - 1) + width
                or low >= b_low + abs(b_step) * (count - 1) + b_width
            ):
                continue
            period = abs(step)
            if period == abs(b_step):
                gap = (b_low - low) % period
                if gap >= width and period - gap >= b_width:
                    continue
            return True
    return False


def _packed(code: str, values: List[int]) -> memoryview:
    """``values`` as a typed buffer that a slice of ``code`` items takes
    in one assignment."""
    return memoryview(struct.pack(f"{len(values)}{code}", *values)).cast(code)


_SHARED_NS.update(_V=_view, _OV=_overlap, _P=_packed)


class CompiledFunction:
    """One lowered function: the closure plus its slot layout."""

    __slots__ = (
        "name", "function", "key", "closure", "n_slots", "param_slots",
        "n_params",
    )

    def __init__(self, function, key, closure, n_slots, param_slots):
        self.name = function.name
        #: the IR function and table key the closure was emitted from
        self.function = function
        self.key = key
        self.closure = closure
        self.n_slots = n_slots
        self.param_slots = param_slots
        self.n_params = len(param_slots)

    @property
    def source(self) -> str:
        """The closure's generated source, for tests and debugging.

        Emitted again on each read rather than kept: emission is
        deterministic in the function and the table key, so this is the
        text that was compiled.
        """
        emitter = _Emitter(self.function, *self.key)
        emitter.emit_function()
        return "\n".join(emitter.lines)


class _Emitter:
    """Lowers one :class:`Function` to Python source and compiles it.

    :class:`_SuperblockEmitter` reuses the expression lowering, the
    load/store text and :meth:`define`, and overrides how a variable is
    named (:meth:`read`, :meth:`write`), which instructions lower
    (:meth:`instr`) and the shift rule (:meth:`binop`).
    """

    def __init__(
        self,
        function: Optional[Function],
        costs: Optional[NativeCosts],
        needs_resolve: bool,
        stages: Sequence[FirstStage] = (),
    ):
        self.fn = function
        self.costs = costs
        self.needs_resolve = needs_resolve
        #: the first stage inlined at each check method's sites
        self.stages = {stage.method: stage for stage in stages}
        self.stage_key = tuple(stages)
        #: prologue bindings the inlined stages read, by name
        self.stage_bindings: Dict[str, str] = {}
        #: each inlined stage's hit counter, a closure local
        self.hits: Dict[FirstStage, str] = {}
        #: each non-DIRECT Figure 10 category's count, a closure local
        self.classified: Dict[str, str] = {}
        #: the pending run: instructions and constant cycle charges not
        #: yet emitted (see :meth:`flush`)
        self.run_instructions = 0
        self.run_cycles: List[float] = []
        self.slots: Dict[str, int] = {}
        self.defined: set = set()
        self.lines: List[str] = []
        self.used: set = set()
        self.consts: Dict[int, str] = {}
        self.ns: Dict[str, object] = {}
        self._serial = 0

    # -- infrastructure ------------------------------------------------
    def _next(self) -> int:
        self._serial += 1
        return self._serial

    def slot(self, name: str) -> int:
        index = self.slots.get(name)
        if index is None:
            index = len(self.slots)
            self.slots[name] = index
        return index

    def const(self, value: object, hint: str = "K") -> str:
        """Bind an arbitrary object into the namespace; stable per object."""
        name = self.consts.get(id(value))
        if name is None:
            name = f"_{hint}{self._next()}"
            self.consts[id(value)] = name
            self.ns[name] = value
        return name

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def define(self, name: str, filename: str) -> Callable:
        """Compile the emitted lines; the function ``name`` they define."""
        source = "\n".join(self.lines)
        namespace = dict(_SHARED_NS)
        namespace.update(self.ns)
        exec(compile(source, filename, "exec"), namespace)  # noqa: S102
        return namespace[name]

    # -- variables -----------------------------------------------------
    def read(self, name: str) -> str:
        """A read of ``name``: its slot, which must be definitely assigned."""
        if name not in self.defined:
            raise _Uncompilable(f"may-undefined read of {name!r}")
        return f"e[{self.slot(name)}]"

    def write(self, name: str) -> str:
        """The assignment target for ``name``."""
        self.defined.add(name)
        return f"e[{self.slot(name)}]"

    # -- expressions ---------------------------------------------------
    def expr(self, node: Expr) -> str:
        kind = type(node)
        if kind is Const:
            return repr(node.value)
        if kind is Var:
            return self.read(node.name)
        if kind is BinOp:
            return self.binop(node)
        raise _Uncompilable(f"expression {kind.__name__}")

    def binop(self, node: BinOp) -> str:
        template = _BIN_TEMPLATES.get(node.op)
        if template is None:
            raise _Uncompilable(f"operator {node.op!r}")
        return template.format(self.expr(node.left), self.expr(node.right))

    def cond(self, node: Expr) -> str:
        """Like :meth:`expr` but may skip the int() wrap for a top-level
        comparison: only the truthiness is consumed."""
        if type(node) is BinOp and node.op in _COMPARISONS:
            return "({} {} {})".format(
                self.expr(node.left), node.op, self.expr(node.right)
            )
        return self.expr(node)

    # -- memory access text --------------------------------------------
    def address(self, instr) -> str:
        """A Load's or Store's address, ``base + offset``."""
        if instr.width not in CODEC_BY_WIDTH:
            raise _Uncompilable(f"width {instr.width}")
        return f"{self.read(instr.base)} + {self.expr(instr.offset)}"

    @staticmethod
    def load_text(width: int, address: str) -> str:
        return f"U{width}(mem, {address})[0]"

    @staticmethod
    def store_text(width: int, address: str, value: str) -> str:
        return f"K{width}(mem, {address}, ({value}) & {_MASK_BY_WIDTH[width]})"

    # -- instruction lowering ------------------------------------------
    def block(self, instrs: List, depth: int) -> None:
        if not instrs:
            self.emit(depth, "pass")
        for instr in instrs:
            self.instr(instr, depth)
        self.flush(depth)

    def flush(self, depth: int) -> None:
        """Charge the pending run: one budget test for its instructions,
        then each of its constant cycle charges, in order."""
        if self.run_instructions:
            self.emit(depth, f"I += {self.run_instructions}")
            self.emit(depth, "if I > M: raise _BE(M)")
        for charge in self.run_cycles:
            self.emit(depth, f"cy += {charge!r}")
        self.run_instructions = 0
        self.run_cycles = []

    def _classify(self, protection: Protection, depth: int) -> None:
        if protection is Protection.DIRECT:
            return  # classified at the check instruction
        self.used.add("P")
        category = protection.value
        count = self.classified.setdefault(category, f"_pc_{category}")
        self.emit(depth, f"{count} += 1")

    def _classified(self, call: str, depth: int) -> None:
        """``call`` a check method, then classify the check by whether
        it counted a fast check (Figure 10)."""
        self.used.update(("P", "st"))
        self.emit(depth, "_fb = st.fast_checks")
        self.emit(depth, call)
        self.emit(depth, "if st.fast_checks > _fb:")
        self.emit(depth + 1, 'P["fast_only"] += 1')
        self.emit(depth, "else:")
        self.emit(depth + 1, 'P["full_check"] += 1')

    def _staged(
        self,
        method: str,
        operands: Dict[str, object],
        slow: Callable[[int], None],
        depth: int,
    ) -> None:
        """Emit ``slow``, the lines that call ``method``, behind the
        method's inlined first stage when the sanitizer has one."""
        stage = self.stages.get(method)
        if stage is None:
            slow(depth)
            return
        for name, expression in stage.bindings:
            assert name not in self._BINDINGS and name not in _SHARED_NS
            self.stage_bindings[name] = expression
        hits = self.hits.get(stage)
        if hits is None:
            hits = self.hits[stage] = f"_h{len(self.hits) + 1}"
            self.used.add("st")
            if stage.protection is not None:
                self.used.add("P")
        self.emit(depth, f"if {stage.test.format(**operands)}:")
        self.emit(depth + 1, f"{hits} += 1")
        self.emit(depth, "else:")
        slow(depth + 1)

    #: the constant cycle charge of each kind that has one, by
    #: :class:`NativeCosts` field, made where the tree walker makes it:
    #: before the instruction's effect, or after it (Compute's charge is
    #: its own ``cycles``, after; a Call's is made in its lowering)
    _CHARGED_BEFORE = {If: "branch", Return: "ret"}
    _CHARGED_AFTER = {
        Assign: "arith", PtrAdd: "arith", Load: "memory_access",
        Store: "memory_access", Malloc: "malloc", Free: "free",
    }

    def quiet(self, instr) -> bool:
        """Whether ``instr`` can join a straight-line run: it cannot
        raise and touches only locals and the engine's own counters."""
        kind = type(instr)
        if kind is Assign:
            return _shiftless(instr.expr)
        if kind is PtrAdd:
            return _shiftless(instr.offset)
        if kind is Load:
            return not self.needs_resolve and _shiftless(instr.offset)
        return kind is Compute or kind is StackAlloc

    def instr(self, instr, depth: int) -> None:
        """Lower ``instr``: it joins the pending run, which is charged
        before the instruction unless the instruction is quiet."""
        kind = type(instr)
        costs = self.costs
        self.run_instructions += 1
        charge = self._CHARGED_BEFORE.get(kind)
        if charge is not None:
            self.run_cycles.append(getattr(costs, charge))
        if not self.quiet(instr):
            self.flush(depth)

        if kind is Compute:
            self.run_cycles.append(instr.cycles)
        elif kind is Assign:
            code = self.expr(instr.expr)
            self.emit(depth, f"{self.write(instr.dst)} = {code}")
        elif kind is Load or kind is Store:
            self.used.add("mem")
            self.emit(depth, f"_a = {self.address(instr)}")
            if self.needs_resolve:
                self.used.add("RES")
                self.emit(depth, "_a = RES(_a)")
            width = instr.width
            self.emit(depth, f"if 0 <= _a and _a + {width} <= TS:")
            if kind is Load:
                self.emit(depth + 1, f"_v = {self.load_text(width, '_a')}")
                self.emit(depth, "else:")
                self.emit(depth + 1, "_v = 0")
                self.emit(depth + 1, "E.hardware_faults += 1")
                self.emit(depth, f"{self.write(instr.dst)} = _v")
            else:
                value = self.expr(instr.value)
                self.emit(depth + 1, self.store_text(width, "_a", value))
                self.emit(depth, "else:")
                self.emit(depth + 1, "E.hardware_faults += 1")
            self._classify(instr.protection, depth)
        elif kind is Loop:
            self._loop(instr, depth)
        elif kind is If:
            self.emit(depth, f"if {self.cond(instr.cond)}:")
            before = set(self.defined)
            self.block(instr.then, depth + 1)
            after_then = self.defined
            self.defined = set(before)
            if instr.orelse:
                self.emit(depth, "else:")
                self.block(instr.orelse, depth + 1)
            self.defined = before | (after_then & self.defined)
        elif kind is CheckRegion:
            self.used.update(("CR", "st"))
            self.emit(depth, f"_b = {self.read(instr.base)}")
            self.emit(depth, f"_x = _b + {self.expr(instr.start)}")
            self.emit(depth, f"_y = _b + {self.expr(instr.end)}")
            call = (
                f"CR(_x, _y, {self.const(instr.access, 'A')}, "
                f"anchor={'_b' if instr.use_anchor else 'None'})"
            )
            operands = dict(
                start="_x", end="_y", base="_b" if instr.use_anchor else "_x"
            )
            self._staged(
                "check_region", operands,
                lambda depth: self._classified(call, depth), depth,
            )
        elif kind is CheckAccess:
            self.used.update(("CA", "st"))
            self.emit(
                depth,
                f"_a = {self.read(instr.base)} + {self.expr(instr.offset)}",
            )
            call = f"CA(_a, {instr.width}, {self.const(instr.access, 'A')})"
            self._staged(
                "check_access", dict(address="_a", width=instr.width),
                lambda depth: self._classified(call, depth), depth,
            )
        elif kind is CheckCached:
            self.used.update(("CACHES", "MKC", "CC", "TEL"))
            cid = instr.cache_id
            self.emit(depth, f"_c = CACHES.get({cid})")
            self.emit(depth, "if _c is None:")
            self.emit(depth + 1, "_c = MKC()")
            self.emit(depth + 1, f"CACHES[{cid}] = _c")
            self.emit(depth, f"_b = {self.read(instr.base)}")
            self.emit(depth, f"_o = {self.expr(instr.offset)}")
            call = (
                f"CC(_c, _b, _o, {instr.width}, "
                f"{self.const(instr.access, 'A')})"
            )

            def slow(depth: int) -> None:
                self.emit(depth, "if TEL is None:")
                self.emit(depth + 1, call)
                self.emit(depth, "else:")
                self.emit(depth + 1, "_ub = _c.ub")
                self.emit(depth + 1, call)
                self.emit(depth + 1, "if _c.ub > _ub:")
                self.emit(depth + 2, f"TEL.note_convergence({cid})")

            operands = dict(cache="_c", offset="_o", width=instr.width)
            self._staged("check_cached", operands, slow, depth)
        elif kind is CacheFinalize:
            self.used.update(("CACHES", "CR"))
            base = self.read(instr.base)
            self.emit(depth, f"_c = CACHES.get({instr.cache_id})")
            self.emit(depth, "if _c is not None and _c.ub > 0:")
            self.emit(depth + 1, f"_b = {base}")
            self.emit(
                depth + 1,
                f"CR(_b, _b + _c.ub, {self.const(instr.access, 'A')}, anchor=_b)",
            )
            self.emit(depth + 1, "_c.reset()")
        elif kind is Malloc:
            self.used.add("MAL")
            code = self.expr(instr.size)
            self.emit(depth, f"{self.write(instr.dst)} = MAL({code}).base")
        elif kind is GlobalAlloc:
            self.used.add("DG")
            self.emit(
                depth,
                f"{self.write(instr.dst)} = "
                f"DG({instr.dst!r}, {instr.size}).base",
            )
        elif kind is Free:
            self.used.add("FR")
            self.emit(depth, f"FR({self.read(instr.ptr)})")
        elif kind is PtrAdd:
            code = f"{self.read(instr.base)} + {self.expr(instr.offset)}"
            self.emit(depth, f"{self.write(instr.dst)} = {code}")
        elif kind is Memset:
            self.emit(depth, f"_b = {self.read(instr.base)}")
            self.emit(depth, f"_n = {self.expr(instr.length)}")
            self.emit(
                depth,
                f"GMS(san, {self.const(instr.protection, 'PR')}, "
                f"_b + {self.expr(instr.offset)}, _n, "
                f"{self.expr(instr.byte)}, _b)",
            )
            self.emit(
                depth, f"cy += {costs.byte_move!r} * (_n if _n > 0 else 0)"
            )
            self._classify(instr.protection, depth)
        elif kind is Memcpy:
            self.emit(depth, f"_db = {self.read(instr.dst_base)}")
            self.emit(depth, f"_sb = {self.read(instr.src_base)}")
            self.emit(depth, f"_n = {self.expr(instr.length)}")
            self.emit(
                depth,
                f"GMC(san, {self.const(instr.protection, 'PR')}, "
                f"_db + {self.expr(instr.dst_offset)}, "
                f"_sb + {self.expr(instr.src_offset)}, _n, _db, _sb)",
            )
            self.emit(
                depth, f"cy += {costs.byte_move!r} * (_n if _n > 0 else 0)"
            )
            self._classify(instr.protection, depth)
        elif kind is Strcpy:
            self.emit(depth, f"_db = {self.read(instr.dst_base)}")
            self.emit(depth, f"_sb = {self.read(instr.src_base)}")
            self.emit(
                depth,
                f"_n = GSC(san, {self.const(instr.protection, 'PR')}, "
                f"_db + {self.expr(instr.dst_offset)}, "
                f"_sb + {self.expr(instr.src_offset)}, _db, _sb)",
            )
            self.emit(depth, f"cy += {costs.byte_scan!r} * _n")
            self._classify(instr.protection, depth)
        elif kind is Call:
            args = ", ".join(self.expr(a) for a in instr.args)
            self.used.add("CALLF")
            self.emit(depth, "E.instructions = I")
            # charged for the callee only: an argument that raises leaves
            # the local ``cy`` without it, as the tree walker's counter
            self.emit(depth, f"E.native_cycles = cy + {costs.call!r}")
            self.emit(depth, f"_r = CALLF({instr.func!r}, [{args}])")
            self.emit(depth, "I = E.instructions")
            self.emit(depth, "cy = E.native_cycles")
            if instr.dst is not None:
                self.emit(
                    depth,
                    f"{self.write(instr.dst)} = _r if _r is not None else 0",
                )
        elif kind is Return:
            if instr.expr is not None:
                self.emit(depth, f"return {self.expr(instr.expr)}")
            else:
                self.emit(depth, "return None")
        elif kind is StackAlloc:
            pass  # materialized at function entry
        else:
            raise _Uncompilable(f"instruction {kind.__name__}")
        charge = self._CHARGED_AFTER.get(kind)
        if charge is not None:
            self.run_cycles.append(getattr(costs, charge))

    # -- loops ---------------------------------------------------------
    def _loop(self, loop: Loop, depth: int) -> None:
        n = self._next()
        step = loop.step
        self.emit(depth, f"_s{n} = {self.expr(loop.start)}")
        self.emit(depth, f"_e{n} = {self.expr(loop.end)}")
        if loop.reverse:
            self.emit(
                depth, f"_r{n} = range(_e{n} - {step}, _s{n} - 1, {-step})"
            )
        else:
            self.emit(depth, f"_r{n} = range(_s{n}, _e{n}, {step})")

        self.used.update(("FP", "TEL"))
        loop_ref = self.const(loop, "L")
        plan = _fastpath.analyze_loop(loop)
        if plan is not None and not self.needs_resolve:
            env_literal = ", ".join(
                f"{name!r}: {self.read(name)}" for name in plan.preload
            )
            self.used.add("SL")
            self.emit(depth, f"_t{n} = 0")
            # MIN_TRIP_COUNT mirrors try_execute's own early decline;
            # skipping the call entirely is invisible without telemetry.
            self.emit(
                depth,
                f"if FP and (TEL is not None or "
                f"len(_r{n}) >= {_fastpath.MIN_TRIP_COUNT}):",
            )
            self.emit(depth + 1, "E.instructions = I")
            self.emit(depth + 1, "E.native_cycles = cy")
            self.emit(depth + 1, f"_env = {{{env_literal}}}")
            self.emit(depth + 1, f"if TRY(E, {loop_ref}, _r{n}, _env):")
            self.emit(depth + 2, "for _k, _v in _env.items():")
            self.emit(depth + 3, "e[SL[_k]] = _v")
            self.emit(depth + 2, "I = E.instructions")
            self.emit(depth + 2, "cy = E.native_cycles")
            self.emit(depth + 2, f"_t{n} = 1")
            self.emit(depth, f"if not _t{n}:")
            depth += 1
        else:
            # the fast path only declines this loop: call it just so
            # telemetry counts the decline reason, as the tree walker does
            self.emit(depth, "if FP and TEL is not None:")
            self.emit(depth + 1, f"TRY(E, {loop_ref}, _r{n}, {{}})")

        self.emit(depth, "if TEL is not None:")
        self.emit(depth + 1, f'_p{n} = TEL.begin("interpreter_loop")')
        before = set(self.defined)
        self.emit(depth, f"for _i{n} in _r{n}:")
        self.emit(depth + 1, f"{self.write(loop.var)} = _i{n}")
        self.run_cycles.append(self.costs.loop_iteration)
        self.block(loop.body, depth + 1)
        self.emit(depth, "if TEL is not None:")
        self.emit(depth + 1, f'TEL.end("interpreter_loop", _p{n})')
        # zero-trip rule: body definitions (and the induction variable)
        # are not definite after the loop
        self.defined = before

    # -- assembly ------------------------------------------------------
    #: prologue binding per conditional helper name
    _BINDINGS = {
        "st": "st = san.stats",
        "P": "P = E.protection_counts",
        "mem": "_sp = san.space; mem = _sp._mem; TS = _sp._size",
        "RES": "RES = san.resolve_address",
        "CR": "CR = san.check_region",
        "CA": "CA = san.check_access",
        "CC": "CC = san.check_cached",
        "MKC": "MKC = san.make_cache",
        "CACHES": "CACHES = E.caches",
        "MAL": "MAL = san.malloc",
        "FR": "FR = san.free",
        "DG": "DG = san.define_global",
        "CALLF": "CALLF = E._call_by_name",
        "FP": "FP = E.fastpath",
        "TEL": "TEL = E.telemetry",
        "SL": None,  # namespace constant (the slot map), not a binding
    }

    def build(self) -> CompiledFunction:
        param_slots = self.emit_function()
        return CompiledFunction(
            function=self.fn,
            key=(self.costs, self.needs_resolve, self.stage_key),
            closure=self.define("_cf", f"<compiled:{self.fn.name}>"),
            n_slots=len(self.slots),
            param_slots=param_slots,
        )

    def emit_function(self) -> List[int]:
        """Emit the closure ``_cf(E, e)`` into :attr:`lines`; returns
        the parameters' slots."""
        function = self.fn
        self.defined.update(function.params)
        param_slots = [self.slot(p) for p in function.params]
        stack_buffers = function.stack_buffers()
        for sb in stack_buffers:
            self.defined.add(sb.dst)

        self.block(function.body, 2)
        body_lines = self.lines
        self.lines = []

        self.emit(0, "def _cf(E, e):")
        self.emit(1, "san = E.san")
        self.emit(1, "I = E.instructions")
        self.emit(1, "cy = E.native_cycles")
        self.emit(1, "M = E.max_instructions")
        for name in sorted(self.used):
            binding = self._BINDINGS[name]
            if binding:
                self.emit(1, binding)
        for name, expression in sorted(self.stage_bindings.items()):
            self.emit(1, f"{name} = {expression}")
        for count in (*self.hits.values(), *self.classified.values()):
            self.emit(1, f"{count} = 0")
        if "SL" in self.used:
            self.ns["SL"] = self.slots
        if stack_buffers:
            sizes = ", ".join(str(sb.size) for sb in stack_buffers)
            names = ", ".join(repr(sb.dst) for sb in stack_buffers)
            self.emit(1, f"_fr = san.push_frame([{sizes}], [{names}])")
            self.emit(1, "_fv = _fr.variables")
            for position, sb in enumerate(stack_buffers):
                self.emit(1, f"e[{self.slot(sb.dst)}] = _fv[{position}].base")
            self.emit(1, f"cy += {self.costs.stack_frame!r}")
        self.emit(1, "try:")
        self.lines.extend(body_lines)
        self.emit(2, "return None")
        self.emit(1, "finally:")
        self.emit(2, "E.instructions = I")
        self.emit(2, "E.native_cycles = cy")
        for stage, hits in self.hits.items():
            self.emit(2, f"if {hits}:")
            for name, amount in stage.counts:
                if amount == 1 and type(amount) is int:
                    self.emit(3, f"st.{name} += {hits}")
                else:
                    self.emit(3, f"st.{name} += {amount!r} * {hits}")
            if stage.protection is not None:
                self.emit(3, f"P[{stage.protection!r}] += {hits}")
        for category, count in self.classified.items():
            self.emit(2, f"if {count}:")
            self.emit(3, f"P[{category!r}] += {count}")
        if stack_buffers:
            self.emit(2, "san.pop_frame()")
        return param_slots


class _SuperblockEmitter(_Emitter):
    """Lowers the body of one planned loop to a per-element runner.

    The runner ``_superblock(env, values, mem)`` keeps variables in
    locals.  It loads each variable read before any write (a *preload*)
    from ``env``, runs the body's assignments, loads and stores once per
    induction value, and writes every assigned variable back to ``env``.
    Compute and check instructions lower to nothing: the fast path
    charges them and folds the checks before the runner starts.
    """

    def __init__(self, loop: Loop):
        super().__init__(None, None, False)
        self.loop = loop
        self.written = {loop.var}
        self.preload: List[str] = []

    def read(self, name: str) -> str:
        if name not in self.written and name not in self.preload:
            self.preload.append(name)
        return f"v{self.slot(name)}"

    def write(self, name: str) -> str:
        self.written.add(name)
        return f"v{self.slot(name)}"

    def binop(self, node: BinOp) -> str:
        # A superblock must never raise after its first store, so a
        # shift amount must be a non-negative constant (the tree walker
        # and compiled functions run the other shifts).
        if node.op in ("<<", ">>") and not (
            type(node.right) is Const and node.right.value >= 0
        ):
            raise _Uncompilable("non-constant shift")
        return super().binop(node)

    def instr(self, instr, depth: int) -> None:
        kind = type(instr)
        if kind is Assign:
            code = self.expr(instr.expr)
            self.emit(depth, f"{self.write(instr.dst)} = {code}")
        elif kind is Load:
            code = self.load_text(instr.width, self.address(instr))
            self.emit(depth, f"{self.write(instr.dst)} = {code}")
        elif kind is Store:
            address = self.address(instr)
            value = self.expr(instr.value)
            self.emit(depth, self.store_text(instr.width, address, value))
        elif kind is CheckAccess or kind is CheckRegion:
            self.read(instr.base)  # the fold reads the base from env
        elif kind is not Compute:
            raise _Uncompilable(f"instruction {kind.__name__}")

    def build(self) -> str:
        """The runner's source."""
        induction = self.write(self.loop.var)
        self.block(self.loop.body, 2)
        body_lines = self.lines
        self.lines = []
        self.emit(0, "def _superblock(env, values, mem):")
        for name in self.preload:
            self.emit(1, f"v{self.slot(name)} = env[{name!r}]")
        self.emit(1, f"for {induction} in values:")
        self.lines.extend(body_lines)
        if not body_lines:
            self.emit(2, "pass")
        for name in sorted(self.written):
            self.emit(1, f"env[{name!r}] = v{self.slot(name)}")
        return "\n".join(self.lines)


def _summand(assign: Assign) -> Optional[Expr]:
    """``e`` when ``assign`` is ``x = x + e`` or ``x = e + x``."""
    node = assign.expr
    if type(node) is BinOp and node.op == "+":
        for mine, other in ((node.left, node.right), (node.right, node.left)):
            if type(mine) is Var and mine.name == assign.dst:
                return other
    return None


class _BulkEmitter(_SuperblockEmitter):
    """Lowers an eligible planned loop body to a slice kernel.

    The kernel ``_superblock(env, values, mem)`` returns True once it
    has run every iteration as slices, or False, having changed
    nothing, when a store shares a byte with another memory site on
    this entry (:func:`_overlap`).  A body is eligible when

    * the host is little-endian, every Load/Store width has a native
      item code and every Load/Store coefficient is a non-zero multiple
      of its width, so each site is one stepped slice;
    * no variable is assigned twice in one iteration;
    * every loop-carried variable is a sum reduction ``x = x + e`` whose
      ``x`` is read nowhere else in the body.

    A Load or Assign destination then holds one value per iteration (a
    *sequence*: the load's slice or a list), or one loop-invariant
    scalar.  Stores run after every value is computed, so each load
    reads what the per-element runner reads, and the kernel cannot
    raise: the runner's operators are total and its shifts constant.
    """

    def __init__(self, loop: Loop, coefficients: Sequence[int]):
        super().__init__(loop)
        self.slot(loop.var)  # v0, as in the per-element runner
        self.coefficients = iter(coefficients)
        self.assigned = assigned_vars(loop.body)
        #: variable -> the text of its per-iteration sequence
        self.sequences: Dict[str, str] = {loop.var: "values"}
        self.sums: set = set()
        #: sequence variables read by the expression being lowered
        self.refs: Optional[Dict[str, None]] = None
        self.addresses: List[str] = []  # first address of each site
        self.sites: List[str] = []  # each site's _overlap tuple
        self.stores: List[str] = []  # slice assignments, run last

    def read(self, name: str) -> str:
        if name in self.sums or (
            name in self.assigned and name not in self.written
        ):
            raise _Uncompilable(f"loop-carried read of {name!r}")
        if self.refs is not None and name in self.sequences:
            self.refs[name] = None
        return super().read(name)

    def write(self, name: str) -> str:
        if name in self.written:
            raise _Uncompilable(f"{name!r} assigned twice")
        return super().write(name)

    def each(self, node: Expr) -> Tuple[str, List[str]]:
        """``node``'s text for one iteration and the sequences it reads."""
        self.refs = {}
        text = self.expr(node)
        refs, self.refs = list(self.refs), None
        return text, refs

    def listed(self, text: str, refs: List[str]) -> str:
        """A comprehension: ``text`` for each iteration over ``refs``."""
        targets = ", ".join(f"v{self.slot(name)}" for name in refs)
        sources = ", ".join(self.sequences[name] for name in refs)
        if len(refs) > 1:
            sources = f"zip({sources})"
        return f"[{text} for {targets} in {sources}]"

    def site(self, instr) -> str:
        """Record one Load/Store site; the text of its stepped slice."""
        coefficient = next(self.coefficients)
        width = instr.width
        code = _ITEM_CODES.get(width)
        if code is None or not coefficient or coefficient % width:
            raise _Uncompilable("memory site is not a stepped slice")
        index = len(self.sites)
        step = f"{coefficient} * _st"
        self.addresses.append(f"_a{index} = {self.address(instr)}")
        is_store = type(instr) is Store
        self.sites.append(f"(_a{index}, {step}, {width}, {is_store})")
        return f"_V(_M, _a{index}, {step}, _n, {width}, {code!r})"

    def instr(self, instr, depth: int) -> None:
        kind = type(instr)
        if kind is Assign:
            summand = _summand(instr)
            if summand is not None:
                self.reduction(instr.dst, summand, depth)
                return
            text, refs = self.each(instr.expr)
            target = self.write(instr.dst)
            if not refs:
                self.emit(depth, f"{target} = {text}")
            else:
                sequence = f"S{self.slot(instr.dst)}"
                self.emit(depth, f"{sequence} = {self.listed(text, refs)}")
                self.sequences[instr.dst] = sequence
        elif kind is Load:
            view = self.site(instr)
            sequence = f"S{self.slot(instr.dst)}"
            self.write(instr.dst)
            self.emit(depth, f"{sequence} = {view}")
            self.sequences[instr.dst] = sequence
        elif kind is Store:
            view = self.site(instr)
            text, refs = self.each(instr.value)
            masked = f"({text}) & {_MASK_BY_WIDTH[instr.width]}"
            code = _ITEM_CODES[instr.width]
            if refs:
                values = f"_P({code!r}, {self.listed(masked, refs)})"
            else:
                values = f"_P({code!r}, [{masked}] * _n)"
            name = f"_w{len(self.stores)}"
            self.emit(depth, f"{name} = {values}")
            self.stores.append(f"{view}[:] = {name}")
        else:
            super().instr(instr, depth)

    def reduction(self, name: str, operand: Expr, depth: int) -> None:
        """``name = name + operand`` as one sum over the iterations."""
        total = _SuperblockEmitter.read(self, name)  # the initial sum
        text, refs = self.each(operand)
        if not refs:
            summed = f"({text}) * _n"
        elif type(operand) is Var:
            summed = f"sum({self.sequences[operand.name]})"
        else:
            summed = f"sum({self.listed(text, refs)})"
        self.write(name)
        self.emit(depth, f"{total} = {total} + {summed}")
        self.sums.add(name)

    def build(self) -> str:
        """The kernel's source."""
        if sys.byteorder != "little":
            raise _Uncompilable("the codecs are little-endian")
        self.block(self.loop.body, 1)
        body_lines = self.lines
        self.lines = []
        self.emit(0, "def _superblock(env, values, mem):")
        for name in self.preload:
            self.emit(1, f"v{self.slot(name)} = env[{name!r}]")
        self.emit(1, "_n = len(values)")
        self.emit(1, "_st = values.step")
        self.emit(1, f"v{self.slot(self.loop.var)} = values[0]")
        for line in self.addresses:
            self.emit(1, line)
        if self.stores:
            self.emit(1, f"if _OV(_n, ({', '.join(self.sites)},)):")
            self.emit(2, "return False")
        if self.sites:
            self.emit(1, "_M = memoryview(mem)")
        self.lines.extend(body_lines)
        for name in sorted(self.written):
            sequence = self.sequences.get(name)
            if sequence is None:
                self.emit(1, f"env[{name!r}] = v{self.slot(name)}")
            else:
                self.emit(1, f"env[{name!r}] = {sequence}[-1]")
        for line in self.stores:
            self.emit(1, line)
        self.emit(1, "return True")
        return "\n".join(self.lines)


@lru_cache(maxsize=128)
def superblock_function(source: str) -> Callable:
    """The ``_superblock`` function ``source`` defines, compiled at most
    once while it stays among the 128 most recently used.

    A superblock's namespace is :data:`_SHARED_NS` alone, so equal text
    is an equal function: the fuzz driver's tools mostly plan identical
    bodies (checks lower to nothing), and table2 repeats each body
    across tools and runs.  The cache holds functions, no IR."""
    defined: Dict[str, Callable] = {}
    code = compile(source, "<superblock>", "exec")
    exec(code, _SHARED_NS, defined)  # noqa: S102
    return defined["_superblock"]


class Superblock:
    """The lowered body of one planned loop.

    ``kernel`` is the slice kernel, or None when the body keeps the
    per-element runner; ``source`` is the per-element runner's text,
    compiled on first need (a body with a kernel may never need it).
    """

    __slots__ = ("kernel", "source", "_runner")

    def __init__(self, kernel: Optional[Callable], source: str):
        self.kernel = kernel
        self.source = source
        self._runner: Optional[Callable] = None

    def run(self, env: Dict[str, int], values: range, mem) -> bool:
        """Run the body for each induction value; True when it ran as
        slices."""
        kernel = self.kernel
        if kernel is not None and kernel(env, values, mem):
            return True
        runner = self._runner
        if runner is None:
            runner = self._runner = superblock_function(self.source)
        runner(env, values, mem)
        return False


def compile_superblock(
    loop: Loop, coefficients: Sequence[int]
) -> Optional[Tuple[Superblock, List[str]]]:
    """The lowered body and preload list of a planned loop, given the
    induction coefficient of each Load and Store in body order; None
    when the body does not lower (an operator a runner cannot run
    without raising)."""
    element = _SuperblockEmitter(loop)
    try:
        source = element.build()
    except _Uncompilable:
        return None
    try:
        kernel = superblock_function(_BulkEmitter(loop, coefficients).build())
    except _Uncompilable:
        kernel = None
    return Superblock(kernel, source), element.preload


def compile_function(
    function: Function,
    costs: NativeCosts,
    needs_resolve: bool,
    stages: Sequence[FirstStage] = (),
) -> Optional[CompiledFunction]:
    """Lower one function; None when it keeps tree-walker semantics."""
    try:
        return _Emitter(function, costs, needs_resolve, stages).build()
    except _Uncompilable:
        return None


def compile_program(
    program: Program,
    costs: NativeCosts,
    needs_resolve: bool,
    stages: Tuple[FirstStage, ...] = (),
) -> Dict[str, CompiledFunction]:
    """Compiled closures for every compilable function of ``program``,
    with the first stages ``stages`` inlined at their check sites.

    Results are memoized on the Program object keyed by everything the
    generated source bakes in; ``NativeCosts`` is frozen/hashable so it
    keys directly.
    """
    tables = getattr(program, _TABLE_ATTR, None)
    if tables is None:
        tables = {}
        setattr(program, _TABLE_ATTR, tables)
    key = (costs, needs_resolve, stages)
    table = tables.get(key)
    if table is None:
        table = {}
        for name, function in program.functions.items():
            compiled = compile_function(function, *key)
            if compiled is not None:
                table[name] = compiled
        tables[key] = table
    return table


def _block_work(block: Sequence) -> int:
    """The static work of ``block`` (see :func:`work_estimate`)."""
    work = 0
    for instr in block:
        work += 1
        kind = type(instr)
        if kind is Loop:
            body = _block_work(instr.body)
            start, end, step = instr.start, instr.end, instr.step
            if type(start) is Const and type(end) is Const and step:
                # the trip count of the tree walker's range
                if instr.reverse:
                    trips = range(end.value - step, start.value - 1, -step)
                else:
                    trips = range(start.value, end.value, step)
                body *= len(trips)
            work += body
        elif kind is If:
            work += max(_block_work(instr.then), _block_work(instr.orelse))
    return work


def work_estimate(function: Function) -> int:
    """The static work of ``function``'s body: one unit per instruction,
    a loop's body times its trip count where both bounds are constants
    and once otherwise, an ``If``'s larger branch, and no callee's body.

    Memoized on the function, whose program's closure tables hold its
    closures (an attribute, not a table on the program, keeps the many
    short runs that never compile from growing a dict each).
    """
    work = getattr(function, _WORK_ATTR, None)
    if work is None:
        work = _block_work(function.body)
        setattr(function, _WORK_ATTR, work)
    return work


class CompiledEngine(Interpreter):
    """Interpreter variant that runs pre-lowered closures where possible.

    Subclassing keeps full interop: uncompilable functions execute
    through the inherited tree-walker, calls cross the boundary in both
    directions, and the superblock fast path sees the same attribute
    surface (``instructions``, ``native_cycles``, ``_eval``, …) it
    expects from the reference interpreter.

    A run tree-walks until its program has a closure table: one compiled
    by an earlier run, or compiled by this run at a call boundary that
    reaches :data:`COMPILE_AFTER_INSTRUCTIONS`, at a call's entry by the
    instructions executed plus the callee's :func:`work_estimate`, at a
    return by the instructions executed.  A frame that started on the
    tree-walker keeps tree-walking until it returns.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: the running program's closures; None while it tree-walks
        self._table: Optional[Dict[str, CompiledFunction]] = None
        #: this run's closure table key, taken when first needed
        self._key: Optional[tuple] = None

    def table_key(self) -> tuple:
        """The key of the closure table this engine runs: the costs,
        address resolution, and the sanitizer's inlinable first stages
        (:meth:`~repro.sanitizers.base.Sanitizer.inline_stages`).
        ``compile_program(program, *engine.table_key())`` compiles it."""
        return (self.costs, self._needs_resolve, self.san.inline_stages())

    def _closures(
        self, callee: Optional[Function] = None
    ) -> Optional[Dict[str, CompiledFunction]]:
        """The program's closure table, compiled now if this run is long:
        it has executed :data:`COMPILE_AFTER_INSTRUCTIONS`, or entering
        ``callee`` carries it there by the callee's :func:`work_estimate`."""
        program = self._program
        tables = getattr(program, _TABLE_ATTR, None)
        table = None
        # a short run of a program never compiled needs no key
        if tables is not None:
            if self._key is None:
                self._key = self.table_key()
            table = tables.get(self._key)
        if table is None:
            due = self.instructions
            if callee is not None and due < COMPILE_AFTER_INSTRUCTIONS:
                due += work_estimate(callee)
            if due >= COMPILE_AFTER_INSTRUCTIONS:
                if self._key is None:
                    self._key = self.table_key()
                table = compile_program(program, *self._key)
        self._table = table
        return table

    # -- dispatch ------------------------------------------------------
    def _call_function(self, function, args):
        table = self._table
        if table is None:
            table = self._closures(function)
            if table is None:
                value = super()._call_function(function, args)
                self._closures()
                return value
        compiled = table.get(function.name)
        if compiled is None:
            return super()._call_function(function, args)
        if len(args) != compiled.n_params:
            raise TypeError(
                f"{function.name} expects {compiled.n_params} args, "
                f"got {len(args)}"
            )
        env = [None] * compiled.n_slots
        for slot, value in zip(compiled.param_slots, args):
            env[slot] = value
        return compiled.closure(self, env)

    def _call_by_name(self, name: str, values: List[int]):
        return self._call_function(self._functions[name], values)
