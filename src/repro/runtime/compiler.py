"""Compile-to-closures execution engine.

The tree-walking :class:`~repro.runtime.interpreter.Interpreter` pays a
``type(instr)`` dispatch and a recursive ``Expr`` walk for every executed
instruction; across a Table 2 sweep that dispatch — not the sanitizer
checks being studied — dominates wall-clock.  This module removes it the
same way the superblock fast path removes per-iteration dispatch for
eligible loops, but for *whole functions*: a one-time compile pass walks
each instrumented function's IR once and lowers it to a flat Python
function over a slot-indexed environment (a plain list), with real Python
control flow standing in for ``Loop``/``If`` nodes and every expression
pre-flattened to straight-line source.  The hot path then runs compiled
bytecode with zero per-instruction pattern matching.

Observable equivalence is the contract: native-cycle accounting (same
additions in the same order), instruction counting and the budget check,
CheckStats and the Figure 10 classification, telemetry counters,
error logs, and hardware-fault fallback semantics all match the
tree-walker bit for bit.  The differential suite in
``tests/test_engine_differential.py`` enforces this over the fuzz corpus
and the Table 2 kernels.

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

The superblock fast path still engages from compiled code: loop headers
flush the local counters, hand :func:`repro.runtime.fastpath.try_execute`
a dict view of the live slots, and sync the slots back on success, so
the fast path and the compiled engine compose.

:meth:`repro.runtime.session.Session.run` runs a memoized program on
this engine once its last run was long (``COMPILE_AFTER_INSTRUCTIONS``);
the tree-walker runs everything else and remains the reference.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

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
from . import fastpath as _fastpath
from .cost_model import NativeCosts
from .interpreter import BudgetExceeded, Interpreter
from .intrinsics import guarded_memcpy, guarded_memset, guarded_strcpy

#: Attribute on :class:`~repro.ir.program.Program` memoizing compiled
#: tables, keyed by (costs, needs_resolve, telemetry_on).  Instrumented
#: programs shared through the instrumentation memo cache therefore
#: compile once per process, like fastpath loop plans.
_TABLE_ATTR = "_closure_tables"


class _Uncompilable(Exception):
    """Internal signal: this function keeps tree-walker semantics."""


# ----------------------------------------------------------------------
# expression lowering
# ----------------------------------------------------------------------
# The superblock code generator's table: the tree-walker's _ARITH
# surface, with ``//`` and ``%`` returning 0 on a zero divisor.  Negative
# shift amounts raise ValueError in both engines (plain Python
# semantics), so shifts need no fastpath-style constant restriction here.
_BIN_TEMPLATES = _fastpath._BIN_TEMPLATES

_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")

#: Namespace shared by every compiled function.
_SHARED_NS: Dict[str, object] = {
    "_div": _fastpath._div,
    "_mod": _fastpath._mod,
    "TRY": _fastpath.try_execute,
    "GMS": guarded_memset,
    "GMC": guarded_memcpy,
    "GSC": guarded_strcpy,
}
for _width, _codec in CODEC_BY_WIDTH.items():
    _SHARED_NS[f"U{_width}"] = _codec.unpack_from
    _SHARED_NS[f"K{_width}"] = _codec.pack_into


def _budget_exceeded(limit: int) -> BudgetExceeded:
    return BudgetExceeded(f"exceeded {limit} executed instructions")


_SHARED_NS["_BE"] = _budget_exceeded


class CompiledFunction:
    """One lowered function: the closure plus its slot layout."""

    __slots__ = ("name", "closure", "n_slots", "param_slots", "n_params", "source")

    def __init__(self, name, closure, n_slots, param_slots, source):
        self.name = name
        self.closure = closure
        self.n_slots = n_slots
        self.param_slots = param_slots
        self.n_params = len(param_slots)
        self.source = source


class _Emitter:
    """Lowers one :class:`Function` to Python source and compiles it."""

    def __init__(
        self,
        function: Function,
        costs: NativeCosts,
        needs_resolve: bool,
        telemetry_on: bool,
    ):
        self.fn = function
        self.costs = costs
        self.needs_resolve = needs_resolve
        self.telemetry_on = telemetry_on
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

    # -- expressions ---------------------------------------------------
    def expr(self, node: Expr) -> str:
        kind = type(node)
        if kind is Const:
            return repr(node.value)
        if kind is Var:
            if node.name not in self.defined:
                raise _Uncompilable(f"may-undefined read of {node.name!r}")
            return f"e[{self.slot(node.name)}]"
        if kind is BinOp:
            template = _BIN_TEMPLATES.get(node.op)
            if template is None:
                raise _Uncompilable(f"operator {node.op!r}")
            return template.format(self.expr(node.left), self.expr(node.right))
        raise _Uncompilable(f"expression {kind.__name__}")

    def cond(self, node: Expr) -> str:
        """Like :meth:`expr` but may skip the int() wrap for a top-level
        comparison: only the truthiness is consumed."""
        if type(node) is BinOp and node.op in _COMPARISONS:
            return "({} {} {})".format(
                self.expr(node.left), node.op, self.expr(node.right)
            )
        return self.expr(node)

    # -- instruction lowering ------------------------------------------
    def block(self, instrs: List, depth: int) -> None:
        if not instrs:
            self.emit(depth, "pass")
            return
        for instr in instrs:
            self.instr(instr, depth)

    def _budget(self, depth: int) -> None:
        self.emit(depth, "I += 1")
        self.emit(depth, "if I > M: raise _BE(M)")

    def _classify(self, protection: Protection, depth: int) -> None:
        if protection is Protection.DIRECT:
            return  # classified at the check instruction
        self.used.add("P")
        self.emit(depth, f"P[{protection.value!r}] += 1")

    def _check_classify(self, depth: int) -> None:
        self.used.update(("P", "st"))
        self.emit(depth, "if st.fast_checks > _fb:")
        self.emit(depth + 1, 'P["fast_only"] += 1')
        self.emit(depth, "else:")
        self.emit(depth + 1, 'P["full_check"] += 1')

    def instr(self, instr, depth: int) -> None:
        kind = type(instr)
        self._budget(depth)
        costs = self.costs

        if kind is Compute:
            self.emit(depth, f"cy += {instr.cycles!r}")
        elif kind is Assign:
            code = self.expr(instr.expr)
            self.defined.add(instr.dst)
            self.emit(depth, f"e[{self.slot(instr.dst)}] = {code}")
            self.emit(depth, f"cy += {costs.arith!r}")
        elif kind is Load or kind is Store:
            if instr.width not in CODEC_BY_WIDTH:
                raise _Uncompilable(f"width {instr.width}")
            self.used.add("mem")
            address = f"e[{self.slot(instr.base)}] + {self.expr(instr.offset)}"
            if instr.base not in self.defined:
                raise _Uncompilable(f"may-undefined read of {instr.base!r}")
            self.emit(depth, f"_a = {address}")
            if self.needs_resolve:
                self.used.add("RES")
                self.emit(depth, "_a = RES(_a)")
            width = instr.width
            self.emit(depth, f"if 0 <= _a and _a + {width} <= TS:")
            if kind is Load:
                self.emit(depth + 1, f"_v = U{width}(mem, _a)[0]")
                self.emit(depth, "else:")
                self.emit(depth + 1, "_v = 0")
                self.emit(depth + 1, "E.hardware_faults += 1")
                self.defined.add(instr.dst)
                self.emit(depth, f"e[{self.slot(instr.dst)}] = _v")
            else:
                value = self.expr(instr.value)
                mask = _MASK_BY_WIDTH[width]
                self.emit(depth + 1, f"K{width}(mem, _a, ({value}) & {mask})")
                self.emit(depth, "else:")
                self.emit(depth + 1, "E.hardware_faults += 1")
            self.emit(depth, f"cy += {costs.memory_access!r}")
            self._classify(instr.protection, depth)
        elif kind is Loop:
            self._loop(instr, depth)
        elif kind is If:
            self.emit(depth, f"cy += {costs.branch!r}")
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
            if instr.base not in self.defined:
                raise _Uncompilable(f"may-undefined read of {instr.base!r}")
            self.used.update(("CR", "st"))
            self.emit(depth, f"_b = e[{self.slot(instr.base)}]")
            anchor = "_b" if instr.use_anchor else "None"
            self.emit(depth, "_fb = st.fast_checks")
            self.emit(
                depth,
                f"CR(_b + {self.expr(instr.start)}, _b + {self.expr(instr.end)}, "
                f"{self.const(instr.access, 'A')}, anchor={anchor})",
            )
            self._check_classify(depth)
        elif kind is CheckAccess:
            if instr.base not in self.defined:
                raise _Uncompilable(f"may-undefined read of {instr.base!r}")
            self.used.update(("CA", "st"))
            self.emit(depth, "_fb = st.fast_checks")
            self.emit(
                depth,
                f"CA(e[{self.slot(instr.base)}] + {self.expr(instr.offset)}, "
                f"{instr.width}, {self.const(instr.access, 'A')})",
            )
            self._check_classify(depth)
        elif kind is CheckCached:
            if instr.base not in self.defined:
                raise _Uncompilable(f"may-undefined read of {instr.base!r}")
            self.used.update(("CACHES", "MKC", "CC"))
            cid = instr.cache_id
            self.emit(depth, f"_c = CACHES.get({cid})")
            self.emit(depth, "if _c is None:")
            self.emit(depth + 1, "_c = MKC()")
            self.emit(depth + 1, f"CACHES[{cid}] = _c")
            call = (
                f"CC(_c, e[{self.slot(instr.base)}], {self.expr(instr.offset)}, "
                f"{instr.width}, {self.const(instr.access, 'A')})"
            )
            if not self.telemetry_on:
                self.emit(depth, call)
            else:
                self.used.add("TEL")
                self.emit(depth, "_ub = _c.ub")
                self.emit(depth, call)
                self.emit(depth, "if _c.ub > _ub:")
                self.emit(depth + 1, f"TEL.note_convergence({cid})")
        elif kind is CacheFinalize:
            if instr.base not in self.defined:
                raise _Uncompilable(f"may-undefined read of {instr.base!r}")
            self.used.update(("CACHES", "CR"))
            self.emit(depth, f"_c = CACHES.get({instr.cache_id})")
            self.emit(depth, "if _c is not None and _c.ub > 0:")
            self.emit(depth + 1, f"_b = e[{self.slot(instr.base)}]")
            self.emit(
                depth + 1,
                f"CR(_b, _b + _c.ub, {self.const(instr.access, 'A')}, anchor=_b)",
            )
            self.emit(depth + 1, "_c.reset()")
        elif kind is Malloc:
            self.used.add("MAL")
            code = self.expr(instr.size)
            self.defined.add(instr.dst)
            self.emit(depth, f"e[{self.slot(instr.dst)}] = MAL({code}).base")
            self.emit(depth, f"cy += {costs.malloc!r}")
        elif kind is GlobalAlloc:
            self.used.add("DG")
            self.defined.add(instr.dst)
            self.emit(
                depth,
                f"e[{self.slot(instr.dst)}] = "
                f"DG({instr.dst!r}, {instr.size}).base",
            )
        elif kind is Free:
            if instr.ptr not in self.defined:
                raise _Uncompilable(f"may-undefined read of {instr.ptr!r}")
            self.used.add("FR")
            self.emit(depth, f"FR(e[{self.slot(instr.ptr)}])")
            self.emit(depth, f"cy += {costs.free!r}")
        elif kind is PtrAdd:
            if instr.base not in self.defined:
                raise _Uncompilable(f"may-undefined read of {instr.base!r}")
            code = f"e[{self.slot(instr.base)}] + {self.expr(instr.offset)}"
            self.defined.add(instr.dst)
            self.emit(depth, f"e[{self.slot(instr.dst)}] = {code}")
            self.emit(depth, f"cy += {costs.arith!r}")
        elif kind is Memset:
            if instr.base not in self.defined:
                raise _Uncompilable(f"may-undefined read of {instr.base!r}")
            self.emit(depth, f"_b = e[{self.slot(instr.base)}]")
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
            for base in (instr.dst_base, instr.src_base):
                if base not in self.defined:
                    raise _Uncompilable(f"may-undefined read of {base!r}")
            self.emit(depth, f"_db = e[{self.slot(instr.dst_base)}]")
            self.emit(depth, f"_sb = e[{self.slot(instr.src_base)}]")
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
            for base in (instr.dst_base, instr.src_base):
                if base not in self.defined:
                    raise _Uncompilable(f"may-undefined read of {base!r}")
            self.emit(depth, f"_db = e[{self.slot(instr.dst_base)}]")
            self.emit(depth, f"_sb = e[{self.slot(instr.src_base)}]")
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
            self.emit(depth, f"cy += {costs.call!r}")
            self.emit(depth, "E.instructions = I")
            self.emit(depth, "E.native_cycles = cy")
            self.emit(depth, f"_r = CALLF({instr.func!r}, [{args}])")
            self.emit(depth, "I = E.instructions")
            self.emit(depth, "cy = E.native_cycles")
            if instr.dst is not None:
                self.defined.add(instr.dst)
                self.emit(
                    depth,
                    f"e[{self.slot(instr.dst)}] = _r if _r is not None else 0",
                )
        elif kind is Return:
            self.emit(depth, f"cy += {costs.ret!r}")
            if instr.expr is not None:
                self.emit(depth, f"return {self.expr(instr.expr)}")
            else:
                self.emit(depth, "return None")
        elif kind is StackAlloc:
            pass  # materialized at function entry
        else:
            raise _Uncompilable(f"instruction {kind.__name__}")

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

        plan = _fastpath.analyze_loop(loop)
        emit_try = self.telemetry_on or (
            plan is not None and not self.needs_resolve
        )
        if emit_try:
            preload = list(plan.preload) if plan is not None else []
            for name in preload:
                if name not in self.defined:
                    raise _Uncompilable(f"may-undefined read of {name!r}")
            env_literal = ", ".join(
                f"{name!r}: e[{self.slot(name)}]" for name in preload
            )
            self.used.update(("FP", "SL"))
            self.emit(depth, f"_t{n} = 0")
            if self.telemetry_on:
                self.used.update(("TEL", "PROF"))
                self.emit(depth, "if FP:")
                self.emit(depth + 1, '_p0 = PROF.begin("superblock")')
            else:
                # MIN_TRIP_COUNT mirrors try_execute's own early decline;
                # skipping the call entirely is invisible without telemetry.
                self.emit(
                    depth,
                    f"if FP and len(_r{n}) >= {_fastpath.MIN_TRIP_COUNT}:",
                )
            self.emit(depth + 1, "E.instructions = I")
            self.emit(depth + 1, "E.native_cycles = cy")
            self.emit(depth + 1, f"_env = {{{env_literal}}}")
            loop_ref = self.const(loop, "L")
            if self.telemetry_on:
                self.emit(depth + 1, f"_tk = TRY(E, {loop_ref}, _r{n}, _env)")
                self.emit(depth + 1, 'PROF.end("superblock", _p0)')
                self.emit(depth + 1, "if _tk:")
                inner = depth + 2
            else:
                self.emit(depth + 1, f"if TRY(E, {loop_ref}, _r{n}, _env):")
                inner = depth + 2
            self.emit(inner, "for _k, _v in _env.items():")
            self.emit(inner + 1, "e[SL[_k]] = _v")
            self.emit(inner, "I = E.instructions")
            self.emit(inner, "cy = E.native_cycles")
            if self.telemetry_on:
                self.emit(inner, 'TEL.incr("superblock_loops")')
                self.emit(inner, f'TEL.incr("superblock_iterations", len(_r{n}))')
            self.emit(inner, f"_t{n} = 1")
            self.emit(depth, f"if not _t{n}:")
            body_depth = depth + 1
        else:
            body_depth = depth

        if self.telemetry_on:
            self.used.add("PROF")
            self.emit(body_depth, '_p1 = PROF.begin("interpreter_loop")')
        before = set(self.defined)
        self.defined.add(loop.var)
        self.emit(body_depth, f"for _i{n} in _r{n}:")
        self.emit(body_depth + 1, f"e[{self.slot(loop.var)}] = _i{n}")
        self.emit(body_depth + 1, f"cy += {self.costs.loop_iteration!r}")
        self.block(loop.body, body_depth + 1)
        if self.telemetry_on:
            self.emit(body_depth, 'PROF.end("interpreter_loop", _p1)')
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
        "PROF": "PROF = E.telemetry.profiler",
        "SL": None,  # namespace constant (the slot map), not a binding
    }

    def build(self) -> CompiledFunction:
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
        if stack_buffers:
            self.emit(2, "san.pop_frame()")

        source = "\n".join(self.lines)
        namespace = dict(_SHARED_NS)
        namespace.update(self.ns)
        exec(  # noqa: S102 - same trusted codegen pattern as fastpath
            compile(source, f"<compiled:{function.name}>", "exec"), namespace
        )
        return CompiledFunction(
            name=function.name,
            closure=namespace["_cf"],
            n_slots=len(self.slots),
            param_slots=param_slots,
            source=source,
        )


def compile_function(
    function: Function,
    costs: NativeCosts,
    needs_resolve: bool,
    telemetry_on: bool,
) -> Optional[CompiledFunction]:
    """Lower one function; None when it keeps tree-walker semantics."""
    try:
        return _Emitter(function, costs, needs_resolve, telemetry_on).build()
    except _Uncompilable:
        return None


def compile_program(
    program: Program,
    costs: NativeCosts,
    needs_resolve: bool,
    telemetry_on: bool,
) -> Dict[str, CompiledFunction]:
    """Compiled closures for every compilable function of ``program``.

    Results are memoized on the Program object keyed by everything the
    generated source bakes in; ``NativeCosts`` is frozen/hashable so it
    keys directly.
    """
    tables = getattr(program, _TABLE_ATTR, None)
    if tables is None:
        tables = {}
        setattr(program, _TABLE_ATTR, tables)
    key = (costs, needs_resolve, bool(telemetry_on))
    table = tables.get(key)
    if table is None:
        table = {}
        for name, function in program.functions.items():
            compiled = compile_function(
                function, costs, needs_resolve, telemetry_on
            )
            if compiled is not None:
                table[name] = compiled
        tables[key] = table
    return table


class CompiledEngine(Interpreter):
    """Interpreter variant that runs pre-lowered closures where possible.

    Subclassing keeps full interop: uncompilable functions execute
    through the inherited tree-walker, calls cross the boundary in both
    directions, and the superblock fast path sees the same attribute
    surface (``instructions``, ``native_cycles``, ``_eval``, …) it
    expects from the reference interpreter.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._table: Dict[str, CompiledFunction] = {}

    def run(self, iprogram, args=None):
        self._table = compile_program(
            iprogram.program,
            self.costs,
            self._needs_resolve,
            self.telemetry is not None,
        )
        return super().run(iprogram, args)

    # -- dispatch ------------------------------------------------------
    def _call_function(self, function, args):
        compiled = self._table.get(function.name)
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
