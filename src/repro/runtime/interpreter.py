"""Tree-walking interpreter executing instrumented IR under a sanitizer.

Responsibilities:

* evaluate expressions and execute instructions over the sanitizer's
  simulated address space;
* invoke the check instructions the instrumenter inserted, charging the
  sanitizer's event counters;
* accumulate *native* cycles per executed operation (the denominator of
  every overhead ratio);
* classify each dynamic memory access into the Figure 10 categories
  (eliminated / cached / fast-only / full-check).

Each block's loop counts an instruction against the budget, then runs
the handler :data:`_HANDLERS` maps its exact type to, one small method
per instruction kind.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import AccessType, AddressSpaceError, ErrorLog
from ..ir.nodes import (
    Assign,
    BinOp,
    CacheFinalize,
    Call,
    Compute,
    CheckAccess,
    CheckCached,
    CheckElided,
    CheckRegion,
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
from ..passes.instrument import InstrumentedProgram
from ..sanitizers.base import AccessCache, CheckStats, Sanitizer
from . import fastpath as _fastpath
from .cost_model import CostModel, DEFAULT_COST_MODEL, NativeCosts
from .intrinsics import guarded_memcpy, guarded_memset, guarded_strcpy

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: a // b if b else 0,
    "%": lambda a, b: a % b if b else 0,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
}


#: DIRECT accesses are classified at their check instruction; compared
#: by identity, so the walker never hashes a Protection.
_DIRECT = Protection.DIRECT


class _ReturnSignal(Exception):
    """Unwinds a function body on Return."""

    def __init__(self, value: Optional[int]):
        self.value = value


class BudgetExceeded(Exception):
    """Raised when a run exceeds its instruction budget (runaway guard)."""


@dataclass(frozen=True)
class ElisionAuditFailure:
    """A statically elided check whose dynamic replay fired a report.

    Produced only in audit instrumentation mode, where elided checks are
    kept as :class:`~repro.ir.nodes.CheckElided` markers and replayed
    against the shadow oracle.  Any instance means the static elision
    proof was unsound for this execution.
    """

    site_id: int
    reason: str
    report: object  # the first ErrorReport the replay produced


@dataclass
class RunResult:
    """Everything a single execution produced."""

    tool: str
    native_cycles: float
    stats: CheckStats
    errors: ErrorLog
    protection_counts: Counter = field(default_factory=Counter)
    return_value: Optional[int] = None
    instructions_executed: int = 0
    elision_audit_failures: List[ElisionAuditFailure] = field(
        default_factory=list
    )
    #: :class:`repro.telemetry.TelemetrySnapshot` when the session ran
    #: with telemetry enabled; None otherwise.
    telemetry: Optional[object] = None

    def total_cycles(self, model: CostModel = DEFAULT_COST_MODEL) -> float:
        return model.total_cycles(self.native_cycles, self.stats)

    def overhead_ratio(self, model: CostModel = DEFAULT_COST_MODEL) -> float:
        return model.overhead_ratio(self.native_cycles, self.stats)


class Interpreter:
    """Executes one instrumented program against one sanitizer."""

    def __init__(
        self,
        sanitizer: Sanitizer,
        native_costs: NativeCosts = NativeCosts(),
        max_instructions: int = 50_000_000,
        fastpath: bool = True,
    ):
        self.san = sanitizer
        # only tag-based tools need address resolution before raw access
        self._needs_resolve = (
            type(sanitizer).resolve_address is not Sanitizer.resolve_address
        )
        self.costs = native_costs
        self.max_instructions = max_instructions
        #: Superblock fast path (see :mod:`repro.runtime.fastpath`).
        self.fastpath = fastpath
        #: The sanitizer's telemetry registry
        #: (:class:`repro.telemetry.Telemetry`, set by its ``attach``) or
        #: None; gated per loop execution / cached-check site, never per
        #: instruction, so the disabled path stays at reference speed.
        self.telemetry = sanitizer.telemetry
        self.native_cycles = 0.0
        self.instructions = 0
        self.hardware_faults = 0
        self.caches: Dict[int, AccessCache] = {}
        self.protection_counts: Counter = Counter()
        self.elision_failures: List[ElisionAuditFailure] = []
        self._program: Optional[Program] = None
        self._functions: Dict[str, Function] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        iprogram: InstrumentedProgram,
        args: Optional[List[int]] = None,
    ) -> RunResult:
        """Execute the entry function with integer ``args``."""
        program = iprogram.program
        self._program = program
        self._functions = program.functions
        entry = program.function(program.entry)
        tele = self.telemetry
        if tele is None:
            value = self._call_function(entry, list(args or []))
        else:
            started = tele.begin("run")
            try:
                value = self._call_function(entry, list(args or []))
            finally:
                tele.end("run", started)
        return RunResult(
            tool=self.san.name,
            native_cycles=self.native_cycles,
            stats=self.san.stats,
            errors=self.san.log,
            protection_counts=self.protection_counts,
            return_value=value,
            instructions_executed=self.instructions,
            elision_audit_failures=self.elision_failures,
            telemetry=None if tele is None else tele.snapshot(self.san),
        )

    # ------------------------------------------------------------------
    # function invocation
    # ------------------------------------------------------------------
    def _call_function(self, function: Function, args: List[int]) -> Optional[int]:
        if len(args) != len(function.params):
            raise TypeError(
                f"{function.name} expects {len(function.params)} args, "
                f"got {len(args)}"
            )
        env: Dict[str, int] = dict(zip(function.params, args))
        stack_buffers = function.stack_buffers()
        frame = None
        if stack_buffers:
            frame = self.san.push_frame(
                [sb.size for sb in stack_buffers],
                [sb.dst for sb in stack_buffers],
            )
            for variable in frame.variables:
                env[variable.name] = variable.base
            self.native_cycles += self.costs.stack_frame
        try:
            self._exec_block(function.body, env)
            return None
        except _ReturnSignal as signal:
            return signal.value
        finally:
            if frame is not None:
                self.san.pop_frame()

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, expr: Expr, env: Dict[str, int]) -> int:
        kind = type(expr)
        if kind is Var:
            try:
                return env[expr.name]
            except KeyError:
                raise NameError(f"undefined variable {expr.name!r}") from None
        if kind is Const:
            return expr.value
        if kind is BinOp:
            return _ARITH[expr.op](
                self._eval(expr.left, env), self._eval(expr.right, env)
            )
        raise TypeError(f"cannot evaluate {expr!r}")

    # ------------------------------------------------------------------
    # instruction execution
    # ------------------------------------------------------------------
    def _exec_block(self, block, env: Dict[str, int]) -> None:
        """Count each instruction against the budget, then run it
        through its :data:`_HANDLERS` entry."""
        handlers = _HANDLERS
        for instr in block:
            self.instructions += 1
            if self.instructions > self.max_instructions:
                raise BudgetExceeded(
                    f"exceeded {self.max_instructions} executed instructions"
                )
            try:
                handler = handlers[type(instr)]
            except KeyError:
                raise TypeError(f"cannot execute {instr!r}") from None
            handler(self, instr, env)

    # One handler per instruction kind, each ``(self, instr, env)``.  A
    # ``Const`` offset is read in place, without an ``_eval`` call.  The
    # Load and Store handlers count an access that is not DIRECT under
    # its Figure 10 category, which is its Protection's value; a DIRECT
    # access is classified at its check instruction.

    def _exec_compute(self, instr: Compute, env: Dict[str, int]) -> None:
        self.native_cycles += instr.cycles

    def _exec_assign(self, instr: Assign, env: Dict[str, int]) -> None:
        env[instr.dst] = self._eval(instr.expr, env)
        self.native_cycles += self.costs.arith

    def _exec_load(self, instr: Load, env: Dict[str, int]) -> None:
        offset = instr.offset
        address = env[instr.base] + (
            offset.value if type(offset) is Const else self._eval(offset, env)
        )
        if self._needs_resolve:
            address = self.san.resolve_address(address)
        try:
            env[instr.dst] = self.san.space.load(address, instr.width)
        except AddressSpaceError:
            # a real program would segfault here; keep running so the
            # evaluation (halt_on_error=false) can finish the workload
            env[instr.dst] = 0
            self.hardware_faults += 1
        self.native_cycles += self.costs.memory_access
        protection = instr.protection
        if protection is not _DIRECT:
            self.protection_counts[protection._value_] += 1

    def _exec_store(self, instr: Store, env: Dict[str, int]) -> None:
        offset = instr.offset
        address = env[instr.base] + (
            offset.value if type(offset) is Const else self._eval(offset, env)
        )
        if self._needs_resolve:
            address = self.san.resolve_address(address)
        try:
            self.san.space.store(
                address, instr.width, self._eval(instr.value, env)
            )
        except AddressSpaceError:
            self.hardware_faults += 1
        self.native_cycles += self.costs.memory_access
        protection = instr.protection
        if protection is not _DIRECT:
            self.protection_counts[protection._value_] += 1

    def _exec_loop_instr(self, instr: Loop, env: Dict[str, int]) -> None:
        # through ``self``: the table holds this class's functions, and
        # an engine may override _exec_loop
        self._exec_loop(instr, env)

    def _exec_if(self, instr: If, env: Dict[str, int]) -> None:
        self.native_cycles += self.costs.branch
        if self._eval(instr.cond, env):
            self._exec_block(instr.then, env)
        else:
            self._exec_block(instr.orelse, env)

    def _exec_check_region(
        self, instr: CheckRegion, env: Dict[str, int]
    ) -> None:
        base = env[instr.base]
        start = base + self._eval(instr.start, env)
        end = base + self._eval(instr.end, env)
        san = self.san
        before_fast = san.stats.fast_checks
        san.check_region(
            start, end, instr.access,
            anchor=base if instr.use_anchor else None,
        )
        if san.stats.fast_checks > before_fast:
            self.protection_counts["fast_only"] += 1
        else:
            self.protection_counts["full_check"] += 1

    def _exec_check_access(
        self, instr: CheckAccess, env: Dict[str, int]
    ) -> None:
        offset = instr.offset
        address = env[instr.base] + (
            offset.value if type(offset) is Const else self._eval(offset, env)
        )
        san = self.san
        before_fast = san.stats.fast_checks
        san.check_access(address, instr.width, instr.access)
        if san.stats.fast_checks > before_fast:
            self.protection_counts["fast_only"] += 1
        else:
            self.protection_counts["full_check"] += 1

    def _exec_check_elided(
        self, instr: CheckElided, env: Dict[str, int]
    ) -> None:
        self._replay_elided(instr, env)

    def _exec_check_cached(
        self, instr: CheckCached, env: Dict[str, int]
    ) -> None:
        cache = self.caches.get(instr.cache_id)
        if cache is None:
            cache = self.san.make_cache()
            self.caches[instr.cache_id] = cache
        # quasi-bound convergence: with telemetry on, count each update
        # that extended this site's cached upper bound (§4.3 claims at
        # most ceil(log2(n/8)) of these per object on forward walks)
        bound_before = cache.ub
        offset = instr.offset
        self.san.check_cached(
            cache,
            env[instr.base],
            offset.value if type(offset) is Const else self._eval(offset, env),
            instr.width,
            instr.access,
        )
        if self.telemetry is not None and cache.ub > bound_before:
            self.telemetry.note_convergence(instr.cache_id)

    def _exec_cache_finalize(
        self, instr: CacheFinalize, env: Dict[str, int]
    ) -> None:
        cache = self.caches.get(instr.cache_id)
        if cache is not None and cache.ub > 0:
            base = env[instr.base]
            self.san.check_region(
                base, base + cache.ub, instr.access, anchor=base
            )
            cache.reset()

    def _exec_malloc(self, instr: Malloc, env: Dict[str, int]) -> None:
        size = self._eval(instr.size, env)
        env[instr.dst] = self.san.malloc(size).base
        self.native_cycles += self.costs.malloc

    def _exec_global_alloc(
        self, instr: GlobalAlloc, env: Dict[str, int]
    ) -> None:
        env[instr.dst] = self.san.define_global(instr.dst, instr.size).base

    def _exec_free(self, instr: Free, env: Dict[str, int]) -> None:
        self.san.free(env[instr.ptr])
        self.native_cycles += self.costs.free

    def _exec_ptr_add(self, instr: PtrAdd, env: Dict[str, int]) -> None:
        offset = instr.offset
        env[instr.dst] = env[instr.base] + (
            offset.value if type(offset) is Const else self._eval(offset, env)
        )
        self.native_cycles += self.costs.arith

    def _exec_memset(self, instr: Memset, env: Dict[str, int]) -> None:
        base = env[instr.base]
        address = base + self._eval(instr.offset, env)
        length = self._eval(instr.length, env)
        guarded_memset(
            self.san, instr.protection, address, length,
            self._eval(instr.byte, env), anchor=base,
        )
        self.native_cycles += self.costs.byte_move * max(length, 0)
        self._classify_access(instr.protection)

    def _exec_memcpy(self, instr: Memcpy, env: Dict[str, int]) -> None:
        dst_base = env[instr.dst_base]
        src_base = env[instr.src_base]
        dst = dst_base + self._eval(instr.dst_offset, env)
        src = src_base + self._eval(instr.src_offset, env)
        length = self._eval(instr.length, env)
        guarded_memcpy(
            self.san, instr.protection, dst, src, length,
            dst_anchor=dst_base, src_anchor=src_base,
        )
        self.native_cycles += self.costs.byte_move * max(length, 0)
        self._classify_access(instr.protection)

    def _exec_strcpy(self, instr: Strcpy, env: Dict[str, int]) -> None:
        dst_base = env[instr.dst_base]
        src_base = env[instr.src_base]
        dst = dst_base + self._eval(instr.dst_offset, env)
        src = src_base + self._eval(instr.src_offset, env)
        copied = guarded_strcpy(
            self.san, instr.protection, dst, src,
            dst_anchor=dst_base, src_anchor=src_base,
        )
        self.native_cycles += self.costs.byte_scan * copied
        self._classify_access(instr.protection)

    def _exec_call(self, instr: Call, env: Dict[str, int]) -> None:
        target = self._functions[instr.func]
        values = [self._eval(a, env) for a in instr.args]
        self.native_cycles += self.costs.call
        result = self._call_function(target, values)
        if instr.dst is not None:
            env[instr.dst] = result if result is not None else 0

    def _exec_return(self, instr: Return, env: Dict[str, int]) -> None:
        self.native_cycles += self.costs.ret
        value = (
            self._eval(instr.expr, env) if instr.expr is not None else None
        )
        raise _ReturnSignal(value)

    def _exec_stack_alloc(
        self, instr: StackAlloc, env: Dict[str, int]
    ) -> None:
        pass  # materialized at function entry

    def _exec_loop(self, loop: Loop, env: Dict[str, int]) -> None:
        start = self._eval(loop.start, env)
        end = self._eval(loop.end, env)
        step = loop.step
        if loop.reverse:
            values = range(end - step, start - 1, -step)
        else:
            values = range(start, end, step)
        if self.fastpath and _fastpath.try_execute(self, loop, values, env):
            return
        tele = self.telemetry
        if tele is not None:
            started = tele.begin("interpreter_loop")
        body = loop.body
        for value in values:
            env[loop.var] = value
            self.native_cycles += self.costs.loop_iteration
            self._exec_block(body, env)
        if tele is not None:
            tele.end("interpreter_loop", started)

    # ------------------------------------------------------------------
    # elision audit replay
    # ------------------------------------------------------------------
    def _replay_elided(self, marker: CheckElided, env: Dict[str, int]) -> None:
        """Replay a statically elided check against the shadow oracle.

        The replay must be invisible: every sanitizer counter and any
        error report it produces are rolled back, so an audited run's
        stats and log match the run where the check was truly deleted.
        A report firing means the static proof was unsound — recorded
        as an :class:`ElisionAuditFailure`.
        """
        inner = marker.inner
        san = self.san
        snapshot = dict(vars(san.stats))
        reports_before = len(san.log.reports)
        halt_before = san.log.halt_on_error
        san.log.halt_on_error = False
        try:
            if type(inner) is CheckRegion:
                base = env[inner.base]
                san.check_region(
                    base + self._eval(inner.start, env),
                    base + self._eval(inner.end, env),
                    inner.access,
                    anchor=base if inner.use_anchor else None,
                )
            elif type(inner) is CheckAccess:
                san.check_access(
                    env[inner.base] + self._eval(inner.offset, env),
                    inner.width,
                    inner.access,
                )
        finally:
            san.log.halt_on_error = halt_before
            fired = san.log.reports[reports_before:]
            del san.log.reports[reports_before:]
            vars(san.stats).update(snapshot)
        if fired:
            self.elision_failures.append(
                ElisionAuditFailure(
                    site_id=inner.site_id,
                    reason=marker.reason,
                    report=fired[0],
                )
            )

    # ------------------------------------------------------------------
    # Figure 10 classification
    # ------------------------------------------------------------------
    def _classify_access(self, protection: Protection) -> None:
        """Count a memory operation under its Figure 10 category, as the
        Load and Store handlers do inline."""
        if protection is not _DIRECT:
            self.protection_counts[protection._value_] += 1


#: The walker's dispatch table: instruction type -> handler.
_HANDLERS = {
    Compute: Interpreter._exec_compute,
    Assign: Interpreter._exec_assign,
    Load: Interpreter._exec_load,
    Store: Interpreter._exec_store,
    Loop: Interpreter._exec_loop_instr,
    If: Interpreter._exec_if,
    CheckRegion: Interpreter._exec_check_region,
    CheckAccess: Interpreter._exec_check_access,
    CheckElided: Interpreter._exec_check_elided,
    CheckCached: Interpreter._exec_check_cached,
    CacheFinalize: Interpreter._exec_cache_finalize,
    Malloc: Interpreter._exec_malloc,
    GlobalAlloc: Interpreter._exec_global_alloc,
    Free: Interpreter._exec_free,
    PtrAdd: Interpreter._exec_ptr_add,
    Memset: Interpreter._exec_memset,
    Memcpy: Interpreter._exec_memcpy,
    Strcpy: Interpreter._exec_strcpy,
    Call: Interpreter._exec_call,
    Return: Interpreter._exec_return,
    StackAlloc: Interpreter._exec_stack_alloc,
}
