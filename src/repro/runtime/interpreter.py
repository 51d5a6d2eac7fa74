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
        telemetry: Optional[object] = None,
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
        #: Telemetry registry (:class:`repro.telemetry.Telemetry`) or
        #: None; gated per loop execution / cached-check site, never per
        #: instruction, so the disabled path stays at reference speed.
        self.telemetry = telemetry
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
            started = tele.profiler.begin("run")
            try:
                value = self._call_function(entry, list(args or []))
            finally:
                tele.profiler.end("run", started)
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
        if type(expr) is Const:
            return expr.value
        if type(expr) is Var:
            try:
                return env[expr.name]
            except KeyError:
                raise NameError(f"undefined variable {expr.name!r}") from None
        if type(expr) is BinOp:
            return _ARITH[expr.op](
                self._eval(expr.left, env), self._eval(expr.right, env)
            )
        raise TypeError(f"cannot evaluate {expr!r}")

    # ------------------------------------------------------------------
    # instruction execution
    # ------------------------------------------------------------------
    def _exec_block(self, block, env: Dict[str, int]) -> None:
        for instr in block:
            self._exec(instr, env)

    def _exec(self, instr, env: Dict[str, int]) -> None:
        self.instructions += 1
        if self.instructions > self.max_instructions:
            raise BudgetExceeded(
                f"exceeded {self.max_instructions} executed instructions"
            )
        kind = type(instr)

        if kind is Compute:
            self.native_cycles += instr.cycles
        elif kind is Assign:
            env[instr.dst] = self._eval(instr.expr, env)
            self.native_cycles += self.costs.arith
        elif kind is Load:
            address = env[instr.base] + self._eval(instr.offset, env)
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
            self._classify_access(instr.protection)
        elif kind is Store:
            address = env[instr.base] + self._eval(instr.offset, env)
            if self._needs_resolve:
                address = self.san.resolve_address(address)
            try:
                self.san.space.store(
                    address, instr.width, self._eval(instr.value, env)
                )
            except AddressSpaceError:
                self.hardware_faults += 1
            self.native_cycles += self.costs.memory_access
            self._classify_access(instr.protection)
        elif kind is Loop:
            self._exec_loop(instr, env)
        elif kind is If:
            self.native_cycles += self.costs.branch
            if self._eval(instr.cond, env):
                self._exec_block(instr.then, env)
            else:
                self._exec_block(instr.orelse, env)
        elif kind is CheckRegion:
            base = env[instr.base]
            start = base + self._eval(instr.start, env)
            end = base + self._eval(instr.end, env)
            before_fast = self.san.stats.fast_checks
            self.san.check_region(
                start, end, instr.access,
                anchor=base if instr.use_anchor else None,
            )
            self._classify_check(before_fast)
        elif kind is CheckAccess:
            address = env[instr.base] + self._eval(instr.offset, env)
            before_fast = self.san.stats.fast_checks
            self.san.check_access(address, instr.width, instr.access)
            self._classify_check(before_fast)
        elif kind is CheckElided:
            self._replay_elided(instr, env)
        elif kind is CheckCached:
            cache = self.caches.get(instr.cache_id)
            if cache is None:
                cache = self.san.make_cache()
                self.caches[instr.cache_id] = cache
            if self.telemetry is None:
                self.san.check_cached(
                    cache,
                    env[instr.base],
                    self._eval(instr.offset, env),
                    instr.width,
                    instr.access,
                )
            else:
                # quasi-bound convergence: count each update that extended
                # this site's cached upper bound (§4.3 claims at most
                # ceil(log2(n/8)) of these per object on forward walks)
                bound_before = cache.ub
                self.san.check_cached(
                    cache,
                    env[instr.base],
                    self._eval(instr.offset, env),
                    instr.width,
                    instr.access,
                )
                if cache.ub > bound_before:
                    self.telemetry.note_convergence(instr.cache_id)
        elif kind is CacheFinalize:
            cache = self.caches.get(instr.cache_id)
            if cache is not None and cache.ub > 0:
                base = env[instr.base]
                self.san.check_region(
                    base, base + cache.ub, instr.access, anchor=base
                )
                cache.reset()
        elif kind is Malloc:
            size = self._eval(instr.size, env)
            env[instr.dst] = self.san.malloc(size).base
            self.native_cycles += self.costs.malloc
        elif kind is GlobalAlloc:
            env[instr.dst] = self.san.define_global(instr.dst, instr.size).base
        elif kind is Free:
            self.san.free(env[instr.ptr])
            self.native_cycles += self.costs.free
        elif kind is PtrAdd:
            env[instr.dst] = env[instr.base] + self._eval(instr.offset, env)
            self.native_cycles += self.costs.arith
        elif kind is Memset:
            base = env[instr.base]
            address = base + self._eval(instr.offset, env)
            length = self._eval(instr.length, env)
            guarded_memset(
                self.san, instr.protection, address, length,
                self._eval(instr.byte, env), anchor=base,
            )
            self.native_cycles += self.costs.byte_move * max(length, 0)
            self._classify_access(instr.protection)
        elif kind is Memcpy:
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
        elif kind is Strcpy:
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
        elif kind is Call:
            target = self._functions[instr.func]
            values = [self._eval(a, env) for a in instr.args]
            self.native_cycles += self.costs.call
            result = self._call_function(target, values)
            if instr.dst is not None:
                env[instr.dst] = result if result is not None else 0
        elif kind is Return:
            self.native_cycles += self.costs.ret
            value = (
                self._eval(instr.expr, env) if instr.expr is not None else None
            )
            raise _ReturnSignal(value)
        elif kind is StackAlloc:
            pass  # materialized at function entry
        else:
            raise TypeError(f"cannot execute {instr!r}")

    def _exec_loop(self, loop: Loop, env: Dict[str, int]) -> None:
        start = self._eval(loop.start, env)
        end = self._eval(loop.end, env)
        step = loop.step
        if loop.reverse:
            values = range(end - step, start - 1, -step)
        else:
            values = range(start, end, step)
        tele = self.telemetry
        if tele is None:
            if self.fastpath and _fastpath.try_execute(
                self, loop, values, env
            ):
                return
            body = loop.body
            for value in values:
                env[loop.var] = value
                self.native_cycles += self.costs.loop_iteration
                self._exec_block(body, env)
            return
        # Telemetry path: identical semantics, plus superblock counters
        # and sampled phase timing of the two hot loops.
        profiler = tele.profiler
        if self.fastpath:
            started = profiler.begin("superblock")
            taken = _fastpath.try_execute(self, loop, values, env)
            profiler.end("superblock", started)
            if taken:
                tele.incr("superblock_loops")
                tele.incr("superblock_iterations", len(values))
                return
        started = profiler.begin("interpreter_loop")
        body = loop.body
        for value in values:
            env[loop.var] = value
            self.native_cycles += self.costs.loop_iteration
            self._exec_block(body, env)
        profiler.end("interpreter_loop", started)

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
        if protection is Protection.ELIMINATED:
            self.protection_counts["eliminated"] += 1
        elif protection is Protection.CACHED:
            self.protection_counts["cached"] += 1
        elif protection is Protection.ELIDED:
            self.protection_counts["elided"] += 1
        elif protection is Protection.UNPROTECTED:
            self.protection_counts["unprotected"] += 1
        # DIRECT accesses are classified at their check instruction.

    def _classify_check(self, fast_before: int) -> None:
        if self.san.stats.fast_checks > fast_before:
            self.protection_counts["fast_only"] += 1
        else:
            self.protection_counts["full_check"] += 1

