"""Bottom-up function summaries: what a call can do to its caller.

A :class:`FunctionSummary` condenses one function's externally visible
effects so the intraprocedural analyses can consume a ``Call`` site
precisely instead of clobbering to ⊤:

* **per-parameter facts** (:class:`ParamFacts`) — which byte offsets of
  the pointee the callee may access, *must* access on every path, and
  must have validated with a check by the time it returns; whether the
  parameter may be freed; whether the pointer value escapes (stored to
  memory, passed onward to a capturing callee, or returned);
* **free effects** — ``may_free_unknown`` is the ⊤ effect: the callee
  (or something it calls) may free an object the summary cannot name
  (a free through a loaded pointer, a call to an unknown or recursive
  target).  When it is clear, the *only* objects a call can free are
  the arguments listed in the per-parameter freed set — a callee can
  reach nothing else: our IR has no globals-held pointers except those
  stored by an observed ``Store`` (whose later free appears as a free
  through an unknown pointer, which sets the ⊤ flag);
* **returned-fresh-allocation** — the callee definitely returns a
  pointer to the base of a heap object it allocated itself, of at least
  ``returns_fresh`` bytes, that it neither freed nor leaked elsewhere.
  The caller may treat the destination as a brand-new object root;
* **return interval** — a value range for the returned integer;
* **purity** — no writes, no frees, no allocations (reported by the
  whole-program analyzer; not itself load-bearing).

A summary exists for each *called* function: every consumer reads one
at a ``Call``, by callee name, so a function nothing calls (the program
entry, an unused helper) gets none from :func:`compute_summaries`.  The
whole-program view adds those with :func:`whole_program_summaries`.

Summaries are computed bottom-up over the call graph's SCC condensation
(:mod:`repro.dataflow.callgraph`).  Members of non-trivial SCCs and
self-recursive functions take the conservative ⊤ summary — exactly the
pre-interprocedural treatment of every call — so recursion never needs
a cross-function fixpoint to stay sound.  Calls to targets missing from
the program degrade the caller's summary the same way.

The lattice ordering is "fewer claimed effects is above": ⊤ claims
every effect (may free anything, accesses unknown) and guarantees none
(no checked ranges, no fresh return).  Every consumer treats an absent
summary as ⊤, which makes summaries an optional refinement: disable
them (``ExecConfig(interprocedural=False)``; ``REPRO_INTERPROC=0`` in
the CLI) and every analysis behaves byte-for-byte as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.nodes import (
    Call,
    CheckAccess,
    CheckRegion,
    Free,
    Instr,
    Load,
    Malloc,
    Memcpy,
    Memset,
    Return,
    Store,
    Strcpy,
    Var,
)
from ..ir.program import Function, Program, walk
from .available import AvailableCheckAnalysis, IntervalSet, normalize, union
from .callgraph import CallGraph, build_call_graph
from .cfg import lower_function
from .intervals import TOP, Interval, IntervalAnalysis, const, eval_expr
from .solver import solve


@dataclass(frozen=True)
class ParamFacts:
    """Summarized effects on (the pointee of) one parameter.

    Offsets are bytes relative to the pointer value passed in.
    ``accessed`` is a may-over-approximation (``None`` = unknown/⊤);
    ``must_access`` and ``checked`` are must-under-approximations
    (empty = nothing guaranteed).
    """

    accessed: Optional[IntervalSet] = ()
    must_access: IntervalSet = ()
    checked: IntervalSet = ()
    freed: bool = False
    escapes: bool = False

    def as_dict(self) -> dict:
        return {
            "accessed": None if self.accessed is None else list(self.accessed),
            "must_access": list(self.must_access),
            "checked": list(self.checked),
            "freed": self.freed,
            "escapes": self.escapes,
        }


#: The ⊤ parameter facts: claims every effect, guarantees nothing.
TOP_PARAM = ParamFacts(accessed=None, freed=True, escapes=True)


@dataclass(frozen=True)
class FunctionSummary:
    """Externally visible effects of one function."""

    name: str
    params: Tuple[str, ...]
    param_facts: Tuple[ParamFacts, ...] = ()
    may_free_unknown: bool = False
    writes_memory: bool = False
    allocates: bool = False
    returns_fresh: Optional[int] = None
    return_interval: Interval = TOP
    recursive: bool = False

    @property
    def frees_nothing(self) -> bool:
        """No call to this function can deallocate anything."""
        return not self.may_free_unknown and not any(
            facts.freed for facts in self.param_facts
        )

    @property
    def pure(self) -> bool:
        return (
            not self.writes_memory
            and not self.allocates
            and self.frees_nothing
        )

    def as_dict(self) -> dict:
        return {
            "params": list(self.params),
            "param_facts": {
                name: facts.as_dict()
                for name, facts in zip(self.params, self.param_facts)
            },
            "may_free_unknown": self.may_free_unknown,
            "frees_nothing": self.frees_nothing,
            "writes_memory": self.writes_memory,
            "allocates": self.allocates,
            "pure": self.pure,
            "returns_fresh": self.returns_fresh,
            "return_interval": repr(self.return_interval),
            "recursive": self.recursive,
        }

    def render(self) -> str:
        bits = []
        if self.recursive:
            bits.append("recursive: conservative ⊤")
        elif self.pure:
            bits.append("pure")
        else:
            if self.frees_nothing:
                bits.append("frees nothing")
            elif self.may_free_unknown:
                bits.append("may free unknown objects")
            else:
                freed = [
                    name
                    for name, facts in zip(self.params, self.param_facts)
                    if facts.freed
                ]
                bits.append(f"may free {', '.join(freed)}")
            if self.writes_memory:
                bits.append("writes memory")
        if self.returns_fresh is not None:
            bits.append(f"returns fresh {self.returns_fresh}-byte alloc")
        elif self.return_interval != TOP:
            bits.append(f"returns {self.return_interval!r}")
        param_bits = []
        for name, facts in zip(self.params, self.param_facts):
            spans = (
                "?" if facts.accessed is None
                else ",".join(f"[{lo},{hi})" for lo, hi in facts.accessed)
                or "-"
            )
            checked = ",".join(f"[{lo},{hi})" for lo, hi in facts.checked)
            detail = f"{name}: touches {spans}"
            if checked:
                detail += f", checks {checked}"
            if facts.freed:
                detail += ", may free"
            if facts.escapes:
                detail += ", escapes"
            param_bits.append(detail)
        head = "; ".join(bits) if bits else "no effects"
        if param_bits:
            return f"{head} | " + " | ".join(param_bits)
        return head


def conservative_summary(
    name: str, params: List[str], recursive: bool = False
) -> FunctionSummary:
    """The ⊤ summary: today's call-site treatment, spelled out."""
    return FunctionSummary(
        name=name,
        params=tuple(params),
        param_facts=tuple(TOP_PARAM for _ in params),
        may_free_unknown=True,
        writes_memory=True,
        allocates=True,
        returns_fresh=None,
        return_interval=TOP,
        recursive=recursive,
    )


def call_is_opaque(summary: Optional[FunctionSummary]) -> bool:
    """True when a call must be treated with full conservatism."""
    return (
        summary is None or summary.recursive or summary.may_free_unknown
    )


def call_frees_nothing(
    call: Call, summaries: Optional[Dict[str, FunctionSummary]]
) -> bool:
    """True when ``call`` provably cannot deallocate any object."""
    if not summaries:
        return False
    summary = summaries.get(call.func)
    return (
        summary is not None
        and not summary.recursive
        and summary.frees_nothing
    )


class MustAccessAnalysis(AvailableCheckAnalysis):
    """Must-ACCESSED byte ranges, in the available-check framework.

    Facts are generated by real dereferences (loads, stores, fills,
    copies) with constant extents instead of by checks; kills are
    identical.  The exit state, restricted to parameter roots, is the
    summary's ``must_access`` — offsets the callee dereferences on
    every path, which the static detector turns into definite
    cross-call findings.
    """

    def transfer(self, instr: Instr, state) -> None:
        if isinstance(instr, (CheckAccess, CheckRegion)):
            return  # checks validate; they do not access
        for lo, hi, base in self._access_spans(instr):
            key, base_off = self._key_for(base)
            state[key] = union(
                state.get(key, ()), ((base_off + lo, base_off + hi),)
            )
        super().transfer(instr, state)

    def _access_spans(self, instr: Instr):
        spans = []
        if isinstance(instr, (Load, Store)):
            offset = eval_const(instr.offset)
            if offset is not None:
                spans.append((offset, offset + instr.width, instr.base))
        elif isinstance(instr, Memset):
            offset = eval_const(instr.offset)
            length = eval_const(instr.length)
            if offset is not None and length is not None and length > 0:
                spans.append((offset, offset + length, instr.base))
        elif isinstance(instr, Memcpy):
            length = eval_const(instr.length)
            if length is not None and length > 0:
                for base, off_expr in (
                    (instr.dst_base, instr.dst_offset),
                    (instr.src_base, instr.src_offset),
                ):
                    offset = eval_const(off_expr)
                    if offset is not None:
                        spans.append((offset, offset + length, base))
        return spans

    def _call_facts(self, facts: ParamFacts) -> IntervalSet:
        return facts.must_access


def eval_const(expr):
    """Late-bound :func:`repro.passes.constprop.eval_const`, as in
    :func:`repro.dataflow.available.eval_const`."""
    global eval_const
    from ..passes.constprop import eval_const

    return eval_const(expr)


# ----------------------------------------------------------------------
# summary computation
# ----------------------------------------------------------------------
def compute_summaries(
    program: Program, graph: Optional[CallGraph] = None
) -> Dict[str, FunctionSummary]:
    """Summaries for every called function, computed callees-first.

    Every reader looks a summary up by callee name at a ``Call``, so a
    function nothing calls (the program entry, an unused helper) is
    never read and gets none; :func:`whole_program_summaries` adds them.
    """
    graph = graph or build_call_graph(program)
    summaries: Dict[str, FunctionSummary] = {}
    for name in graph.bottom_up():
        if graph.callers[name]:
            summaries[name] = _summary_of(program, graph, name, summaries)
    return summaries


def whole_program_summaries(
    program: Program, graph: CallGraph
) -> Dict[str, FunctionSummary]:
    """Summaries for every function, the uncalled ones included.

    An uncalled function is never recursive, and its callees are all
    called, so it is summarized from :func:`compute_summaries`' table
    exactly as a full bottom-up walk would.
    """
    summaries = compute_summaries(program, graph)
    for name in graph.bottom_up():
        if name not in summaries:
            summaries[name] = _summary_of(program, graph, name, summaries)
    return summaries


def _summary_of(
    program: Program,
    graph: CallGraph,
    name: str,
    summaries: Dict[str, FunctionSummary],
) -> FunctionSummary:
    function = program.functions[name]
    if name in graph.recursive or name in graph.unknown_callers:
        return conservative_summary(
            name, function.params, recursive=name in graph.recursive
        )
    return _summarize(function, summaries)


def _summarize(
    function: Function, summaries: Dict[str, FunctionSummary]
) -> FunctionSummary:
    from ..passes.alias import ProvenanceMap

    pmap = ProvenanceMap(function, summaries=summaries)
    cfg = lower_function(function)
    intervals = solve(cfg, IntervalAnalysis(summaries=summaries))

    params = list(function.params)
    param_roots = {f"param:{name}": i for i, name in enumerate(params)}
    #: per-param may-accessed ranges; None = ⊤ (unknown extent)
    accessed: List[Optional[List[Tuple[int, int]]]] = [[] for _ in params]
    freed = [False] * len(params)
    escapes = [False] * len(params)
    may_free_unknown = False
    writes_memory = False
    allocates = False
    escaped_roots: set = set()
    freed_roots: set = set()
    returns: List[Tuple[Return, Dict[str, Interval]]] = []

    def param_of(var: Optional[str]) -> Optional[int]:
        if var is None:
            return None
        prov = pmap.provenance(var)
        if prov is None:
            return None
        return param_roots.get(prov.root)

    def touch(index: Optional[int], span: Optional[Tuple[int, int]]):
        """Record a may-access on param ``index`` (None span = ⊤)."""
        if index is None:
            return
        if span is None:
            accessed[index] = None
        elif accessed[index] is not None:
            accessed[index].append(span)

    def access_span(base, offset_expr, width_iv, ivals):
        """Root-relative (lo, hi) span of an access, or None for ⊤."""
        prov = pmap.provenance(base)
        if prov is None:
            return None
        offset = eval_expr(prov.offset, ivals).hull(const(0))
        total = _iv_add(eval_expr(offset_expr, ivals), offset)
        if total.lo is None or total.hi is None:
            return None
        if width_iv.hi is None:
            return None
        return (total.lo, total.hi + width_iv.hi)

    for block in cfg.blocks:
        if block.index not in intervals.in_states:
            continue
        for instr, ivals in intervals.replay(block):
            if isinstance(instr, (Load, Store)):
                index = param_of(instr.base)
                touch(
                    index,
                    access_span(
                        instr.base, instr.offset, const(instr.width), ivals
                    ),
                )
                if isinstance(instr, Store):
                    writes_memory = True
                    if isinstance(instr.value, Var):
                        _mark_escape(
                            pmap, instr.value.name, param_roots,
                            escapes, escaped_roots,
                        )
            elif isinstance(instr, Memset):
                writes_memory = True
                touch(
                    param_of(instr.base),
                    access_span(
                        instr.base, instr.offset,
                        eval_expr(instr.length, ivals), ivals,
                    ),
                )
            elif isinstance(instr, Memcpy):
                writes_memory = True
                length = eval_expr(instr.length, ivals)
                for base, off in (
                    (instr.dst_base, instr.dst_offset),
                    (instr.src_base, instr.src_offset),
                ):
                    touch(
                        param_of(base),
                        access_span(base, off, length, ivals),
                    )
            elif isinstance(instr, Strcpy):
                writes_memory = True
                touch(param_of(instr.dst_base), None)
                touch(param_of(instr.src_base), None)
            elif isinstance(instr, Free):
                prov = pmap.provenance(instr.ptr)
                if prov is None:
                    may_free_unknown = True
                elif prov.root in param_roots:
                    freed[param_roots[prov.root]] = True
                else:
                    freed_roots.add(prov.root)
            elif isinstance(instr, Malloc):
                allocates = True
            elif isinstance(instr, Call):
                callee = summaries.get(instr.func)
                if call_is_opaque(callee):
                    may_free_unknown = True
                    writes_memory = True
                    allocates = True
                    for arg in instr.args:
                        if isinstance(arg, Var):
                            _mark_escape(
                                pmap, arg.name, param_roots,
                                escapes, escaped_roots,
                            )
                            touch(param_of(arg.name), None)
                    continue
                writes_memory |= callee.writes_memory
                allocates |= callee.allocates
                for index, facts in enumerate(callee.param_facts):
                    arg = (
                        instr.args[index]
                        if index < len(instr.args)
                        else None
                    )
                    arg_var = arg.name if isinstance(arg, Var) else None
                    prov = (
                        pmap.provenance(arg_var) if arg_var else None
                    )
                    if facts.freed:
                        if prov is None:
                            may_free_unknown = True
                        elif prov.root in param_roots:
                            freed[param_roots[prov.root]] = True
                        else:
                            freed_roots.add(prov.root)
                    if facts.escapes and arg_var is not None:
                        _mark_escape(
                            pmap, arg_var, param_roots,
                            escapes, escaped_roots,
                        )
                    own = param_of(arg_var)
                    if own is None:
                        continue
                    if facts.accessed is None:
                        touch(own, None)
                    else:
                        base_off = (
                            eval_const(prov.offset)
                            if prov is not None
                            else None
                        )
                        if base_off is None:
                            if facts.accessed:
                                touch(own, None)
                        else:
                            for lo, hi in facts.accessed:
                                touch(own, (lo + base_off, hi + base_off))
            elif isinstance(instr, Return):
                returns.append((instr, intervals.analysis.copy(ivals)))
                if instr.expr is not None and isinstance(instr.expr, Var):
                    _mark_escape(
                        pmap, instr.expr.name, param_roots,
                        escapes, escaped_roots,
                    )

    # a function whose body does not end in a top-level Return can fall
    # off the end (returning 0), so return facts must include that path
    definitely_returns = bool(function.body) and isinstance(
        function.body[-1], Return
    )

    return_interval = _return_interval(returns, definitely_returns)
    returns_fresh = _returns_fresh(
        function, pmap, returns, definitely_returns,
        escaped_roots, freed_roots, may_free_unknown,
    )

    # must-analyses over the same CFG: validated + dereferenced ranges
    # guaranteed by exit, keyed by parameter root (none without params)
    checked_at_exit: Dict[int, IntervalSet] = {}
    accessed_at_exit: Dict[int, IntervalSet] = {}
    if params:
        checked_at_exit = _exit_param_facts(
            solve(
                cfg,
                AvailableCheckAnalysis(function, pmap, summaries=summaries),
            ),
            param_roots,
        )
        accessed_at_exit = _exit_param_facts(
            solve(
                cfg, MustAccessAnalysis(function, pmap, summaries=summaries)
            ),
            param_roots,
        )

    facts = tuple(
        ParamFacts(
            accessed=(
                None
                if accessed[i] is None
                else normalize(accessed[i])
            ),
            must_access=accessed_at_exit.get(i, ()),
            checked=checked_at_exit.get(i, ()),
            freed=freed[i],
            escapes=escapes[i],
        )
        for i in range(len(params))
    )
    return FunctionSummary(
        name=function.name,
        params=tuple(params),
        param_facts=facts,
        may_free_unknown=may_free_unknown,
        writes_memory=writes_memory,
        allocates=allocates,
        returns_fresh=returns_fresh,
        return_interval=return_interval,
        recursive=False,
    )


def _iv_add(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return Interval(lo, hi)


def _mark_escape(pmap, var, param_roots, escapes, escaped_roots) -> None:
    prov = pmap.provenance(var)
    if prov is None:
        return
    if prov.root in param_roots:
        escapes[param_roots[prov.root]] = True
    else:
        escaped_roots.add(prov.root)


def _exit_param_facts(solution, param_roots) -> Dict[int, IntervalSet]:
    """Exit-state facts restricted to parameter roots, by index."""
    state = solution.in_states.get(1, {})  # block 1 is the exit
    facts: Dict[int, IntervalSet] = {}
    for key, ranges in state.items():
        if isinstance(key, str) and key in param_roots and ranges:
            facts[param_roots[key]] = ranges
    return facts


def _return_interval(returns, definitely_returns) -> Interval:
    if not returns:
        return const(0)
    interval = None
    for instr, ivals in returns:
        value = (
            const(0)
            if instr.expr is None
            else eval_expr(instr.expr, ivals)
        )
        interval = value if interval is None else interval.hull(value)
    if not definitely_returns:
        interval = interval.hull(const(0))
    return interval


def _returns_fresh(
    function, pmap, returns, definitely_returns,
    escaped_roots, freed_roots, may_free_unknown,
) -> Optional[int]:
    """Constant size of the fresh heap object every return hands back,
    or None when any path may return something else (or leak/free it)."""
    if not returns or not definitely_returns or may_free_unknown:
        return None
    sizes: List[int] = []
    alloc_sizes = _alloc_sizes(function)
    for instr, _ in returns:
        if not isinstance(instr.expr, Var):
            return None
        prov = pmap.provenance(instr.expr.name)
        if prov is None or not prov.root.startswith("alloc:"):
            return None
        if eval_const(prov.offset) != 0:
            return None
        if prov.root in escaped_roots or prov.root in freed_roots:
            # Return-position uses are recorded as escapes too, but a
            # pointer that *only* escapes by being returned is exactly
            # the fresh-allocation shape; any other escape (a Store, a
            # capturing callee) disqualifies.  _mark_escape records
            # both identically, so re-check: stores/calls put the root
            # in escaped_roots before we get here only for non-return
            # uses... returns also add it.  Distinguish via a second
            # scan below.
            pass
        size = alloc_sizes.get(prov.root)
        if size is None:
            return None
        if prov.root in freed_roots:
            return None
        if _escapes_outside_return(function, pmap, prov.root):
            return None
        sizes.append(size)
    return min(sizes) if sizes else None


def _alloc_sizes(function) -> Dict[str, int]:
    sizes: Dict[str, int] = {}
    for instr in walk(function.body):
        if isinstance(instr, Malloc):
            size = eval_const(instr.size)
            if size is not None:
                sizes[f"alloc:{id(instr)}"] = size
    return sizes


def _escapes_outside_return(function, pmap, root: str) -> bool:
    """True when a pointer to ``root`` leaks anywhere but a Return."""
    for instr in walk(function.body):
        if isinstance(instr, Store) and isinstance(instr.value, Var):
            prov = pmap.provenance(instr.value.name)
            if prov is not None and prov.root == root:
                return True
        elif isinstance(instr, Call):
            for arg in instr.args:
                if isinstance(arg, Var):
                    prov = pmap.provenance(arg.name)
                    if prov is not None and prov.root == root:
                        return True
    return False
