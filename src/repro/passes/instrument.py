"""The instrumenter: per-tool pass pipelines (paper Figure 4, left half).

Given a source program and a tool's :class:`Capabilities`, this builds
the instrumented program the interpreter executes, in two stages:

1. :func:`fold_program` is the tool-independent prefix: clone the
   source, number its memory sites, and run constant propagation.  As
   in a real build, where propagation runs once per module and not once
   per sanitizer, a :class:`FoldedProgram` can feed any number of
   pipelines.
2. :func:`instrument` runs one tool's passes (:func:`build_pipeline`)
   over a clone of a caller's folded program, or over its own fold of
   a plain :class:`Program`.

The tool pipelines mirror the paper's configurations:

=================  ===========  ===========  =========  ========
tool               placement    elimination  promotion  caching
=================  ===========  ===========  =========  ========
Native             none         —            —          —
ASan               instruction  —            —          —
ASan--             instruction  dedupe       hoist      —
LFP                region       —            —          —
GiantSan           region       dedupe+merge region     yes
GiantSan-CacheOnly region       —            —          yes
GiantSan-ElimOnly  region       dedupe+merge region     —
=================  ===========  ===========  =========  ========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..ir.nodes import CheckAccess, CheckCached, CheckRegion
from ..ir.program import Program, assign_site_ids, walk
from ..sanitizers.base import Capabilities, Sanitizer
from .base import Pass, PassManager, PassStats
from .check_merging import AliasedCheckElimination, ConstantOffsetMerging
from .check_placement import CheckPlacement
from .constprop import ConstantPropagation
from .history_caching import HistoryCaching
from .loop_promotion import LoopCheckPromotion
from .safe_access import SafeAccessElimination


@dataclass(frozen=True)
class FoldedProgram:
    """A source program numbered and constant-folded once.

    Made only by :func:`fold_program`.  ``program`` has its site ids
    assigned and constants propagated; :func:`instrument` clones a
    caller's fold before running a tool's passes, so nothing mutates
    it.  ``constprop_us`` is the fold's wall time, reported as every
    pipeline's ``pass_us:constprop`` note.
    """

    source: Program
    program: Program
    constprop_us: int


def fold_program(source: Program) -> FoldedProgram:
    """The tool-independent prefix of every pipeline, run once: clone
    ``source``, assign site ids, then run :class:`ConstantPropagation`."""
    program = source.clone()
    assign_site_ids(program)
    stats = PassManager([ConstantPropagation()]).run(program)
    return FoldedProgram(
        source, program, stats.pass_timings()[ConstantPropagation.name]
    )


@dataclass
class InstrumentedProgram:
    """An instrumented program plus instrumentation-time statistics."""

    program: Program
    stats: PassStats
    style: str
    cache_count: int = 0

    @property
    def static_checks(self) -> int:
        return self.stats.remaining_checks


def placement_style(caps: Capabilities) -> str:
    """The baseline check shape a tool's runtime expects."""
    if caps.constant_time_region or caps.anchor_checks:
        return "region"
    return "instruction"


def build_pipeline(
    caps: Capabilities,
    protect: bool = True,
    audit_elisions: bool = False,
    interprocedural: bool = False,
) -> List[Pass]:
    """One tool's pass list, from :class:`CheckPlacement` on.

    Constant propagation is not in it: it is the shared prefix that
    :func:`fold_program` runs once per source program.

    ``audit_elisions`` makes the static elision passes wrap elided
    checks in :class:`~repro.ir.nodes.CheckElided` markers (replayed
    against the shadow oracle at runtime) instead of deleting them.

    ``interprocedural`` turns on the summary-based analysis layer
    (:mod:`repro.dataflow.summaries`): call sites consume function
    summaries instead of clobbering every fact, the cross-block
    eliminator seeds callee entries from finalized caller coverage, and
    loop barriers ignore provably non-freeing calls.
    """
    if not protect:
        return [CheckPlacement("none")]
    passes: List[Pass] = [CheckPlacement(placement_style(caps))]
    if caps.check_elimination:
        passes.append(
            AliasedCheckElimination(
                audit=audit_elisions, interprocedural=interprocedural
            )
        )
        if caps.constant_time_region:
            passes.append(ConstantOffsetMerging())
            passes.append(
                LoopCheckPromotion(
                    "region", interprocedural=interprocedural
                )
            )
            # elide merged/promoted region checks the dataflow facts
            # prove in-bounds on a live object, before caching rewrites
            passes.append(
                SafeAccessElimination(
                    audit=audit_elisions, interprocedural=interprocedural
                )
            )
        else:
            # ASan--: provably-safe removal + invariant hoisting
            passes.append(
                SafeAccessElimination(
                    audit=audit_elisions, interprocedural=interprocedural
                )
            )
            passes.append(
                LoopCheckPromotion(
                    "hoist", interprocedural=interprocedural
                )
            )
    if caps.history_caching:
        passes.append(HistoryCaching())
    return passes


def _resolve_config(
    tool: Optional[Sanitizer], caps: Optional[Capabilities]
) -> tuple:
    """``(capabilities, protect)`` for an instrumentation request."""
    if caps is None:
        if tool is None:
            raise ValueError("instrument() needs a sanitizer or capabilities")
        caps = tool.capabilities
    protect = tool is None or type(tool).__name__ != "NativeSanitizer"
    return caps, protect


def program_fingerprint(program: Program) -> str:
    """A structural fingerprint of a source program.

    Built from the recursive dataclass ``repr`` of every function body —
    which covers *all* instruction fields (widths, bounds flags, step,
    reverse, protections), unlike the debug printer.  Two programs with
    equal fingerprints instrument identically for the same config.
    """
    parts = [f"entry={program.entry}"]
    for name in sorted(program.functions):
        function = program.functions[name]
        parts.append(f"{name}({','.join(function.params)}):{function.body!r}")
    return "\n".join(parts)


#: Memoized instrumentation results, keyed by
#: (program fingerprint, capabilities, protect).  Instrumented programs
#: are immutable at runtime (the interpreter keeps all mutable state in
#: its own environment/caches; the compiled engine only attaches its
#: closure table), so sharing one instance across runs and sessions is
#: safe — the 5-tool Table 2 sweep instruments each proxy once per
#: configuration instead of once per run.  The memo is an LRU: a
#: plain dict in recency order, where a hit re-inserts its entry at the
#: end and a miss at the bound evicts only the first (least recently
#: used) one.
_MEMO: dict = {}
#: Sized to a sweep: one process sweeping Tables 3-5 (1,525 distinct
#: keys) plus Table 2 (120) and the figure studies stays warm.  An entry
#: costs about 5 KB (tracemalloc over the detection programs), nearly
#: all of it the ``InstrumentedProgram``: the fingerprint keys average
#: 196 characters.
_MEMO_LIMIT = 2048
#: Hit/miss counters for the memo, exposed through
#: :func:`instrumentation_cache_stats` (``repro serve``'s ``/stats``).
_MEMO_HITS = 0
_MEMO_MISSES = 0


def instrument_cached(
    source: Program | FoldedProgram,
    tool: Optional[Sanitizer] = None,
    caps: Optional[Capabilities] = None,
    audit_elisions: bool = False,
    interprocedural: bool = True,
) -> InstrumentedProgram:
    """Like :func:`instrument`, memoized by (fingerprint, config); a
    :class:`FoldedProgram` is keyed by its source's fingerprint."""
    global _MEMO_HITS, _MEMO_MISSES
    caps, protect = _resolve_config(tool, caps)
    key = (
        program_fingerprint(
            source.source if isinstance(source, FoldedProgram) else source
        ),
        caps,
        protect,
        audit_elisions,
        interprocedural,
    )
    cached = _MEMO.pop(key, None)
    if cached is None:
        _MEMO_MISSES += 1
        if len(_MEMO) >= _MEMO_LIMIT:
            del _MEMO[next(iter(_MEMO))]
        cached = instrument(
            source,
            tool=tool,
            caps=caps,
            audit_elisions=audit_elisions,
            interprocedural=interprocedural,
        )
    else:
        _MEMO_HITS += 1
    _MEMO[key] = cached
    return cached


def instrumentation_cache_stats() -> dict:
    """Memo traffic for this process: ``{hits, misses, entries}``."""
    return {
        "hits": _MEMO_HITS,
        "misses": _MEMO_MISSES,
        "entries": len(_MEMO),
    }


def clear_instrumentation_cache() -> None:
    """Drop all memoized instrumentation results (mainly for tests)."""
    global _MEMO_HITS, _MEMO_MISSES
    _MEMO.clear()
    _MEMO_HITS = 0
    _MEMO_MISSES = 0


def instrument(
    source: Program | FoldedProgram,
    tool: Optional[Sanitizer] = None,
    caps: Optional[Capabilities] = None,
    audit_elisions: bool = False,
    interprocedural: bool = True,
) -> InstrumentedProgram:
    """Instrument ``source`` for ``tool`` (or raw ``caps``).

    A :class:`FoldedProgram` from the caller may feed more pipelines,
    so the tool's passes run over a clone of it.  A :class:`Program` is
    folded here (:func:`fold_program`), and the passes rewrite that
    private fold in place.
    """
    caps, protect = _resolve_config(tool, caps)
    if isinstance(source, FoldedProgram):
        folded, program = source, source.program.clone()
    else:
        folded = fold_program(source)
        program = folded.program
    pipeline = build_pipeline(
        caps,
        protect=protect,
        audit_elisions=audit_elisions,
        interprocedural=interprocedural,
    )
    stats = PassManager(pipeline).run(program)
    stats.notes = {
        f"pass_us:{ConstantPropagation.name}": folded.constprop_us,
        **stats.notes,
    }
    remaining = 0
    cache_ids = set()
    for function in program.functions.values():
        for instr in walk(function.body):
            if isinstance(instr, (CheckAccess, CheckRegion, CheckCached)):
                remaining += 1
            if isinstance(instr, CheckCached):
                cache_ids.add(instr.cache_id)
    stats.remaining_checks = remaining
    return InstrumentedProgram(
        program=program,
        stats=stats,
        style=placement_style(caps) if protect else "none",
        cache_count=len(cache_ids),
    )
