"""The instrumenter: per-tool pass pipelines (paper Figure 4, left half).

Given a source program and a tool's :class:`Capabilities`, this builds
the instrumented program the interpreter executes.  The pipelines mirror
the paper's configurations:

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


@dataclass
class InstrumentedProgram:
    """An instrumented program plus instrumentation-time statistics.

    ``last_instructions`` is the instruction count of the latest
    finished run; :meth:`repro.runtime.session.Session.run` picks the
    next run's engine from it.
    """

    program: Program
    stats: PassStats
    style: str
    cache_count: int = 0
    last_instructions: int = 0

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
    """The pass list for a tool with the given capabilities.

    ``audit_elisions`` makes the static elision passes wrap elided
    checks in :class:`~repro.ir.nodes.CheckElided` markers (replayed
    against the shadow oracle at runtime) instead of deleting them.

    ``interprocedural`` turns on the summary-based analysis layer
    (:mod:`repro.dataflow.summaries`): call sites consume function
    summaries instead of clobbering every fact, the cross-block
    eliminator seeds callee entries from finalized caller coverage, and
    loop barriers ignore provably non-freeing calls.
    """
    passes: List[Pass] = [ConstantPropagation()]
    if not protect:
        passes.append(CheckPlacement("none"))
        return passes
    style = placement_style(caps)
    passes.append(CheckPlacement(style))
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
#: its own environment/caches; ``last_instructions`` only picks an
#: engine), so sharing one instance across runs and sessions is safe —
#: the 5-tool Table 2 sweep instruments each proxy once per
#: configuration instead of once per run.
_MEMO: dict = {}
_MEMO_LIMIT = 256
#: Hit/miss counters for the memo, exposed through
#: :func:`instrumentation_cache_stats`.  The execution fabric reports
#: them per worker so tests (and telemetry consumers) can prove that
#: persistent workers actually reuse warm instrumentation across tables.
_MEMO_HITS = 0
_MEMO_MISSES = 0


def instrument_cached(
    source: Program,
    tool: Optional[Sanitizer] = None,
    caps: Optional[Capabilities] = None,
    audit_elisions: bool = False,
    interprocedural: bool = True,
) -> InstrumentedProgram:
    """Like :func:`instrument`, memoized by (fingerprint, config)."""
    global _MEMO_HITS, _MEMO_MISSES
    caps, protect = _resolve_config(tool, caps)
    key = (
        program_fingerprint(source),
        caps,
        protect,
        audit_elisions,
        interprocedural,
    )
    cached = _MEMO.get(key)
    if cached is None:
        _MEMO_MISSES += 1
        if len(_MEMO) >= _MEMO_LIMIT:
            _MEMO.clear()
        cached = instrument(
            source,
            tool=tool,
            caps=caps,
            audit_elisions=audit_elisions,
            interprocedural=interprocedural,
        )
        _MEMO[key] = cached
    else:
        _MEMO_HITS += 1
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
    source: Program,
    tool: Optional[Sanitizer] = None,
    caps: Optional[Capabilities] = None,
    audit_elisions: bool = False,
    interprocedural: bool = True,
) -> InstrumentedProgram:
    """Clone and instrument ``source`` for ``tool`` (or raw ``caps``)."""
    caps, protect = _resolve_config(tool, caps)
    program = source.clone()
    assign_site_ids(program)
    pipeline = build_pipeline(
        caps,
        protect=protect,
        audit_elisions=audit_elisions,
        interprocedural=interprocedural,
    )
    stats = PassManager(pipeline).run(program)
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
