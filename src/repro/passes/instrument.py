"""The instrumenter: per-tool pass pipelines (paper Figure 4, left half).

Given a source program and a tool's :class:`Capabilities`, this builds
the instrumented program the interpreter executes, in two stages:

1. The fold is the tool-independent prefix: clone the source, number
   its memory sites, and run constant propagation.  As in a real build,
   where propagation runs once per module and not once per sanitizer, a
   :class:`FoldedProgram` handle folds its source at most once and can
   feed any number of pipelines.
2. :func:`instrument` runs one tool's passes (:func:`build_pipeline`)
   over a clone of a caller's handle's fold, or over its own fold of a
   plain :class:`Program`.

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


class FoldedProgram:
    """One source program's tool-independent work, each part done once.

    A sweep wraps each source in one handle and hands it to every
    tool's session.  The handle computes the source's
    :func:`program_fingerprint` at the first memo lookup
    (:attr:`fingerprint`) and folds it at the first memo miss
    (:attr:`program`), so a warm pass folds nothing and an unmemoized
    run fingerprints nothing.  ``program`` has its site ids assigned and
    constants propagated; :func:`instrument` clones a caller's fold
    before running a tool's passes, so nothing mutates it.
    ``constprop_us`` is the fold's wall time, reported as every
    pipeline's ``pass_us:constprop`` note.

    A handle keeps its fold alive, so it should live for one row or
    case of a sweep, not across passes.  The source must not change
    while the handle lives.
    """

    __slots__ = ("source", "_program", "_constprop_us", "_fingerprint")

    def __init__(
        self,
        source: Program,
        program: Optional[Program] = None,
        constprop_us: int = 0,
    ):
        self.source = source
        self._program = program
        self._constprop_us = constprop_us
        self._fingerprint: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """The source's :func:`program_fingerprint`, computed once."""
        if self._fingerprint is None:
            self._fingerprint = program_fingerprint(self.source)
        return self._fingerprint

    def _fold(self) -> None:
        if self._program is None:
            folded = fold_program(self.source)
            self._program = folded.program
            self._constprop_us = folded.constprop_us

    @property
    def program(self) -> Program:
        """The folded program, folded on first use."""
        self._fold()
        return self._program

    @property
    def constprop_us(self) -> int:
        self._fold()
        return self._constprop_us


def fold_program(source: Program) -> FoldedProgram:
    """The tool-independent prefix of every pipeline, run now: clone
    ``source``, assign site ids, then run :class:`ConstantPropagation`.

    Unlike a bare ``FoldedProgram(source)``, which folds when first
    instrumented, this raises a fold's crash here, at the caller."""
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
) -> List[Pass]:
    """One tool's pass list, from :class:`CheckPlacement` on.

    Constant propagation is not in it: it is the shared prefix that a
    :class:`FoldedProgram` runs once per source program.

    ``audit_elisions`` makes the static elision passes wrap elided
    checks in :class:`~repro.ir.nodes.CheckElided` markers (replayed
    against the shadow oracle at runtime) instead of deleting them.
    """
    if not protect:
        return [CheckPlacement("none")]
    passes: List[Pass] = [CheckPlacement(placement_style(caps))]
    if caps.check_elimination:
        passes.append(AliasedCheckElimination())
        if caps.constant_time_region:
            passes.append(ConstantOffsetMerging())
            passes.append(LoopCheckPromotion("region"))
            # elide merged/promoted region checks the dataflow facts
            # prove in-bounds on a live object, before caching rewrites
            passes.append(SafeAccessElimination(audit=audit_elisions))
        else:
            # ASan--: provably-safe removal + invariant hoisting
            passes.append(SafeAccessElimination(audit=audit_elisions))
            passes.append(LoopCheckPromotion("hoist"))
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


#: Memoized instrumentation results, keyed by (source fingerprint,
#: capabilities, protect, audit_elisions).  The fingerprint is the one a
#: :class:`FoldedProgram` handle computes once, so a sweep that hands one
#: handle to every tool fingerprints each source once per row and folds
#: it only on the row's first miss: a warm pass folds nothing.
#: Instrumented programs are immutable at runtime (the interpreter keeps
#: all mutable state in its own environment/caches; the compiled engine
#: only attaches its closure table), so sharing one instance across runs
#: and sessions is safe.  The memo is an LRU: a plain dict in recency
#: order, where a hit re-inserts its entry at the end and a miss at the
#: bound evicts only the first (least recently used) one.
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
) -> InstrumentedProgram:
    """Like :func:`instrument`, memoized by (fingerprint, config).  The
    fingerprint is a :class:`FoldedProgram`'s own, computed once per
    handle; a plain :class:`Program` is wrapped in a handle for it."""
    global _MEMO_HITS, _MEMO_MISSES
    caps, protect = _resolve_config(tool, caps)
    folded = source if isinstance(source, FoldedProgram) else (
        FoldedProgram(source)
    )
    key = (folded.fingerprint, caps, protect, audit_elisions)
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
) -> InstrumentedProgram:
    """Instrument ``source`` for ``tool`` (or raw ``caps``).

    A :class:`FoldedProgram` from the caller may feed more pipelines,
    so the tool's passes run over a clone of its fold.  A
    :class:`Program` is wrapped in a private handle, and the passes
    rewrite that handle's fold in place.
    """
    caps, protect = _resolve_config(tool, caps)
    if isinstance(source, FoldedProgram):
        folded, program = source, source.program.clone()
    else:
        folded = FoldedProgram(source)
        program = folded.program
    pipeline = build_pipeline(
        caps, protect=protect, audit_elisions=audit_elisions
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
