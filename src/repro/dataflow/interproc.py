"""Whole-program orchestration of the interprocedural layer.

:class:`InterproceduralContext` bundles everything the optimization
passes share for one program: the call graph, the bottom-up function
summaries, and the **entry seeds** the cross-call check eliminator
accumulates as it walks functions top-down.

Entry seeding is how a callee's prologue checks die from caller-side
knowledge: when every finalized call site of ``f`` reaches the call
with byte range ``R`` of the argument's object already validated (by
checks that themselves survive elimination), then ``f`` may start its
own available-check analysis with ``R`` recorded against the parameter
root — any ``f``-internal check covered by it is redundant on every
possible invocation.  The intersection over *all* call sites (and the
empty seed for the program entry, which is invoked externally, and for
recursive functions, whose call sites are not finalized before they
are processed) keeps this sound; see docs/STATIC_ANALYSIS.md for the
full argument.

:func:`whole_program_data` is the analysis snapshot the ``repro
analyze --whole-program`` CLI renders (text or JSON): call graph,
per-function summaries (the passes' table plus the uncalled
functions, which no pass reads), and static findings.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.program import Program
from .available import FactKey, IntervalSet, intersect
from .callgraph import CallGraph, build_call_graph
from .summaries import (
    FunctionSummary,
    compute_summaries,
    whole_program_summaries,
)


class InterproceduralContext:
    """Shared interprocedural facts for one program."""

    def __init__(
        self,
        program: Program,
        graph: Optional[CallGraph] = None,
        summaries: Optional[Dict[str, FunctionSummary]] = None,
    ) -> None:
        self.program = program
        self.graph = graph or build_call_graph(program)
        self.summaries = (
            summaries
            if summaries is not None
            else compute_summaries(program, self.graph)
        )
        #: callee name -> intersected caller-side entry facts; absent
        #: means "no site noted yet" and yields the empty (sound) seed.
        self.entry_facts: Dict[str, Dict[FactKey, IntervalSet]] = {}
        self._noted: set = set()

    def note_call_site(
        self, target: str, facts: Dict[FactKey, IntervalSet]
    ) -> None:
        """Fold one finalized call site's translated facts into the
        callee's entry seed (pointwise intersection across sites)."""
        if target not in self._noted:
            self._noted.add(target)
            self.entry_facts[target] = dict(facts)
            return
        current = self.entry_facts[target]
        for key in list(current):
            ranges = intersect(current[key], facts.get(key, ()))
            if ranges:
                current[key] = ranges
            else:
                del current[key]

    def seeds_for(self, name: str) -> Dict[FactKey, IntervalSet]:
        """The sound entry state for ``name``'s available-check run.

        Empty for the program entry (invoked externally with no caller
        facts) and for recursive functions (their call sites are not
        all finalized when they are processed).
        """
        if name == self.program.entry or name in self.graph.recursive:
            return {}
        return self.entry_facts.get(name, {})


def whole_program_data(
    program: Program, interprocedural: bool = True
) -> dict:
    """The whole-program analysis snapshot (CLI text/JSON source)."""
    from .detector import analyze_program

    graph = build_call_graph(program)
    summaries = (
        whole_program_summaries(program, graph) if interprocedural else {}
    )
    findings = analyze_program(
        program, interprocedural=interprocedural
    )
    return {
        "entry": program.entry,
        "call_graph": {
            "edges": {
                name: sorted(targets)
                for name, targets in sorted(graph.callees.items())
            },
            "sccs": [list(scc) for scc in graph.sccs],
            "recursive": sorted(graph.recursive),
            "unknown_callers": sorted(graph.unknown_callers),
        },
        "summaries": {
            name: summaries[name].as_dict() for name in sorted(summaries)
        },
        "findings": [
            {
                "function": f.function,
                "kind": f.kind,
                "site_id": f.site_id,
                "detail": f.detail,
                "always_executes": f.always_executes,
            }
            for f in findings
        ],
    }


def render_whole_program(program: Program, data: dict) -> str:
    """Human-readable rendering of :func:`whole_program_data`."""
    graph = build_call_graph(program)
    summaries = (
        whole_program_summaries(program, graph) if data["summaries"] else {}
    )
    lines: List[str] = ["call graph (callers first):"]
    for line in graph.render().splitlines():
        lines.append(f"  {line}")
    if summaries:
        lines.append("")
        lines.append("function summaries:")
        for name in graph.top_down():
            lines.append(f"  {name}: {summaries[name].render()}")
    if data["findings"]:
        lines.append("")
        lines.append("static findings:")
        for finding in data["findings"]:
            lines.append(
                f"  [{finding['kind']}] {finding['function']}: "
                f"{finding['detail']}"
            )
    return "\n".join(lines)
