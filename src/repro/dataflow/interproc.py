"""The whole-program listing of ``repro analyze --whole-program``.

:func:`whole_program_data` is the listing's JSON snapshot and
:func:`render_whole_program` its text form: the call graph, a summary
of every function (the uncalled ones included, see
:func:`~repro.dataflow.summaries.whole_program_summaries`), and the
static findings the detector makes with those summaries at each call.
Each summarizes every function once.  The instrumentation passes read
no summaries: they analyze each function on its own.

``compute_summaries`` is bound here as well as in
:mod:`repro.dataflow.summaries`, so a profiler that wraps it by module
sees every call.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.program import Program
from .callgraph import CallGraph, build_call_graph
from .summaries import (  # noqa: F401 - compute_summaries is re-exported
    FunctionSummary,
    compute_summaries,
    whole_program_summaries,
)


def _analyze(
    program: Program,
) -> Tuple[CallGraph, Dict[str, FunctionSummary], list]:
    """The call graph, every function's summary, and the findings."""
    from .detector import analyze_program

    graph = build_call_graph(program)
    summaries = whole_program_summaries(program, graph)
    return graph, summaries, analyze_program(program, summaries=summaries)


def whole_program_data(program: Program) -> dict:
    """The whole-program analysis snapshot (the listing's JSON form)."""
    graph, summaries, findings = _analyze(program)
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


def render_whole_program(program: Program) -> str:
    """The whole-program listing as text."""
    graph, summaries, findings = _analyze(program)
    lines: List[str] = ["call graph (callers first):"]
    for line in graph.render().splitlines():
        lines.append(f"  {line}")
    lines.append("")
    lines.append("function summaries:")
    for name in graph.top_down():
        lines.append(f"  {name}: {summaries[name].render()}")
    if findings:
        lines.append("")
        lines.append("static findings:")
        for finding in findings:
            lines.append(
                f"  [{finding.kind}] {finding.function}: {finding.detail}"
            )
    return "\n".join(lines)
