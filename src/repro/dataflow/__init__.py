"""Whole-function dataflow framework (CFG, solver, analyses).

Lowers the structured mini-IR to an explicit CFG, computes dominators,
and runs a generic forward worklist solver hosting:

* :class:`~repro.dataflow.intervals.IntervalAnalysis` — value ranges,
  SCEV-flavored handling of loop induction variables;
* :class:`~repro.dataflow.allocstate.AllocStateAnalysis` — per-root
  LIVE/FREED/MAYBE lifetime states;
* :class:`~repro.dataflow.available.AvailableCheckAnalysis` — which
  byte ranges are already guarded on every incoming path.

The instrumentation passes consume these facts to elide provably safe
checks and eliminate redundant ones across block boundaries; the static
detector (:mod:`~repro.dataflow.detector`) reports definite memory bugs
before the program ever runs.

The whole-program listing of ``repro analyze --whole-program``
(:mod:`~repro.dataflow.interproc`) sits on top: a call graph with SCC
condensation (:mod:`~repro.dataflow.callgraph`) and bottom-up function
summaries (:mod:`~repro.dataflow.summaries`) that let the analyses
consume ``Call`` sites precisely instead of clobbering to ⊤.  The
passes analyze each function on its own.

Import discipline: this package never imports :mod:`repro.passes` at
module load time (only lazily inside functions) — the passes import us.
"""

from .cfg import (
    CFG,
    ENTRY,
    EXIT,
    JOIN,
    LOOP_HEADER,
    PLAIN,
    BasicBlock,
    lower_function,
)
from .dominators import dominates, dominators_of, immediate_dominators
from .solver import ForwardAnalysis, Solution, solve
from .intervals import (
    BOTTOM,
    TOP,
    Interval,
    IntervalAnalysis,
    const,
    eval_expr,
)
from .allocstate import FREED, LIVE, MAYBE, AllocStateAnalysis
from .available import (
    AvailableCheckAnalysis,
    IntervalSet,
    covers,
    intersect,
    normalize,
    union,
)
from .detector import (
    FunctionDataflow,
    StaticFinding,
    analyze_program,
    detect_function,
    root_sizes,
)
from .callgraph import CallGraph, build_call_graph
from .summaries import (
    FunctionSummary,
    MustAccessAnalysis,
    ParamFacts,
    compute_summaries,
    conservative_summary,
)
from .interproc import render_whole_program, whole_program_data

__all__ = [
    "CFG",
    "BasicBlock",
    "lower_function",
    "ENTRY",
    "EXIT",
    "PLAIN",
    "LOOP_HEADER",
    "JOIN",
    "immediate_dominators",
    "dominators_of",
    "dominates",
    "ForwardAnalysis",
    "Solution",
    "solve",
    "Interval",
    "IntervalAnalysis",
    "TOP",
    "BOTTOM",
    "const",
    "eval_expr",
    "AllocStateAnalysis",
    "LIVE",
    "FREED",
    "MAYBE",
    "AvailableCheckAnalysis",
    "IntervalSet",
    "normalize",
    "union",
    "intersect",
    "covers",
    "FunctionDataflow",
    "StaticFinding",
    "analyze_program",
    "detect_function",
    "root_sizes",
    "CallGraph",
    "build_call_graph",
    "FunctionSummary",
    "ParamFacts",
    "MustAccessAnalysis",
    "compute_summaries",
    "conservative_summary",
    "render_whole_program",
    "whole_program_data",
]
