"""Overhead aggregation: the Table 2 computation.

Runs the SPEC proxies under a set of tool configurations, derives
per-program overhead ratios against the Native run, and aggregates with
the geometric mean exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..passes.instrument import FoldedProgram
from ..runtime import DEFAULT_COST_MODEL, CostModel, RunResult, Session
from ..runtime.session import ExecConfig
from ..workloads.spec import SPEC_TABLE2_ROWS, SpecProgram

#: The tool columns of Table 2's performance study.
PERFORMANCE_TOOLS = ["GiantSan", "ASan", "ASan--", "LFP"]

#: The ablation columns.
ABLATION_TOOLS = ["GiantSan-CacheOnly", "GiantSan-EliminationOnly"]


@dataclass
class ProgramOverheads:
    """One Table 2 row: native cycles and per-tool overhead ratios."""

    program: str
    native_cycles: float
    ratios: Dict[str, float] = field(default_factory=dict)
    results: Dict[str, RunResult] = field(default_factory=dict)

    def ratio_percent(self, tool: str) -> float:
        return self.ratios[tool] * 100.0


@dataclass
class OverheadStudy:
    """All rows plus the geometric means."""

    rows: List[ProgramOverheads]
    tools: List[str]

    def geometric_means(self) -> Dict[str, float]:
        from ..runtime import geometric_mean

        return {
            tool: geometric_mean([row.ratios[tool] for row in self.rows])
            for tool in self.tools
        }


def measure_program(
    spec: SpecProgram,
    tools: List[str],
    scale: Optional[int] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    config: ExecConfig = ExecConfig(),
) -> ProgramOverheads:
    """Run one SPEC proxy under Native plus ``tools``; returns ratios.

    The Native run supplies the baseline cycle count; every tool's ratio
    is its *total* simulated cycles over the Native total, mirroring the
    paper's wall-clock ratio column.  The proxy is built once, and one
    :class:`~repro.passes.instrument.FoldedProgram` serves every run.
    """
    program = FoldedProgram(spec.build())
    args = [scale if scale is not None else spec.default_scale]

    def run(tool: str) -> RunResult:
        return Session(tool, config, cost_model=cost_model).run(program, args)

    baseline = run("Native").total_cycles(cost_model)
    row = ProgramOverheads(program=spec.name, native_cycles=baseline)
    for tool in tools:
        result = run(tool)
        row.ratios[tool] = result.total_cycles(cost_model) / baseline
        row.results[tool] = result
    return row


def run_overhead_study(
    tools: Optional[List[str]] = None,
    programs: Optional[List[SpecProgram]] = None,
    scale: Optional[int] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    jobs: int = 1,
    config: ExecConfig = ExecConfig(),
) -> OverheadStudy:
    """The full Table 2 sweep (24 programs by default).

    ``jobs > 1`` fans the per-program rows out across worker processes
    (row order and values are identical to the sequential run); custom
    ``programs`` outside the canonical registry always run inline.
    """
    from .parallel import map_specs, overhead_worker

    tools = tools or PERFORMANCE_TOOLS
    rows = map_specs(
        overhead_worker, measure_program, programs or SPEC_TABLE2_ROWS,
        (tools, scale, cost_model, config), jobs,
    )
    return OverheadStudy(rows=rows, tools=tools)
