"""Figure harnesses: the Fig. 10 check breakdown and Fig. 11 traversals.

Figure 10 classifies every dynamic memory access GiantSan protects into
Eliminated / Cached / FastOnly / FullCheck, with ASan's per-access checks
as the baseline denominator.  Figure 11 measures traversal cost for
Native / GiantSan / ASan over growing buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..passes.instrument import FoldedProgram
from ..runtime import DEFAULT_COST_MODEL, CostModel, ExecConfig, Session
from ..workloads.spec import SPEC_TABLE2_ROWS, SpecProgram
from ..workloads.traversals import FIGURE11_PATTERNS, FIGURE11_SIZES

#: Figure 10 category names, in plot-stack order.
FIG10_CATEGORIES = ["full_check", "fast_only", "cached", "eliminated"]


@dataclass
class CheckBreakdown:
    """One Figure 10 bar: category fractions for one program."""

    program: str
    counts: Dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.get(c, 0) for c in FIG10_CATEGORIES)

    def fraction(self, category: str) -> float:
        total = self.total
        return self.counts.get(category, 0) / total if total else 0.0

    @property
    def optimized_fraction(self) -> float:
        """Eliminated + cached: the paper reports 52.56% on average."""
        return self.fraction("eliminated") + self.fraction("cached")

    @property
    def fast_only_share_of_unoptimized(self) -> float:
        """Among remaining checks, the fast-check-only share (49.22%)."""
        remaining = self.counts.get("fast_only", 0) + self.counts.get(
            "full_check", 0
        )
        if not remaining:
            return 0.0
        return self.counts.get("fast_only", 0) / remaining

    @property
    def elided_fraction(self) -> float:
        """Accesses whose checks the static analysis removed outright.

        Kept outside the four Figure 10 categories (whose fractions
        partition the checked accesses, as in the paper); this counts
        against checked + elided so the column reads as a share of all
        classified accesses.
        """
        elided = self.counts.get("elided", 0)
        denominator = self.total + elided
        return elided / denominator if denominator else 0.0


def measure_check_breakdown(
    spec: SpecProgram,
    scale: Optional[int] = None,
    config: ExecConfig = ExecConfig(),
) -> CheckBreakdown:
    """Run one proxy under GiantSan and collect Figure 10 categories."""
    program = FoldedProgram(spec.build())
    args = [scale if scale is not None else spec.default_scale]
    result = Session("GiantSan", config).run(program, args)
    counts = {
        category: result.protection_counts.get(category, 0)
        for category in FIG10_CATEGORIES + ["elided"]
    }
    # Telemetry companions to the category stack: the dynamic CI(L,R)
    # split and quasi-bound cache traffic behind the same run.  They sit
    # outside FIG10_CATEGORIES so fractions still partition the checked
    # accesses.
    counts["fast_checks"] = result.stats.fast_checks
    counts["slow_checks"] = result.stats.slow_checks
    counts["cached_hits"] = result.stats.cached_hits
    counts["cache_updates"] = result.stats.cache_updates
    return CheckBreakdown(program=spec.name, counts=counts)


def run_figure10_study(
    programs: Optional[List[SpecProgram]] = None,
    scale: Optional[int] = None,
    jobs: int = 1,
    config: ExecConfig = ExecConfig(),
) -> List[CheckBreakdown]:
    from .parallel import figure10_worker, map_specs

    return map_specs(
        figure10_worker, measure_check_breakdown,
        programs or SPEC_TABLE2_ROWS, (scale, config), jobs,
    )


# ----------------------------------------------------------------------
# Figure 11
# ----------------------------------------------------------------------
@dataclass
class TraversalPoint:
    """One point of one Figure 11 series."""

    pattern: str
    size: int
    tool: str
    cycles: float


@dataclass
class TraversalStudy:
    points: List[TraversalPoint] = field(default_factory=list)

    def series(self, pattern: str, tool: str) -> List[TraversalPoint]:
        return [
            p for p in self.points if p.pattern == pattern and p.tool == tool
        ]

    def speedup_vs_asan(self, pattern: str) -> float:
        """Geometric-mean ASan/GiantSan cycle ratio for one pattern."""
        from ..runtime import geometric_mean

        ratios = []
        for size in sorted({p.size for p in self.points}):
            asan = [
                p
                for p in self.points
                if (p.pattern, p.tool, p.size) == (pattern, "ASan", size)
            ]
            giant = [
                p
                for p in self.points
                if (p.pattern, p.tool, p.size) == (pattern, "GiantSan", size)
            ]
            if asan and giant:
                ratios.append(asan[0].cycles / giant[0].cycles)
        return geometric_mean(ratios)


FIGURE11_TOOLS = ["Native", "GiantSan", "ASan"]


def run_figure11_study(
    sizes: Optional[List[int]] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    jobs: int = 1,
    config: ExecConfig = ExecConfig(),
) -> TraversalStudy:
    """The three traversal patterns over the buffer-size sweep."""
    from .parallel import figure11_worker, parallel_map

    sizes = sizes or FIGURE11_SIZES
    payloads = [
        (pattern_index, size, cost_model, config)
        for pattern_index in range(len(FIGURE11_PATTERNS))
        for size in sizes
    ]
    study = TraversalStudy()
    for points in parallel_map(figure11_worker, payloads, jobs):
        study.points.extend(points)
    return study
