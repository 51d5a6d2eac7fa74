"""Text renderers that print each experiment in the paper's layout."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir import CheckAccess, CheckCached, CheckRegion, walk
from ..passes import instrument
from ..runtime import ExecConfig, Session
from ..sanitizers import SANITIZER_FACTORIES
from ..workloads.juliet import TABLE3_CWES
from ..workloads.magma import TABLE5_CONFIGS, TABLE5_PROJECTS
from ..workloads.patterns import TABLE1_PATTERNS
from .detection import (
    CveResults,
    JulietResults,
    MagmaResults,
)
from .figures import CheckBreakdown, FIG10_CATEGORIES, TraversalStudy
from .overhead import OverheadStudy


def _static_checks(program) -> int:
    return sum(
        1
        for f in program.functions.values()
        for i in walk(f.body)
        if isinstance(i, (CheckAccess, CheckRegion, CheckCached))
    )


def render_table1(n: int = 64, config: Optional[ExecConfig] = None) -> str:
    """Table 1: #checks under operation-level vs instruction-level
    protection, measured by actually instrumenting and running each
    pattern under GiantSan and ASan."""
    config = ExecConfig.from_env() if config is None else config
    lines = [
        "Table 1: operation-level vs instruction-level protection",
        f"{'Analysis Method':24s} {'op-level static':>16s} "
        f"{'op-level dynamic':>17s} {'instr-level dynamic':>20s} "
        f"{'fast':>7s} {'slow':>7s}",
    ]
    for pattern in TABLE1_PATTERNS:
        program = pattern.build()
        giant = Session("GiantSan", config)
        iprog = instrument(
            program, tool=giant.sanitizer,
            interprocedural=config.interprocedural,
        )
        static_checks = _static_checks(iprog.program)
        giant_run = Session("GiantSan", config).run(program)
        asan_run = Session("ASan", config).run(program)
        giant_checks = giant_run.stats.checks_executed
        asan_checks = (
            asan_run.stats.checks_executed + asan_run.stats.segments_scanned
        )
        lines.append(
            f"{pattern.analysis:24s} {static_checks:>16d} "
            f"{giant_checks:>17d} {asan_checks:>20d} "
            f"{giant_run.stats.fast_checks:>7d} "
            f"{giant_run.stats.slow_checks:>7d}"
        )
    lines.append(
        "(fast/slow: GiantSan CI(L,R) split — slow > 0 only when the "
        "folded segment cannot vouch for the whole region)"
    )
    return "\n".join(lines)


def render_table2(
    study: OverheadStudy, ablation: Optional[OverheadStudy] = None
) -> str:
    """Table 2: per-program overhead percentages plus geometric means."""
    tools = list(study.tools)
    header = f"{'Programs':20s} " + " ".join(f"{t:>26s}" for t in tools)
    if ablation:
        header += " | " + " ".join(f"{t:>26s}" for t in ablation.tools)
    lines = ["Table 2: runtime overhead (percent of native)", header]
    ablation_by_name = (
        {row.program: row for row in ablation.rows} if ablation else {}
    )
    for row in study.rows:
        cells = " ".join(
            f"{row.ratio_percent(tool):>25.2f}%" for tool in tools
        )
        line = f"{row.program:20s} {cells}"
        extra = ablation_by_name.get(row.program)
        if extra:
            line += " | " + " ".join(
                f"{extra.ratio_percent(tool):>25.2f}%"
                for tool in ablation.tools
            )
        lines.append(line)
    means = study.geometric_means()
    cells = " ".join(f"{means[tool] * 100:>25.2f}%" for tool in tools)
    line = f"{'Geometric Means.':20s} {cells}"
    if ablation:
        ab_means = ablation.geometric_means()
        line += " | " + " ".join(
            f"{ab_means[tool] * 100:>25.2f}%" for tool in ablation.tools
        )
    lines.append(line)
    return "\n".join(lines)


def render_table3(results: JulietResults) -> str:
    """Table 3: Juliet detection counts per CWE."""
    tools = list(results.detected)
    lines = [
        "Table 3: detection capability on the generated Juliet-style suite",
        f"{'CWE ID & Type':46s} "
        + " ".join(f"{t:>10s}" for t in tools)
        + f" {'Total':>7s}",
    ]
    for cwe, label in TABLE3_CWES:
        by_tool, total = results.row(cwe)
        lines.append(
            f"{cwe + ': ' + label:46s} "
            + " ".join(f"{by_tool[t]:>10d}" for t in tools)
            + f" {total:>7d}"
        )
    total_by_tool = {
        t: sum(results.detected[t].values()) for t in tools
    }
    grand_total = sum(results.totals.values())
    lines.append(
        f"{'Total':46s} "
        + " ".join(f"{total_by_tool[t]:>10d}" for t in tools)
        + f" {grand_total:>7d}"
    )
    fps = ", ".join(f"{t}={n}" for t, n in results.false_positives.items())
    lines.append(f"(false positives on non-buggy twins: {fps})")
    return "\n".join(lines)


def render_table4(results: CveResults) -> str:
    """Table 4: per-CVE detection matrix."""
    tools = list(next(iter(results.outcomes.values())))
    lines = [
        "Table 4: detection capability for Linux Flaw Project CVEs",
        f"{'Program':15s} {'CVE ID':18s} "
        + " ".join(f"{t:>10s}" for t in tools),
    ]
    for scenario in results.scenarios:
        row = results.outcomes[scenario.cve_id]
        marks = " ".join(
            f"{'yes' if row[t] else '-':>10s}" for t in tools
        )
        lines.append(f"{scenario.program_name:15s} {scenario.cve_id:18s} {marks}")
    return "\n".join(lines)


def render_table5(results: MagmaResults) -> str:
    """Table 5: Magma detections per redzone configuration."""
    labels = results.config_labels()
    lines = [
        "Table 5: detection in Magma-style corpora vs redzone size",
        f"{'Project':12s} "
        + " ".join(f"{label:>17s}" for label in labels)
        + f" {'Total':>7s}",
    ]
    for project in TABLE5_PROJECTS:
        if project.name not in results.detected:
            continue
        per_config = results.detected[project.name]
        lines.append(
            f"{project.name:12s} "
            + " ".join(f"{per_config[label]:>17d}" for label in labels)
            + f" {results.totals[project.name]:>7d}"
        )
    return "\n".join(lines)


def render_figure10(breakdowns: List[CheckBreakdown]) -> str:
    """Figure 10 as a text table of category fractions per program."""
    lines = [
        "Figure 10: proportion of memory accesses per protection category",
        f"{'Program':20s} "
        + " ".join(f"{c:>12s}" for c in FIG10_CATEGORIES)
        + f" {'optimized':>10s} {'elided':>8s}"
        + f" {'fast':>9s} {'slow':>7s} {'qb-hit':>8s}",
    ]
    for item in breakdowns:
        lines.append(
            f"{item.program:20s} "
            + " ".join(
                f"{item.fraction(c) * 100:>11.1f}%" for c in FIG10_CATEGORIES
            )
            + f" {item.optimized_fraction * 100:>9.1f}%"
            + f" {item.elided_fraction * 100:>7.1f}%"
            + f" {item.counts.get('fast_checks', 0):>9d}"
            + f" {item.counts.get('slow_checks', 0):>7d}"
            + f" {item.counts.get('cached_hits', 0):>8d}"
        )
    if breakdowns:
        mean_opt = sum(b.optimized_fraction for b in breakdowns) / len(
            breakdowns
        )
        mean_fast = sum(
            b.fast_only_share_of_unoptimized for b in breakdowns
        ) / len(breakdowns)
        lines.append(
            f"(mean optimized: {mean_opt * 100:.2f}%; fast-only share of "
            f"unoptimized: {mean_fast * 100:.2f}%;"
            " paper: 52.56% and 49.22%)"
        )
    return "\n".join(lines)


def render_figure11(study: TraversalStudy) -> str:
    """Figure 11 as a text table of cycles per tool and size."""
    lines = ["Figure 11: traversal cost (simulated cycles)"]
    patterns = sorted({p.pattern for p in study.points})
    tools = ["Native", "GiantSan", "ASan"]
    for pattern in patterns:
        lines.append(f"-- {pattern} traversal --")
        lines.append(
            f"{'size':>8s} " + " ".join(f"{t:>12s}" for t in tools)
        )
        sizes = sorted({p.size for p in study.points if p.pattern == pattern})
        for size in sizes:
            row = [f"{size:>8d}"]
            for tool in tools:
                match = [
                    p
                    for p in study.points
                    if (p.pattern, p.tool, p.size) == (pattern, tool, size)
                ]
                row.append(f"{match[0].cycles:>12.0f}" if match else " " * 12)
            lines.append(" ".join(row))
        lines.append(
            f"   ASan/GiantSan cycle ratio: "
            f"{study.speedup_vs_asan(pattern):.2f}x"
        )
    return "\n".join(lines)


def render_study(
    target: str,
    jobs: int = 1,
    scale: Optional[int] = None,
    config: Optional[ExecConfig] = None,
) -> str:
    """Run Table 1, 3, 4 or 5 or Figure 10 or 11 and render it as
    ``repro <target>`` prints it (``scale`` applies to Figure 10)."""
    from . import detection, figures

    if target == "table1":
        return render_table1(config=config)
    if target == "fig10":
        return render_figure10(
            figures.run_figure10_study(scale=scale, jobs=jobs, config=config)
        )
    run, render = {
        "table3": (detection.run_juliet_study, render_table3),
        "table4": (detection.run_linux_flaw_study, render_table4),
        "table5": (detection.run_magma_study, render_table5),
        "fig11": (figures.run_figure11_study, render_figure11),
    }[target]
    return render(run(jobs=jobs, config=config))
