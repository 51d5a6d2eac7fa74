"""Detection-study runners: Tables 3, 4, and 5.

These run the generated corpora under each tool configuration and
aggregate detections exactly the way the paper's tables do.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..passes.instrument import FoldedProgram
from ..runtime import ExecConfig, Session
from ..workloads.juliet import (
    JulietCase,
    TABLE3_CWES,
    generate_juliet_suite,  # noqa: F401  (re-exported study surface)
    juliet_suite_cached,
)
from ..workloads.linux_flaw import CveScenario, TABLE4_SCENARIOS
from ..workloads.magma import (
    TABLE5_CONFIGS,
    TABLE5_PROJECTS,
    generate_project_cases,
)

#: Tool columns of Tables 3 and 4.
DETECTION_TOOLS = ["GiantSan", "ASan", "ASan--", "LFP"]


@dataclass
class JulietResults:
    """Table 3: per-CWE detection counts for each tool."""

    detected: Dict[str, Dict[str, int]]
    totals: Dict[str, int]
    false_positives: Dict[str, int]
    latent: Dict[str, int]

    def row(self, cwe: str) -> Tuple[Dict[str, int], int]:
        return (
            {tool: self.detected[tool].get(cwe, 0) for tool in self.detected},
            self.totals.get(cwe, 0),
        )


def run_juliet_study(
    tools: Optional[List[str]] = None,
    cases: Optional[List[JulietCase]] = None,
    jobs: int = 1,
    config: ExecConfig = ExecConfig(),
) -> JulietResults:
    """Run every Juliet case under every tool (Table 3).

    ``jobs > 1`` splits the generated suite into contiguous slices and
    aggregates the per-case outcomes in case order, so results match the
    sequential run exactly.  Explicit ``cases`` always run inline (the
    workers regenerate the canonical suite by index).
    """
    tools = tools or DETECTION_TOOLS
    use_parallel = jobs > 1 and cases is None
    cases = cases if cases is not None else juliet_suite_cached()
    detected: Dict[str, Dict[str, int]] = {t: defaultdict(int) for t in tools}
    totals: Dict[str, int] = defaultdict(int)
    latent: Dict[str, int] = defaultdict(int)
    false_positives: Dict[str, int] = {t: 0 for t in tools}
    if use_parallel:
        from .parallel import juliet_worker, parallel_map, steal_spans

        # finer-grained than one span per worker so the shared queue
        # absorbs a straggling slice; case-index keyed results keep the
        # merge byte-identical to the sequential run for any granularity
        payloads = [
            (lo, hi, tools, config)
            for lo, hi in steal_spans(len(cases), jobs)
        ]
        outcomes: Dict[int, Dict[str, bool]] = {}
        for slice_outcomes in parallel_map(juliet_worker, payloads, jobs):
            for index, row in slice_outcomes:
                outcomes[index] = row
    else:
        outcomes = {
            index: juliet_row(case, tools, config)
            for index, case in enumerate(cases)
        }
    for case_index, case in enumerate(cases):
        if case.buggy:
            totals[case.cwe] += 1
            if case.latent:
                latent[case.cwe] += 1
        for tool in tools:
            has_errors = outcomes[case_index][tool]
            if case.buggy and has_errors:
                detected[tool][case.cwe] += 1
            elif not case.buggy and has_errors:
                false_positives[tool] += 1
    return JulietResults(
        detected={t: dict(d) for t, d in detected.items()},
        totals=dict(totals),
        false_positives=false_positives,
        latent=dict(latent),
    )


def juliet_row(
    case: JulietCase, tools: List[str], config: ExecConfig
) -> Dict[str, bool]:
    """Whether each tool reports ``case``, from one handle on its
    program: the case is fingerprinted and folded once for all tools."""
    program = FoldedProgram(case.program)
    return {
        tool: bool(Session(tool, config).run(program).errors)
        for tool in tools
    }


@dataclass
class CveResults:
    """Table 4: per-CVE detection flags for each tool."""

    outcomes: Dict[str, Dict[str, bool]]  # cve_id -> tool -> detected
    scenarios: List[CveScenario] = field(default_factory=list)

    def misses(self, tool: str) -> List[str]:
        return [
            cve for cve, by_tool in self.outcomes.items() if not by_tool[tool]
        ]


def run_linux_flaw_study(
    tools: Optional[List[str]] = None,
    scenarios: Optional[List[CveScenario]] = None,
    jobs: int = 1,
    config: ExecConfig = ExecConfig(),
) -> CveResults:
    """Run every CVE scenario under every tool (Table 4)."""
    tools = tools or DETECTION_TOOLS
    use_parallel = jobs > 1 and scenarios is None
    scenarios = scenarios if scenarios is not None else TABLE4_SCENARIOS
    outcomes: Dict[str, Dict[str, bool]] = {}
    if use_parallel:
        from .parallel import linux_flaw_worker, parallel_map

        payloads = [(i, tools, config) for i in range(len(scenarios))]
        for cve_id, row in parallel_map(linux_flaw_worker, payloads, jobs):
            outcomes[cve_id] = row
        return CveResults(outcomes=outcomes, scenarios=list(scenarios))
    for scenario in scenarios:
        outcomes[scenario.cve_id] = cve_row(scenario, tools, config)
    return CveResults(outcomes=outcomes, scenarios=list(scenarios))


def cve_row(
    scenario: CveScenario, tools: List[str], config: ExecConfig
) -> Dict[str, bool]:
    """One Table 4 row: whether each tool reports ``scenario``, built
    once and handed to every tool."""
    program = FoldedProgram(scenario.build())
    return {
        tool: bool(Session(tool, config).run(program).errors)
        for tool in tools
    }


@dataclass
class MagmaResults:
    """Table 5: per-project detection counts per configuration."""

    detected: Dict[str, Dict[str, int]]  # project -> config label -> count
    totals: Dict[str, int]

    def config_labels(self) -> List[str]:
        return [label for label, _, _ in TABLE5_CONFIGS]


def run_magma_study(
    projects=None, jobs: int = 1, config: ExecConfig = ExecConfig()
) -> MagmaResults:
    """Run the Magma corpora under the five redzone configurations."""
    use_parallel = jobs > 1 and projects is None
    projects = projects if projects is not None else TABLE5_PROJECTS
    if use_parallel:
        from .parallel import magma_worker, parallel_map

        payloads = [(index, config) for index in range(len(projects))]
        detected = {}
        totals = {}
        for name, per_config, total in parallel_map(
            magma_worker, payloads, jobs
        ):
            detected[name] = per_config
            totals[name] = total
        return MagmaResults(detected=detected, totals=totals)
    detected: Dict[str, Dict[str, int]] = {}
    totals: Dict[str, int] = {}
    for project in projects:
        totals[project.name] = project.total
        detected[project.name] = magma_row(project, config)
    return MagmaResults(detected=detected, totals=totals)


def magma_row(project, config: ExecConfig) -> Dict[str, int]:
    """One Table 5 row: detections per redzone configuration.  Each
    case is built once and run under every configuration."""
    per_config = {label: 0 for label, _, _ in TABLE5_CONFIGS}
    for case in generate_project_cases(project):
        program = FoldedProgram(case.build())
        for label, tool, kwargs in TABLE5_CONFIGS:
            if Session(tool, config, **kwargs).run(program).errors:
                per_config[label] += 1
    return per_config
