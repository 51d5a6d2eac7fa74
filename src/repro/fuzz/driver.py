"""Differential driver: one case, every tool, both execution paths.

For each generated case the driver runs the same program under every
tool in :data:`~repro.fuzz.expectations.ALL_TOOLS`, with the superblock
fast path ON and OFF, and cross-checks four ways:

1. **fastpath** — the ON/OFF observables (cycles, instruction counts,
   CheckStats, protection categories, return value, error log) must be
   byte-identical per tool;
2. **oracle** — the reference-path verdict must satisfy the case's
   ground-truth :func:`~repro.fuzz.expectations.expected_verdict`;
3. **invariant** — the :class:`~repro.fuzz.invariants.ShadowInvariantChecker`
   attached to every run must record zero violations;
4. **cross-tool** — bug-free cases must return the same checksum under
   every tool (all tools interpret the same program over zeroed memory).

Each tool instruments the case once for both fast-path cells, so a
case runs 6 pipelines over the default tool set.

With ``audit_elisions`` enabled, each tool additionally runs in audit
instrumentation mode: checks the static dataflow analysis elided are
kept as ``CheckElided`` markers and replayed against the shadow oracle.
A replay that fires means the elision proof was unsound for a concrete
execution — an ``elision`` divergence.  The audited run must also match
the normal run's observables (replay rollback is required to be
invisible), modulo the marker instructions themselves.

Anything that trips becomes a :class:`Divergence`; the CLI shrinks those
cases to minimal reproducers (see :mod:`repro.fuzz.shrinker`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from ..passes.instrument import fold_program
from ..runtime.session import ExecConfig, Session
from .expectations import ALL_TOOLS, expected_verdict, verdict_matches
from .generator import FuzzCase, build_case, case_seed_for, generate_case
from .invariants import ShadowInvariantChecker

#: Generated programs are tiny; a tight budget turns any accidental
#: interpreter runaway into a visible crash-divergence instead of a hang.
CASE_MAX_INSTRUCTIONS = 2_000_000


@dataclass(frozen=True)
class Divergence:
    """One explained-away-able-by-nobody discrepancy."""

    case_seed: int
    tool: str  # "*" for cross-tool findings
    kind: str  # fastpath|oracle|invariant|cross-tool|elision|crash
    detail: str

    def render(self) -> str:
        return f"seed={self.case_seed} tool={self.tool} [{self.kind}] {self.detail}"


@dataclass
class CaseReport:
    """Everything the driver learned about one case."""

    case: FuzzCase
    divergences: List[Divergence]
    invariant_checks: int = 0

    @property
    def clean(self) -> bool:
        return not self.divergences


def observables(result) -> dict:
    """The fastpath-equivalence surface: cycles, instruction count,
    return value, CheckStats, protection categories and each error's
    kind and address."""
    return {
        "native_cycles": result.native_cycles,
        "instructions": result.instructions_executed,
        "return_value": result.return_value,
        "stats": result.stats.as_dict(),
        "protection": dict(result.protection_counts),
        "errors": [(e.kind, e.address) for e in result.errors],
    }


def _session(tool: str, config: ExecConfig, audit=False, **overrides):
    """An unmemoized, budget-capped Session over ``config``."""
    return Session(
        tool,
        replace(config, memoize=False, **overrides),
        max_instructions=CASE_MAX_INSTRUCTIONS,
        audit_elisions=audit,
    )


def _cell(
    tool: str, config: ExecConfig, fastpath: bool
) -> Tuple[Session, ShadowInvariantChecker]:
    """One fast-path cell's session, with a recording checker on it."""
    session = _session(tool, config, fastpath=fastpath)
    return session, ShadowInvariantChecker.attach(session.sanitizer)


def _run_one(
    program, tool: str, config: ExecConfig, fastpath: bool
) -> Tuple[object, ShadowInvariantChecker]:
    """Run one cell; ``program`` may be another cell's instrumented
    program, since instrumentation does not depend on ``fastpath``."""
    session, checker = _cell(tool, config, fastpath)
    return session.run(program), checker


def _audit_elisions(
    program, tool: str, config: ExecConfig, case: FuzzCase, baseline_obs: dict
) -> List[Divergence]:
    """Replay every elision decision against the shadow oracle."""
    result = _session(tool, config, audit=True, fastpath=False).run(program)
    divergences: List[Divergence] = []
    for failure in result.elision_audit_failures:
        divergences.append(
            Divergence(
                case.seed, tool, "elision",
                f"site {failure.site_id}: replay fired "
                f"{failure.report.kind.value}; static proof was: "
                f"{failure.reason}",
            )
        )
    audited = observables(result)
    # marker instructions execute, so instruction counts legitimately
    # differ; everything else must be untouched by the replay rollback
    for key in ("native_cycles", "return_value", "stats", "protection",
                "errors"):
        if audited[key] != baseline_obs[key]:
            divergences.append(
                Divergence(
                    case.seed, tool, "elision",
                    f"audit run perturbed observable {key!r}",
                )
            )
    return divergences


def run_case(
    case: FuzzCase,
    tools: Sequence[str] = ALL_TOOLS,
    audit_elisions: bool = False,
    config: ExecConfig = ExecConfig(),
) -> CaseReport:
    """Run ``case`` through the full differential matrix."""
    divergences: List[Divergence] = []
    invariant_checks = 0
    source = build_case(case)
    # constant propagation does not depend on the tool: fold once, and
    # let each (tool, audit) pipeline start from there
    try:
        program = fold_program(source)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        # every tool's pipeline would have crashed in the same prefix
        return CaseReport(
            case,
            [
                Divergence(
                    case.seed, tool, "crash", f"{type(exc).__name__}: {exc}"
                )
                for tool in tools
            ],
            0,
        )
    returns: Dict[str, int] = {}
    for tool in tools:
        try:
            # the off cell instruments once, with its own sanitizer
            session, checker_off = _cell(tool, config, False)
            iprogram = session.instrument(program)
            off = session.run(iprogram)
            on, checker_on = _run_one(iprogram, tool, config, True)
            if audit_elisions:
                divergences.extend(
                    _audit_elisions(
                        program, tool, config, case, observables(off)
                    )
                )
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            divergences.append(
                Divergence(
                    case.seed, tool, "crash",
                    f"{type(exc).__name__}: {exc}",
                )
            )
            continue

        obs_off, obs_on = observables(off), observables(on)
        if obs_off != obs_on:
            diff_keys = sorted(
                key for key in obs_off if obs_off[key] != obs_on[key]
            )
            divergences.append(
                Divergence(
                    case.seed, tool, "fastpath",
                    f"on/off observables differ in {diff_keys}",
                )
            )

        for checker in (checker_off, checker_on):
            invariant_checks += checker.checks_run
            for violation in checker.violations:
                divergences.append(
                    Divergence(case.seed, tool, "invariant", violation)
                )

        expectation = expected_verdict(tool, case.bug)
        errors = off.errors
        mismatch = verdict_matches(
            expectation,
            reported=bool(errors),
            any_temporal=any(e.kind.is_temporal for e in errors),
            any_spatial=any(e.kind.is_spatial for e in errors),
        )
        if mismatch is not None:
            seen = ", ".join(sorted({e.kind.value for e in errors})) or "none"
            bug_kind = case.bug.kind if case.bug else "none"
            divergences.append(
                Divergence(
                    case.seed, tool, "oracle",
                    f"{mismatch}; bug={bug_kind}, reports=[{seen}]",
                )
            )
        returns[tool] = off.return_value

    if case.bug is None and len(set(returns.values())) > 1:
        divergences.append(
            Divergence(
                case.seed, "*", "cross-tool",
                f"clean-case return values differ: {returns}",
            )
        )
    return CaseReport(case, divergences, invariant_checks)


def divergence_signature(report: CaseReport) -> frozenset:
    """What the shrinker must preserve: the set of (tool, kind) pairs."""
    return frozenset((d.tool, d.kind) for d in report.divergences)


# ----------------------------------------------------------------------
# batch running + the process-pool worker
# ----------------------------------------------------------------------
@dataclass
class FuzzSummary:
    """Aggregated outcome of a fuzzing run."""

    cases: int = 0
    buggy_cases: int = 0
    invariant_checks: int = 0
    findings: List[dict] = None  # [{seed, tool, kind, detail, repro}]

    def __post_init__(self):
        if self.findings is None:
            self.findings = []

    def merge(self, other: "FuzzSummary") -> None:
        self.cases += other.cases
        self.buggy_cases += other.buggy_cases
        self.invariant_checks += other.invariant_checks
        self.findings.extend(other.findings)


def fuzz_span(
    seed: int,
    start: int,
    stop: int,
    bug_probability: float = 0.55,
    shrink: bool = True,
    tools: Sequence[str] = ALL_TOOLS,
    audit_elisions: bool = False,
    config: ExecConfig = ExecConfig(),
) -> FuzzSummary:
    """Fuzz case indices ``[start, stop)`` for the base ``seed``."""
    from .shrinker import shrink_case  # local: avoids an import cycle

    summary = FuzzSummary()
    for index in range(start, stop):
        case = generate_case(
            case_seed_for(seed, index), bug_probability=bug_probability
        )
        summary.cases += 1
        if case.bug is not None:
            summary.buggy_cases += 1
        report = run_case(case, tools, audit_elisions, config)
        summary.invariant_checks += report.invariant_checks
        if report.clean:
            continue
        reduced = shrink_case(case, tools, config=config) if shrink else case
        for divergence in report.divergences:
            summary.findings.append(
                {
                    "seed": divergence.case_seed,
                    "tool": divergence.tool,
                    "kind": divergence.kind,
                    "detail": divergence.detail,
                    "repro": reduced.describe(),
                }
            )
    return summary


def fuzz_worker(payload) -> FuzzSummary:
    """Module-level worker for :func:`repro.analysis.parallel.parallel_map`."""
    seed, start, stop, bug_probability, shrink, audit, config = payload
    return fuzz_span(
        seed, start, stop, bug_probability, shrink,
        audit_elisions=audit, config=config,
    )


def fuzz_spans(
    spans: Sequence[Tuple[int, int]],
    jobs: int,
    seed: int,
    bug_probability: float,
    shrink: bool,
    audit_elisions: bool,
    config: ExecConfig,
) -> FuzzSummary:
    """Fuzz every ``(start, stop)`` span across up to ``jobs`` pool
    workers; spans merge in order, so any ``jobs`` gives one summary."""
    from ..analysis.parallel import parallel_map

    summary = FuzzSummary()
    for partial in parallel_map(
        fuzz_worker,
        [
            (seed, lo, hi, bug_probability, shrink, audit_elisions, config)
            for lo, hi in spans
        ],
        jobs,
    ):
        summary.merge(partial)
    return summary
