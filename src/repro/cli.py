"""Command-line interface: regenerate the paper's experiments.

Usage (installed as ``python -m repro``)::

    python -m repro list                         # experiments available
    python -m repro table1
    python -m repro table2 --scale 2 --ablation
    python -m repro table3
    python -m repro table4
    python -m repro table5
    python -m repro fig10 --scale 2
    python -m repro fig11
    python -m repro bench --jobs 4               # timed Table 2 sweep
    python -m repro profile --tool GiantSan      # telemetry counters
    python -m repro serve --port 8321            # REST control plane
    python -m repro demo                         # quickstart bug report

Experiment sweeps accept ``--jobs N`` to fan cells out across worker
processes; results are identical to ``--jobs 1``.  :func:`main`
resolves the :class:`~repro.runtime.session.ExecConfig` once from the
``REPRO_*`` switches and passes it to the command.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional


def _cmd_study(args, config) -> str:
    """Tables 1 and 3-5, Figures 10 and 11."""
    from .analysis import render_study

    return render_study(
        args.command, getattr(args, "jobs", 1), getattr(args, "scale", None),
        config,
    )


def _cmd_table2(args, config) -> str:
    from .analysis import (
        ABLATION_TOOLS,
        PERFORMANCE_TOOLS,
        overhead_to_rows,
        render_table2,
        run_overhead_study,
        to_csv,
        to_json,
    )

    tools = list(PERFORMANCE_TOOLS)
    if args.ablation:
        tools += ABLATION_TOOLS
    study = run_overhead_study(
        tools=tools, scale=args.scale, jobs=args.jobs, config=config
    )
    if args.format == "csv":
        return to_csv(overhead_to_rows(study)).rstrip()
    if args.format == "json":
        return to_json(overhead_to_rows(study))
    return render_table2(study)


def _cmd_bench(args, config) -> str:
    """Time the full Table 2 sweep; the wall-clock benchmark entry point."""
    import time

    from .analysis import PERFORMANCE_TOOLS, run_overhead_study
    from .runtime import geometric_mean

    started = time.perf_counter()
    study = run_overhead_study(
        tools=list(PERFORMANCE_TOOLS), scale=args.scale, jobs=args.jobs,
        config=config,
    )
    elapsed = time.perf_counter() - started
    lines = [
        f"table2 sweep: {len(study.rows)} programs x "
        f"{len(study.tools) + 1} tools, jobs={args.jobs}",
        f"wall-clock: {elapsed:.2f}s",
    ]
    for tool, mean in study.geometric_means().items():
        lines.append(f"  geomean {tool}: {mean * 100.0:.1f}%")
    return "\n".join(lines)


def _cmd_profile(args, config) -> str:
    """Telemetry profile: fast/slow split, quasi-bound convergence, phases."""
    from .analysis import (
        profile_to_json,
        render_profile,
        run_profile_study,
        telemetry_to_rows,
        to_csv,
        wiring_problems,
    )
    from .workloads import SPEC_BY_NAME

    if args.program is not None and args.program not in SPEC_BY_NAME:
        known = ", ".join(sorted(SPEC_BY_NAME))
        raise SystemExit(
            f"unknown program {args.program!r}; known programs: {known}"
        )
    programs = (
        [SPEC_BY_NAME[args.program]] if args.program is not None else None
    )
    try:
        study = run_profile_study(
            tool=args.tool, programs=programs, scale=args.scale,
            jobs=args.jobs, config=config,
        )
    except ValueError as exc:  # unknown tool
        raise SystemExit(str(exc))
    if args.format == "csv":
        output = to_csv(telemetry_to_rows(study)).rstrip()
    elif args.format == "json":
        output = profile_to_json(study)
    else:
        output = render_profile(study)
    if args.assert_checks:
        problems = wiring_problems(study)
        if problems:
            print(output)
            print("telemetry wiring regression:")
            for problem in problems:
                print(f"  {problem}")
            raise SystemExit(1)
    return output


def _cmd_fuzz(args, config) -> str:
    """Differential fuzzing sweep: all tools, fastpath on and off."""
    from .analysis.parallel import steal_spans
    from .fuzz.driver import fuzz_spans, run_case
    from .fuzz.generator import case_seed_for, generate_case

    if args.repro is not None:
        case = generate_case(args.repro, bug_probability=args.bug_probability)
        report = run_case(
            case, audit_elisions=args.audit_elisions, config=config
        )
        lines = [case.describe(), ""]
        if report.clean:
            lines.append(
                f"case clean ({report.invariant_checks} invariant checks)"
            )
            return "\n".join(lines)
        for divergence in report.divergences:
            lines.append(divergence.render())
        print("\n".join(lines))
        raise SystemExit(1)

    # steal-friendly spans: finer than one per worker so a case that
    # shrinks slowly doesn't serialize the sweep; ascending-span merge
    # keeps the summary byte-identical to --jobs 1 at any granularity
    summary = fuzz_spans(
        steal_spans(args.iterations, args.jobs), args.jobs, args.seed,
        args.bug_probability, not args.no_shrink, args.audit_elisions,
        config,
    )
    audited = " + elision audit" if args.audit_elisions else ""
    lines = [
        f"fuzzed {summary.cases} cases (seed={args.seed}, "
        f"{summary.buggy_cases} with injected bugs) under all tools, "
        f"fastpath on+off{audited}",
        f"invariant checks passed: {summary.invariant_checks}",
        f"divergences: {len(summary.findings)}",
    ]
    if not summary.findings:
        return "\n".join(lines)
    seen_repro = set()
    for finding in summary.findings:
        lines.append(
            f"  seed={finding['seed']} tool={finding['tool']} "
            f"[{finding['kind']}] {finding['detail']}"
        )
        if finding["seed"] not in seen_repro:
            seen_repro.add(finding["seed"])
            lines.append("  minimized reproducer:")
            lines.extend(
                f"    {line}" for line in finding["repro"].splitlines()
            )
    print("\n".join(lines))
    raise SystemExit(1)


def _analyze_corpus(args) -> list:
    """``[(name, program, expected_buggy)]`` for the selected corpus.

    ``expected_buggy`` is None for the SPEC proxies (clean by design)
    and the generated Juliet case's ground truth otherwise — the CI
    static-analysis job asserts zero findings on the clean half.
    """
    if args.corpus == "callheavy":
        from .workloads import build_callheavy_program

        return [("callheavy", build_callheavy_program(), None)]
    if args.corpus == "juliet":
        from .workloads import juliet_suite_cached

        cases = juliet_suite_cached()
        if args.program is not None:
            cases = [c for c in cases if c.case_id == args.program]
            if not cases:
                raise SystemExit(f"unknown juliet case {args.program!r}")
        return [(c.case_id, c.program, c.buggy) for c in cases]
    from .workloads import SPEC_BY_NAME, SPEC_TABLE2_ROWS, build_spec_program

    if args.program is not None and args.program not in SPEC_BY_NAME:
        known = ", ".join(sorted(SPEC_BY_NAME))
        raise SystemExit(
            f"unknown program {args.program!r}; known programs: {known}"
        )
    names = (
        [args.program]
        if args.program is not None
        else [p.name for p in SPEC_TABLE2_ROWS]
    )
    return [(name, build_spec_program(name), None) for name in names]


def _cmd_analyze(args, config) -> str:
    """Static dataflow analysis over a corpus (no execution)."""
    import json

    from .dataflow import render_whole_program, whole_program_data
    from .passes.instrument import instrument
    from .reporting import format_static_findings
    from .sanitizers import SANITIZER_FACTORIES

    try:
        factory = SANITIZER_FACTORIES[args.tool]
    except KeyError:
        known = ", ".join(sorted(SANITIZER_FACTORIES))
        raise SystemExit(f"unknown tool {args.tool!r}; known tools: {known}")
    interproc = config.interprocedural and not args.no_interproc
    corpus = _analyze_corpus(args)
    rows = []
    findings_all = []
    elisions_all = []
    timings_total: dict = {}
    whole_sections = []
    for name, program, expected_buggy in corpus:
        ip = instrument(
            program, tool=factory(), interprocedural=interproc
        )
        row = {
            "name": name,
            "elided": len(ip.stats.elisions),
            "cross_call_elided": ip.stats.notes.get(
                "cross_call_eliminated", 0
            ),
            "eliminated": ip.stats.eliminated,
            "remaining_checks": ip.stats.remaining_checks,
            "findings": [
                {
                    "function": f.function,
                    "kind": f.kind,
                    "site_id": f.site_id,
                    "detail": f.detail,
                    "always_executes": f.always_executes,
                }
                for f in ip.stats.findings
            ],
        }
        if expected_buggy is not None:
            row["expected_buggy"] = expected_buggy
        rows.append(row)
        findings_all.extend(ip.stats.findings)
        elisions_all.extend(ip.stats.elisions)
        for pass_name, micros in ip.stats.pass_timings().items():
            timings_total[pass_name] = (
                timings_total.get(pass_name, 0) + micros
            )
        if args.whole_program:
            data = whole_program_data(program, interprocedural=interproc)
            if args.format == "json":
                row["whole_program"] = data
            else:
                whole_sections.append(
                    (name, render_whole_program(program, data))
                )
    if args.format == "json":
        payload = {
            "tool": args.tool,
            "corpus": args.corpus,
            "interprocedural": interproc,
            "programs": rows,
            "totals": {
                "elided": sum(r["elided"] for r in rows),
                "cross_call_elided": sum(
                    r["cross_call_elided"] for r in rows
                ),
                "eliminated": sum(r["eliminated"] for r in rows),
                "findings": sum(len(r["findings"]) for r in rows),
            },
            "pass_timings_us": timings_total,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    mode = "interprocedural" if interproc else "intraprocedural"
    lines = [f"static analysis under {args.tool} ({mode}):", ""]
    lines.append(
        f"{'program':<24} {'elided':>7} {'x-call':>7} {'findings':>9}"
    )
    for row in rows:
        lines.append(
            f"{row['name']:<24} {row['elided']:>7} "
            f"{row['cross_call_elided']:>7} {len(row['findings']):>9}"
        )
    lines.append("")
    lines.append(format_static_findings(findings_all))
    for name, section in whole_sections:
        lines.append("")
        lines.append(f"=== {name} ===")
        lines.append(section)
    if args.elisions and elisions_all:
        lines.append("")
        lines.append("elided checks:")
        for record in elisions_all:
            lines.append(
                f"  {record.function} site {record.site_id}: {record.reason}"
            )
    if args.stats:
        lines.append("")
        lines.append("pass timings (summed over programs):")
        lines.append(f"  {'pass':<32} {'wall time':>12}")
        for pass_name, micros in sorted(
            timings_total.items(), key=lambda item: -item[1]
        ):
            lines.append(f"  {pass_name:<32} {micros:>9} us")
    return "\n".join(lines)


def _cmd_serve(args, defaults) -> str:
    """Run the sanitizer-as-a-service control plane (REST over HTTP)."""
    try:
        from .server import create_app
    except ImportError as exc:
        if exc.name != "pydantic":
            raise
        raise SystemExit(
            "repro serve needs pydantic: pip install 'repro[server]'"
        ) from None
    from .server.config import config_from_env
    from .server.http import Server, serve

    config = config_from_env(
        host=args.host, port=args.port, max_concurrency=args.concurrency
    )
    server = Server(create_app(config, defaults=defaults), config.host,
                    config.port)
    print(
        f"repro control plane on http://{config.host}:{server.port} "
        f"(jobs: {config.max_concurrency} concurrent, "
        f"worker cap {config.worker_cap})"
    )
    print(
        "endpoints: POST /jobs/run  POST /jobs/sweep  POST /jobs/fuzz  "
        "GET /jobs  GET /healthz  GET /stats"
    )
    sys.stdout.flush()
    serve(server)
    return "server stopped"


def _cmd_demo(args, config) -> str:
    from . import ProgramBuilder, Session
    from .reporting import format_all_reports

    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 100)
        with f.loop("i", 0, 26, bounded=False) as i:
            f.store("buf", i * 4, 4, i)
        f.free("buf")
    session = Session(args.tool, config)
    session.run(builder.build())
    return format_all_reports(session.sanitizer)


_COMMANDS = {
    "table1": (_cmd_study, "Table 1: op-level vs instruction-level checks"),
    "table2": (_cmd_table2, "Table 2: SPEC proxy overheads"),
    "table3": (_cmd_study, "Table 3: Juliet-style detection"),
    "table4": (_cmd_study, "Table 4: Linux Flaw CVE detection"),
    "table5": (_cmd_study, "Table 5: Magma redzone study"),
    "fig10": (_cmd_study, "Figure 10: check-type breakdown"),
    "fig11": (_cmd_study, "Figure 11: traversal patterns"),
    "bench": (_cmd_bench, "Time the Table 2 sweep (wall-clock benchmark)"),
    "profile": (_cmd_profile, "Telemetry profile: fast/slow split + phases"),
    "fuzz": (_cmd_fuzz, "Differential fuzz: all tools, fastpath on+off"),
    "analyze": (_cmd_analyze, "Static dataflow analysis: findings + elisions"),
    "serve": (_cmd_serve, "Run the REST control plane (jobs over HTTP)"),
    "demo": (_cmd_demo, "Detect a bug and print an ASan-style report"),
}

#: Subcommands whose runners accept a ``--jobs`` worker count.
_PARALLEL_COMMANDS = (
    "table2",
    "table3",
    "table4",
    "table5",
    "fig10",
    "fig11",
    "bench",
    "profile",
    "fuzz",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GiantSan reproduction: regenerate the paper's "
        "tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available experiments")
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        if name in ("table2", "fig10", "bench", "profile"):
            sub.add_argument(
                "--scale",
                type=int,
                default=None,
                help="iteration-scale override (default: per-program)",
            )
        if name in _PARALLEL_COMMANDS:
            sub.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="worker processes for the sweep (default 1: inline)",
            )
        if name == "serve":
            sub.add_argument(
                "--host",
                default=None,
                help="bind address (default: REPRO_SERVE_HOST or 127.0.0.1)",
            )
            sub.add_argument(
                "--port",
                type=int,
                default=None,
                help="bind port (default: REPRO_SERVE_PORT or 8321)",
            )
            sub.add_argument(
                "--concurrency",
                type=int,
                default=None,
                help="concurrent job threads "
                "(default: REPRO_SERVE_CONCURRENCY or 2)",
            )
        if name == "table2":
            sub.add_argument(
                "--ablation",
                action="store_true",
                help="also run the CacheOnly/EliminationOnly columns",
            )
            sub.add_argument(
                "--format",
                choices=["table", "csv", "json"],
                default="table",
                help="output format (default: the paper's table layout)",
            )
        if name == "profile":
            sub.add_argument(
                "--tool",
                default="GiantSan",
                help="sanitizer to profile (default GiantSan)",
            )
            sub.add_argument(
                "--program",
                default=None,
                help="profile one Table 2 proxy instead of all of them",
            )
            sub.add_argument(
                "--format",
                choices=["table", "csv", "json"],
                default="table",
                help="output format (default: text table)",
            )
            sub.add_argument(
                "--assert-checks",
                action="store_true",
                help="exit nonzero if check counters are dead (CI smoke: "
                "all-zero fast/slow split means telemetry came unwired)",
            )
        if name == "fuzz":
            sub.add_argument(
                "--iterations",
                type=int,
                default=200,
                help="number of generated cases (default 200)",
            )
            sub.add_argument(
                "--seed",
                type=int,
                default=0,
                help="base seed; case i uses case_seed_for(seed, i)",
            )
            sub.add_argument(
                "--bug-probability",
                type=float,
                default=0.55,
                help="fraction of cases with an injected bug (default 0.55)",
            )
            sub.add_argument(
                "--repro",
                type=int,
                default=None,
                metavar="CASE_SEED",
                help="re-run one case by its *case* seed and print it",
            )
            sub.add_argument(
                "--no-shrink",
                action="store_true",
                help="report diverging cases without minimizing them",
            )
            sub.add_argument(
                "--audit-elisions",
                action="store_true",
                help="replay every statically elided check against the "
                "shadow oracle; any fired replay is a divergence",
            )
        if name == "analyze":
            sub.add_argument(
                "--tool",
                default="GiantSan",
                help="instrument for this tool's pipeline (default GiantSan)",
            )
            sub.add_argument(
                "--program",
                default=None,
                help="analyze one Table 2 proxy instead of all of them",
            )
            sub.add_argument(
                "--stats",
                action="store_true",
                help="also print the per-pass wall-time table",
            )
            sub.add_argument(
                "--elisions",
                action="store_true",
                help="list every elided check with its static proof",
            )
            sub.add_argument(
                "--format",
                choices=["text", "json"],
                default="text",
                help="output format (default: text tables)",
            )
            sub.add_argument(
                "--corpus",
                choices=["spec", "juliet", "callheavy"],
                default="spec",
                help="program corpus: the Table 2 SPEC proxies, the "
                "generated Juliet suite, or the call-heavy "
                "interprocedural workload (default spec)",
            )
            sub.add_argument(
                "--whole-program",
                action="store_true",
                help="also print each program's call graph and "
                "per-function summaries",
            )
            sub.add_argument(
                "--no-interproc",
                action="store_true",
                help="disable the interprocedural summary layer "
                "(call sites clobber every dataflow fact, as before)",
            )
        if name == "demo":
            sub.add_argument(
                "--tool",
                default="GiantSan",
                help="sanitizer to run the demo under (default GiantSan)",
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        lines = ["available experiments:"]
        for name, (_, help_text) in _COMMANDS.items():
            lines.append(f"  {name:8s} {help_text}")
        print("\n".join(lines))
        return 0
    handler, _ = _COMMANDS[args.command]
    from .runtime.session import ExecConfig

    try:
        config = ExecConfig.from_env()
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if args.command in _PARALLEL_COMMANDS:
        # SIGTERM as SystemExit so the finally block (and atexit) run:
        # pool workers get retired even when a supervisor kills the
        # sweep.
        _install_sigterm_exit()
    interrupted = False
    try:
        print(handler(args, config))
    except BrokenPipeError:  # e.g. `python -m repro table2 | head`
        try:
            sys.stdout.close()
        except Exception:
            pass
    except KeyboardInterrupt:
        # Workers ignore SIGINT (parallel._init_worker), so they are
        # still running their units right now; the hard stop below is
        # what retires them.
        interrupted = True
        print("\ninterrupted - retiring pool workers", file=sys.stderr)
    finally:
        from .analysis.parallel import drain_pool, shutdown_pool

        if interrupted:
            shutdown_pool()
        else:
            # clean exits (including SystemExit from fuzz findings)
            # drain gracefully; a no-op when no pool was created
            drain_pool()
    return 130 if interrupted else 0


def _install_sigterm_exit() -> None:
    """Route SIGTERM through SystemExit so cleanup handlers run."""

    def _exit(signum, frame):
        raise SystemExit(143)

    try:
        signal.signal(signal.SIGTERM, _exit)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass


if __name__ == "__main__":
    sys.exit(main())
