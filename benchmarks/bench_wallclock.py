"""Wall-clock benchmark: Table 2 sweep across execution configurations.

Times the full Table 2 sweep three ways and writes the committed
``BENCH_interpreter.json`` at the repository root:

* ``baseline`` — fast path off, instrumentation cache off, one process
  (the seed interpreter's configuration: with the memo off the tree
  walker runs everything);
* ``default`` — superblock fast path + instrumentation memo cache on,
  one process; each run then switches to the compile-to-closures
  engine at its first call boundary past
  :data:`repro.runtime.compiler.COMPILE_AFTER_INSTRUCTIONS` executed
  instructions;
* ``parallel`` — the default cell plus ``--jobs max(default_jobs(), 2)``
  fabric workers (``default_jobs`` honours the CPU affinity mask, so
  containerized runs don't oversubscribe), floored at two so the
  persistent-fabric path is genuinely exercised even on one-core boxes.
  Unlike the single-process cells — whose instrumentation caches are
  cleared before every repeat — fabric workers stay warm across
  repeats: persistence across sweeps is precisely the behaviour this
  cell measures (it is what any long ``repro`` invocation or service
  deployment sees).

``--assert-parallel-speedup MIN`` exits non-zero when
``default_seconds / parallel_seconds`` falls below ``MIN`` — the CI
gate that the warm fabric is not slower than the single-process
default sweep.  Its pass or fail line also prints every run of both
sides and each side's spread (slowest minus fastest run), so a failure
shows whether the gap was inside the noise.

The geomean identity check spans all three cells: no configuration is
allowed to change a single Table 2 number.

Each run is also appended to ``benchmarks/results/bench_history.jsonl``
with a timestamp and git revision, giving a cross-PR wall-clock
trajectory alongside the committed snapshot.

Run directly::

    PYTHONPATH=src python benchmarks/bench_wallclock.py

``REPRO_BENCH_SCALE`` scales the proxies as for the other benchmarks
(the committed numbers use the full per-program scales).  Each
configuration is timed ``REPRO_BENCH_REPEAT`` times (default 2) and the
best run is the one compared: single-shot sweeps on a busy box showed
~15% run-to-run swing, enough to drown the comparison in noise.  Every
run's time (``all_runs``) and their spread (``spread_seconds``) are
recorded beside it.
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).parent))

from conftest import bench_scale  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).parent.parent
OUTPUT = REPO_ROOT / "BENCH_interpreter.json"


def _repeat_count() -> int:
    import os

    return max(int(os.environ.get("REPRO_BENCH_REPEAT", "2")), 1)


def _sweep(jobs: int, scale, config) -> dict:
    """Best-of-N timed Table 2 sweeps under ``config`` (an ExecConfig,
    which fabric workers receive in every work unit).  Single-process
    repeats start from cold instrumentation caches; fabric workers
    persist across repeats by design (warm caches across sweeps are the
    feature under test), so the parallel cell's best-of-N reports the
    warm-fabric sweep."""
    from repro.analysis import PERFORMANCE_TOOLS, run_overhead_study
    from repro.passes.instrument import clear_instrumentation_cache

    timings = []
    for _ in range(_repeat_count()):
        clear_instrumentation_cache()
        started = time.perf_counter()
        study = run_overhead_study(
            tools=list(PERFORMANCE_TOOLS), scale=scale, jobs=jobs,
            config=config,
        )
        timings.append(time.perf_counter() - started)
    return {
        "seconds": round(min(timings), 3),
        "all_runs": [round(t, 3) for t in timings],
        "spread_seconds": round(max(timings) - min(timings), 3),
        "jobs": jobs,
        # the pool forks one worker per row, up to `jobs`
        "workers": min(jobs, len(study.rows)) if jobs > 1 else 1,
        "programs": len(study.rows),
        "tools": len(study.tools) + 1,  # + the Native baseline runs
        "geomeans": {
            tool: round(mean, 6)
            for tool, mean in study.geometric_means().items()
        },
    }


def main(argv=None) -> int:
    import argparse

    from repro.analysis.parallel import default_jobs
    from repro.runtime import ExecConfig

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--assert-parallel-speedup",
        type=float,
        default=None,
        metavar="MIN",
        help="exit non-zero unless default_s / parallel_s >= MIN "
        "(CI gate: the warm fabric must not trail the single-process "
        "default sweep)",
    )
    args = parser.parse_args(argv)

    scale = bench_scale()
    def cell(fast):
        return ExecConfig(fastpath=fast, memoize=fast)

    default = cell(True)
    configurations = {
        "baseline": (cell(False), 1),
        "default": (default, 1),
        # affinity-aware worker count (cgroup quotas respected), floored
        # at two so single-core machines still exercise the fabric
        # instead of collapsing to the inline runner
        "parallel": (default, max(default_jobs(), 2)),
    }
    results = {}
    for name, (config, jobs) in configurations.items():
        results[name] = _sweep(jobs, scale, config)
        print(
            f"{name:9s} jobs={jobs:<2d} "
            f"{results[name]['seconds']:8.2f}s"
        )

    # The geomeans are the correctness check: every configuration must
    # reproduce the same Table 2 numbers.
    reference = results["baseline"]["geomeans"]
    for name, row in results.items():
        if row["geomeans"] != reference:
            raise SystemExit(f"configuration {name!r} changed the results")

    baseline_s = results["baseline"]["seconds"]
    default_s = results["default"]["seconds"]
    parallel_s = results["parallel"]["seconds"]
    payload = {
        "benchmark": "table2-sweep-wallclock",
        "scale": "full" if scale is None else scale,
        "python": sys.version.split()[0],
        "configurations": results,
        "speedup_default_vs_baseline": round(baseline_s / default_s, 2),
        "speedup_parallel_vs_baseline": round(baseline_s / parallel_s, 2),
        # the fabric headline: warm persistent workers vs the same
        # configuration in one process (>= 1.0 means the fabric wins)
        "speedup_parallel_vs_default": round(default_s / parallel_s, 2),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    _append_history(payload)
    print(
        f"\ndefault {baseline_s / default_s:.2f}x  "
        f"fabric-vs-default {default_s / parallel_s:.2f}x"
        f"  -> {OUTPUT.name}"
    )
    if args.assert_parallel_speedup is not None:
        achieved = default_s / parallel_s
        runs = "; ".join(
            f"{name} best {row['seconds']:.2f}s of {row['all_runs']}, "
            f"spread {row['spread_seconds']:.2f}s"
            for name, row in results.items() if name != "baseline"
        )
        if achieved < args.assert_parallel_speedup:
            print(
                f"FABRIC REGRESSION: parallel sweep is only "
                f"{achieved:.2f}x the default single-process sweep "
                f"(gate: {args.assert_parallel_speedup:.2f}x); {runs}"
            )
            return 1
        print(
            f"fabric gate ok: {achieved:.2f}x >= "
            f"{args.assert_parallel_speedup:.2f}x; {runs}"
        )
    return 0


def _append_history(payload: dict) -> None:
    """Append this run to the cross-PR trajectory log."""
    import datetime
    import subprocess

    from conftest import RESULTS_DIR

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except Exception:
        revision = None
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "revision": revision,
        **payload,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    history = RESULTS_DIR / "bench_history.jsonl"
    with history.open("a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(f"history -> {history.relative_to(REPO_ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
