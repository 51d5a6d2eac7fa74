"""One end-to-end workload in a fresh process; spawned by ``run.py``.

    python3 benchmarks/e2e/workload.py NAME --seed N --seconds S --out DIR
                                       [--part K] [--trace] [--setup-only]

The process sets the workload up under a ``speed.SpeedProbe`` and
prints ``READY`` (``run.py`` times ``setup_s`` from spawn to that line
and scales it by the probe's speed).  It then runs a cold first pass
and warm repeat passes: it starts a repeat pass while it is expected to
end inside the ``--seconds`` window, and runs at least
``MIN_REPEATS``.  Each pass runs under a ``speed.SpeedProbe``, which
gives its wall time in references.  Every pass checks every
operation's output; the last line printed is one JSON object with the
counts and the samples ``run.py`` takes medians of.

With ``--trace`` it runs the first pass and one repeat pass untraced,
installs the wrappers from ``trace.py``, runs one traced repeat pass,
writes ``<out>/trace-NAME.json`` and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent

import reference  # noqa: E402  (sibling module; HERE is sys.path[0])
from speed import SpeedProbe  # noqa: E402

_clock = time.perf_counter

#: The fewest warm passes one process runs.
MIN_REPEATS = 1
#: Probe period during set-up, which takes about 0.15 s.
SETUP_PERIOD_S = 0.01
#: Fuzz cases per pass.  The cost of one case varies by about 35% around
#: its mean, so a pass's cost varies with the seed by about 4% at 80.
FUZZ_CASES = 80


def declared(section: str) -> Dict[str, str]:
    """``{name: unit}`` of one metric list of ``BENCHMARK.json``."""
    benchmark = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[section]}


def load_tracer_module():
    """``trace.py`` by path: the name ``trace`` is also a stdlib module."""
    spec = importlib.util.spec_from_file_location(
        "e2e_trace", HERE / "trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Setup and one checked pass of one workload.

    ``setup`` imports what the passes use, so import time counts in
    ``setup_s``.  ``run_pass`` returns ``(attempted, failed)``.
    """

    #: Share of a pass's time that slows like ``speed.MemoryLoop`` rather
    #: than ``speed.cpu_loop`` when the host is busy.  Each workload's is
    #: the share, in eighths, that gave its pass metrics the smallest
    #: spread over ten runs on a shared 2-core container.
    memory_share = 0.0

    def __init__(self, seed: int, part: int):
        self.seed = seed
        #: which of a run's pass processes this is
        self.part = part

    def setup(self) -> None:
        pass

    def run_pass(self) -> Tuple[int, int]:
        raise NotImplementedError


class Table2(Workload):
    """``run_overhead_study``: 24 SPEC proxies x (Native + 4 tools)."""

    memory_share = 1 / 8

    def setup(self) -> None:
        from repro.analysis import overhead  # noqa: F401

        self.expected = reference.load("table2")

    def run_pass(self) -> Tuple[int, int]:
        from repro.analysis import overhead

        study = overhead.run_overhead_study(
            overhead.PERFORMANCE_TOOLS, jobs=1
        )
        return reference.compare(self.expected, reference.table2_cells(study))


class Detect(Workload):
    """Tables 3-5: Juliet, Linux Flaw and Magma studies, ``jobs=1``."""

    # every run zeroes a fresh 5 MiB simulated address space
    memory_share = 6 / 8

    def setup(self) -> None:
        from repro.analysis import detection

        # Juliet suite generation is part of setup
        detection.juliet_suite_cached()
        self.expected = reference.load("detect")

    def run_pass(self) -> Tuple[int, int]:
        from repro.analysis import detection

        cells = reference.detect_cells(
            detection.run_juliet_study(),
            detection.run_linux_flaw_study(),
            detection.run_magma_study(),
        )
        return reference.compare(self.expected, cells)


class Fuzz(Workload):
    """``FUZZ_CASES`` cases of the seed; every pass replays them.

    Each pass process of a run takes the next slice of the seed's cases,
    so a run's medians cover three slices and depend less on the seed.
    """

    memory_share = 5 / 8

    def setup(self) -> None:
        from repro.fuzz import driver  # noqa: F401

    def run_pass(self) -> Tuple[int, int]:
        from repro.fuzz import driver

        start = self.part * FUZZ_CASES
        summary = driver.fuzz_span(self.seed, start, start + FUZZ_CASES)
        # one operation is one case; a case fails on any divergence
        failed = len({finding["seed"] for finding in summary.findings})
        return summary.cases, failed


WORKLOADS = {"table2": Table2, "detect": Detect, "fuzz": Fuzz}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def probed_pass(workload: Workload) -> Tuple[dict, int, int]:
    """One pass under the speed probe: its sample and its counts."""
    with SpeedProbe(workload.memory_share) as probe:
        attempted, failed = workload.run_pass()
    sample = {"refs": probe.refs, "s": probe.net_s, "ref_ms": probe.ref_ms}
    return sample, attempted, failed


def measure(workload: Workload, seconds: float) -> dict:
    """Cold first pass, then warm repeat passes inside the window."""
    window_start = _clock()
    first, attempted, failed = probed_pass(workload)
    repeats = []
    while len(repeats) < MIN_REPEATS or (
        _clock() - window_start
        + statistics.median(sample["s"] for sample in repeats)
        <= seconds
    ):
        sample, ok, bad = probed_pass(workload)
        repeats.append(sample)
        attempted += ok
        failed += bad
    return {
        "attempted": attempted,
        "failed": failed,
        "first": first,
        "repeats": repeats,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def layer_metrics(aggregates: Dict[str, dict], names, memo_before: dict,
                  memo_after: dict, fast_slow) -> dict:
    """The per-layer metrics read from the traced aggregates."""

    def self_s(name: str) -> float:
        return aggregates.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return aggregates.get(name, {}).get("calls", 0)

    hits = memo_after["hits"] - memo_before["hits"]
    misses = memo_after["misses"] - memo_before["misses"]
    metrics = {
        "workloads.build_s": self_s("workloads.build"),
        "passes.instrument_s": self_s("passes.instrument"),
        "passes.instrument_calls": calls("passes.instrument"),
        "passes.memo_hit_ratio": ratio(hits, hits + misses),
        "dataflow.summaries_s": self_s("dataflow.summaries"),
        "dataflow.summaries_calls": calls("dataflow.summaries"),
        "runtime.runs": calls("runtime.engine"),
        "runtime.engine_self_s": self_s("runtime.engine"),
        "runtime.superblock_s": self_s("runtime.superblock"),
        "runtime.superblock_attempts": calls("runtime.superblock"),
        "runtime.superblock_taken_ratio": ratio(
            aggregates.get("runtime.superblock", {}).get("true_returns", 0),
            calls("runtime.superblock"),
        ),
        "runtime.compile_s": self_s("runtime.compile"),
        "runtime.compile_calls": calls("runtime.compile"),
        "sanitizers.setups": calls("sanitizers.setup"),
        "sanitizers.setup_s": self_s("sanitizers.setup"),
        "sanitizers.checks": calls("sanitizers.check"),
        "sanitizers.check_s": self_s("sanitizers.check"),
        "sanitizers.fast_check_ratio": ratio(fast_slow[0], sum(fast_slow)),
        "sanitizers.fold_s": self_s("sanitizers.fold"),
        "sanitizers.alloc_ops": calls("sanitizers.alloc"),
        "sanitizers.alloc_s": self_s("sanitizers.alloc"),
        "sanitizers.reports": calls("sanitizers.report"),
        "shadow.poison_calls": calls("shadow.poison"),
        "shadow.poison_s": self_s("shadow.poison"),
        "shadow.scan_calls": calls("shadow.scan"),
        "shadow.scan_s": self_s("shadow.scan"),
        "memory.address_spaces": calls("memory.address_space"),
        "memory.address_space_s": self_s("memory.address_space"),
        "memory.heap_ops": calls("memory.heap"),
        "memory.heap_s": self_s("memory.heap"),
        "fuzz.cases": calls("fuzz.case"),
        "fuzz.invariants_s": self_s("fuzz.invariants"),
    }
    # one passes.<name>_s metric per declared pass, as each Pass.run is
    # traced under passes.<name>
    for metric in names:
        if (metric.startswith("passes.") and metric.endswith("_s")
                and metric not in metrics):
            metrics[metric] = self_s(metric[:-len("_s")])
    return metrics


def trace_run(workload: Workload, name: str, seed: int, out_dir: Path) -> dict:
    """Untraced first and repeat pass, then one traced repeat pass."""
    tracing = load_tracer_module()
    from repro.passes.instrument import instrumentation_cache_stats

    attempted, failed = workload.run_pass()
    started = _clock()
    ok, bad = workload.run_pass()
    untraced_s = _clock() - started
    attempted += ok
    failed += bad

    tracer = tracing.Tracer()
    fast_slow = [0, 0]

    def observe_run(result):
        fast_slow[0] += result.stats.fast_checks
        fast_slow[1] += result.stats.slow_checks

    tracing.install(tracer, observe_run=observe_run)
    memo_before = instrumentation_cache_stats()
    started = _clock()
    with tracer.span("pass"):
        ok, bad = workload.run_pass()
    wall_s = _clock() - started
    memo_after = instrumentation_cache_stats()
    tracer.uninstall()
    attempted += ok
    failed += bad

    aggregates = tracer.aggregates()
    units = declared("per_layer")
    metrics = dict.fromkeys(units, 0)
    metrics.update(layer_metrics(
        aggregates, units, memo_before, memo_after, fast_slow
    ))
    metrics["trace.overhead_ratio"] = wall_s / untraced_s
    metrics["trace.unattributed_ratio"] = tracer.self_s("pass") / wall_s
    metrics["trace.wrapper_ns"] = tracing.calibrate_wrapper_ns()
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {undeclared}")

    origin = tracer.spans[0][1]
    document = {
        "workload": name,
        "seed": seed,
        "pass_wall_s": wall_s,
        "untraced_pass_s": untraced_s,
        "aggregates": aggregates,
        "spans": tracer.spans_as_dicts(origin),
        "metrics": metrics,
    }
    (out_dir / f"trace-{name}.json").write_text(json.dumps(document))
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.part)
    with SpeedProbe(period_s=SETUP_PERIOD_S) as probe:
        workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        result = {}
    elif args.trace:
        result = trace_run(workload, args.workload, args.seed, args.out)
    else:
        result = measure(workload, args.seconds)
    result["setup"] = {"probe_s": probe.probe_s, "speed": probe.speed}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
