"""End-to-end benchmark of the GiantSan reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
                                  [--seconds S] [--trace 0|1] [--out DIR]

Each workload runs in fresh processes with every ``REPRO_*`` variable
removed, ``PYTHONHASHSEED=0`` and ``PYTHONPATH`` set to this checkout's
``src/``, so it measures the defaults a user gets.  A run spawns
``PASS_SPAWNS`` processes that each set up and run passes for an equal
share of ``--seconds`` (see ``workload.py``), with ``SETUP_SPAWNS``
processes that only set up spread between them.  ``setup_s`` is the
median spawn-to-ready time of all of them, scaled to a nominal machine
speed (see ``speed.py``); the pass metrics are medians over the passes.
With
``--trace 1`` one process per workload instead runs one traced pass and
reports the per-layer metrics, writing the spans to
``<out>/trace-<workload>.json``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``.
With several workloads, metric names are prefixed with the workload.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import NOMINAL_REFERENCE_S
from workload import WORKLOADS, declared

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Processes per run that only set up: more ``setup_s`` samples.
SETUP_SPAWNS = 6
#: Processes per run that run passes: each gives one cold first pass.
PASS_SPAWNS = 3
#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170.0


def child_env(overrides=None) -> dict:
    """The environment of a measured process: defaults only."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(overrides or {})
    return env


class ChildFailed(RuntimeError):
    """A workload process exited badly or broke the output protocol."""


def _kill_group(pid: int) -> None:
    """SIGKILL whatever is left of a workload's process group."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(workload: str, args, seconds: float = 0.0, part: int = 0,
          setup_only: bool = False):
    """Run one workload process; ``(setup_s, result)``."""
    command = [
        sys.executable, str(HERE / "workload.py"), workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--part", str(part),
        "--out", str(args.out),
    ]
    if args.trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    # its own process group, so a kill also reaches anything it started
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        text=True, start_new_session=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, [process.pid])
    watchdog.start()
    try:
        line = process.stdout.readline()
        ready_s = time.perf_counter() - started
        rest = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        _kill_group(process.pid)
        process.wait()
        process.stdout.close()
    lines = rest.strip().splitlines()
    if line.strip() != "READY" or code != 0 or not lines:
        raise ChildFailed(f"{workload} process exited with code {code}")
    result = json.loads(lines[-1])
    # spawn to READY, without the probe's loops, at the nominal speed
    setup = result.pop("setup")
    setup_s = (
        (ready_s - setup["probe_s"]) * setup["speed"] * NOMINAL_REFERENCE_S
    )
    return setup_s, result


def run_traced(workload: str, args) -> dict:
    """One traced process: ``{attempted, failed, metrics, samples}``."""
    _, result = spawn(workload, args)
    result["samples"] = {}
    return result


def run_measured(workload: str, args) -> dict:
    """Set-up and pass spawns: ``{attempted, failed, metrics, samples}``."""
    setups, results = [], []
    for part in range(PASS_SPAWNS):
        # set-up spawns spread over the run, between the pass spawns
        for _ in range(SETUP_SPAWNS // PASS_SPAWNS):
            setups.append(spawn(workload, args, setup_only=True)[0])
        setup_s, result = spawn(
            workload, args, args.seconds / PASS_SPAWNS, part
        )
        setups.append(setup_s)
        results.append(result)
    firsts = [result["first"] for result in results]
    repeats = [sample for result in results for sample in result["repeats"]]
    # one value per pass process, so each fuzz slice counts once however
    # many repeat passes fitted into its window
    values = {
        "setup_s": statistics.median(setups),
        "first_pass_refs": statistics.median(s["refs"] for s in firsts),
        "repeat_pass_refs": statistics.median(
            statistics.median(s["refs"] for s in result["repeats"])
            for result in results
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    units = declared("end_to_end")
    # wall seconds and the reference time, for reading the refs
    first_s = statistics.median(s["s"] for s in firsts)
    repeat_s = statistics.median(s["s"] for s in repeats)
    ref_ms = statistics.median(s["ref_ms"] for s in firsts + repeats)
    print(
        f"{workload:<7} wall time: first pass {first_s:.3f} s, repeat pass "
        f"{repeat_s:.3f} s; one reference {ref_ms:.3f} ms"
    )
    return {
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
        "samples": {
            "setup_s": len(setups),
            "first_pass_refs": len(firsts),
            "repeat_pass_refs": len(repeats),
            "peak_rss_mb": len(results),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="time the pass spawns of each workload share",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: one traced pass per workload, printing per-layer metrics",
    )
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="directory for trace files",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no repro sources under {ROOT / 'src'}: run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    # byte-compile once so no measured process pays for it
    for directory in (ROOT / "src" / "repro", HERE):
        compileall.compile_dir(str(directory), quiet=1)

    workloads = args.workload or list(WORKLOADS)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        run = run_traced if args.trace else run_measured
        try:
            result = run(workload, args)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            samples = result["samples"].get(name)
            note = f"  (n={samples})" if samples else ""
            print(
                f"{workload:<7} {name:<40} {metric['value']:>14.6g} "
                f"{metric['unit']}{note}"
            )
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            combined["metrics"][key] = metric
        print(
            f"{workload:<7} operations: {result['attempted']} attempted, "
            f"{result['failed']} failed"
        )
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
