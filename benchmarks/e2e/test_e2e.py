"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e``.

They are not part of the tier-1 suite; the last three run the benchmark
itself, for about a minute together.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _observables(result) -> dict:
    return {
        "return_value": result.return_value,
        "native_cycles": result.native_cycles,
        "stats": result.stats.as_dict(),
        "errors": [(e.kind, e.address) for e in result.errors.reports],
    }


def _programs():
    from repro.workloads import SPEC_BY_NAME, juliet_suite_cached

    case = next(c for c in juliet_suite_cached() if c.buggy)
    return [
        ("juliet", case.program, None),
        ("spec", SPEC_BY_NAME["505.mcf_r"].build(), [1]),
    ]


@pytest.fixture
def tracer():
    tracing = workload.load_tracer_module()
    tracer = tracing.Tracer()
    yield tracing, tracer
    tracer.uninstall()


@pytest.mark.parametrize("index", [0, 1], ids=["juliet", "spec"])
def test_root_span_matches_wall_time(tracer, index):
    from repro.runtime.session import Session

    tracing, tracer = tracer
    _, program, args = _programs()[index]
    tracing.install(tracer)
    started = time.perf_counter()
    with tracer.span("pass"):
        Session("GiantSan").run(program, args)
    wall = time.perf_counter() - started
    name, start, end, parent = tracer.spans[0]
    assert (name, parent) == ("pass", -1)
    assert abs((end - start) - wall) <= 0.02 * wall
    assert abs(tracer.total_self_s() - (end - start)) <= 1e-9 + 1e-6 * wall
    assert all(record["self_s"] >= -1e-9
               for record in tracer.aggregates().values())
    assert tracer.calls("runtime.engine") == 1
    assert tracer.calls("sanitizers.setup") == 1


def test_traced_outputs_equal_untraced(tracer):
    from repro.runtime.session import Session

    tracing, tracer = tracer
    programs = _programs()
    untraced = {
        (label, tool): _observables(Session(tool).run(program, args))
        for label, program, args in programs
        for tool in ("GiantSan", "ASan")
    }
    tracing.install(tracer)
    with tracer.span("pass"):
        traced = {
            (label, tool): _observables(Session(tool).run(program, args))
            for label, program, args in programs
            for tool in ("GiantSan", "ASan")
        }
    assert traced == untraced


def test_probe_measures_cpu_loops():
    # a block of N cpu loops costs about N references at memory share
    # 0; the tolerance covers the machine's speed changing between samples
    with speed.SpeedProbe(0.0, period_s=0.01) as probe:
        for _ in range(300):
            speed.cpu_loop()
    assert len(probe.samples) > 10
    assert 0.8 * 300 <= probe.refs <= 1.25 * 300


def _declared() -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "0": {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_declaration(trace, tmp_path):
    completed = _run("--workload", "fuzz", "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--out", str(tmp_path))
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(NAME.fullmatch(name) for name in printed)
    assert printed == _declared()[trace]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "table2"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
