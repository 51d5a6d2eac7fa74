"""Regression: the committed benchmark must record real parallelism.

``bench_wallclock.py`` used to size the parallel configuration as
``cpu_count`` alone, so on one-core machines (like the container the
committed numbers come from) the "parallel" row silently degraded to
the inline runner and recorded ``"jobs": 1`` — a benchmark of the
process pool that never started a process pool.  The harness now floors
the worker count at 2 and records both the requested ``jobs`` and the
effective ``workers``; this test pins the committed artifact.
"""

import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = REPO_ROOT / "BENCH_interpreter.json"


class TestBenchArtifact:
    def test_parallel_configuration_uses_multiple_workers(self):
        payload = json.loads(BENCH.read_text())
        parallel = payload["configurations"]["parallel"]
        assert parallel["jobs"] >= 2
        assert parallel["workers"] >= 2

    def test_serial_configurations_record_one_worker(self):
        payload = json.loads(BENCH.read_text())
        for name in ("baseline", "default"):
            assert payload["configurations"][name]["jobs"] == 1
            assert payload["configurations"][name]["workers"] == 1

    def test_all_configurations_agree_on_results(self):
        payload = json.loads(BENCH.read_text())
        geomeans = [
            config["geomeans"]
            for config in payload["configurations"].values()
        ]
        assert all(g == geomeans[0] for g in geomeans)

    def test_history_log_exists_and_parses(self):
        history = REPO_ROOT / "benchmarks" / "results" / "bench_history.jsonl"
        assert history.exists()
        records = [
            json.loads(line)
            for line in history.read_text().splitlines()
            if line.strip()
        ]
        assert records
        for record in records:
            assert "timestamp" in record
            assert record["benchmark"] == "table2-sweep-wallclock"
