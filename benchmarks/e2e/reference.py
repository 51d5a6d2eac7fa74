"""Reference outputs for the end-to-end benchmark.

Each benchmark operation is checked against a reference:

* ``table2``: one operation is one (program, tool) run of
  the Table 2 sweep, which must match ``expected/table2.json`` in return
  value, report count and set of error kinds; each tool's geometric mean
  (rounded to six places) is one more operation;
* ``detect``: one operation is one Table 3-5 result cell, checked against
  ``expected/detect.json``.

Regenerate the expected files from the repository root with::

    python3 benchmarks/e2e/reference.py

It computes the outputs twice, in fresh processes: once in the reference
cell (tree engine, bytearray shadow, fast path off, interprocedural
analysis off) and once with the defaults.  It writes nothing unless the
two agree, so the reference never comes from the accelerations the
benchmark measures.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

#: The configuration every acceleration is checked against.
REFERENCE_CELL = {
    "REPRO_ENGINE": "tree",
    "REPRO_SHADOW": "bytearray",
    "REPRO_FASTPATH": "0",
    "REPRO_INTERPROC": "0",
}


def run_cell(result) -> dict:
    """What one run must reproduce: return value, reports, error kinds."""
    reports = result.errors.reports
    return {
        "return_value": result.return_value,
        "reports": len(reports),
        "kinds": sorted({report.kind.value for report in reports}),
    }


def table2_cells(study) -> Dict[str, object]:
    """``run/<program>/<tool>`` cells plus ``geomean/<tool>``."""
    cells: Dict[str, object] = {}
    for row in study.rows:
        for tool, result in row.results.items():
            cells[f"run/{row.program}/{tool}"] = run_cell(result)
    for tool, value in study.geometric_means().items():
        cells[f"geomean/{tool}"] = round(value, 6)
    return cells


def detect_cells(juliet, cves, magma) -> Dict[str, object]:
    """Every Table 3, 4 and 5 result cell."""
    from repro.workloads.juliet import TABLE3_CWES

    cells: Dict[str, object] = {}
    for tool, by_cwe in juliet.detected.items():
        for cwe, _ in TABLE3_CWES:
            cells[f"juliet/{tool}/{cwe}"] = by_cwe.get(cwe, 0)
    for tool, count in juliet.false_positives.items():
        cells[f"juliet-fp/{tool}"] = count
    for cve, by_tool in cves.outcomes.items():
        for tool, flagged in by_tool.items():
            cells[f"cve/{cve}/{tool}"] = flagged
    for project, by_config in magma.detected.items():
        for config, count in by_config.items():
            cells[f"magma/{project}/{config}"] = count
    return cells


def compare(expected: dict, actual: dict) -> Tuple[int, int]:
    """``(attempted, failed)``: cells missing, extra or different fail."""
    keys = set(expected) | set(actual)
    failed = sum(
        1
        for key in keys
        if key not in expected
        or key not in actual
        or _normal(actual[key]) != expected[key]
    )
    return len(keys), failed


def _normal(value):
    """``value`` as it reads back from JSON."""
    return json.loads(json.dumps(value))


def load(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


def compute() -> Dict[str, dict]:
    """Both expected files' contents, under this process's configuration."""
    from repro.analysis import detection, overhead

    return {
        "table2": table2_cells(overhead.run_overhead_study()),
        "detect": detect_cells(
            detection.run_juliet_study(),
            detection.run_linux_flaw_study(),
            detection.run_magma_study(),
        ),
    }


def _compute_in_child(overrides: dict) -> Dict[str, dict]:
    from run import ROOT, child_env

    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--compute"],
        env=child_env(overrides),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        check=True,
        text=True,
        timeout=600,
    )
    return json.loads(completed.stdout)


def main(argv) -> int:
    if argv[1:] == ["--compute"]:
        print(json.dumps(compute()))
        return 0
    reference = _compute_in_child(REFERENCE_CELL)
    default = _compute_in_child({})
    status = 0
    for name in reference:
        differing = sorted(
            key
            for key in set(reference[name]) | set(default[name])
            if reference[name].get(key) != default[name].get(key)
        )
        if differing:
            status = 1
            print(
                f"{name}: reference cell and defaults disagree on "
                f"{len(differing)} cells, first: {differing[:5]}",
                file=sys.stderr,
            )
    if status:
        print("expected files left unchanged", file=sys.stderr)
        return status
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name, cells in reference.items():
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(HERE.parents[1])} ({len(cells)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
