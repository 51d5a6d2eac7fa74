"""CI gate: static analysis over the Table 2 + Juliet corpora.

Runs ``repro analyze --format json`` in-process for every (tool,
corpus) pair with a check-elimination pipeline and enforces the two
properties the static layer must never lose:

* **zero false positives** — the SPEC proxies are clean by
  construction, and each Juliet case carries ground truth; any finding
  on a clean program fails the gate;
* **no elision regression** — total elided checks and
  duplicate-eliminated checks must not fall below the checked-in
  baseline (``benchmarks/results/static_analysis_baseline
  .json``).  Totals are allowed to grow; ``--write-baseline``
  re-records them after an intentional improvement.

Run directly::

    PYTHONPATH=src python benchmarks/check_static_baseline.py
    PYTHONPATH=src python benchmarks/check_static_baseline.py --write-baseline
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys

from repro.cli import main as repro_main

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "static_analysis_baseline.json"

#: every (tool, corpus) pair the CI gate covers — the two tools with a
#: check-elimination pipeline, over both static-analysis corpora
PAIRS = (
    ("GiantSan", "spec"),
    ("GiantSan", "juliet"),
    ("ASan--", "spec"),
    ("ASan--", "juliet"),
)

#: totals that must never regress below the baseline
GATED_TOTALS = ("elided", "eliminated")


def analyze_json(tool: str, corpus: str) -> dict:
    """Run ``repro analyze --format json`` in-process and parse it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = repro_main(
            ["analyze", "--tool", tool, "--corpus", corpus,
             "--format", "json"]
        )
    if rc != 0:
        raise SystemExit(f"repro analyze failed for {tool}/{corpus}")
    return json.loads(out.getvalue())


def check_false_positives(payload: dict) -> list:
    """Findings on programs that are clean by ground truth."""
    failures = []
    for row in payload["programs"]:
        clean = row.get("expected_buggy") is not True
        if clean and row["findings"]:
            kinds = sorted({f["kind"] for f in row["findings"]})
            failures.append(
                f"  {payload['tool']}/{payload['corpus']}: "
                f"{row['name']} is clean but has "
                f"{len(row['findings'])} finding(s): {', '.join(kinds)}"
            )
    return failures


def check_totals(payload: dict, baseline: dict) -> list:
    """Gated totals that fell below the recorded baseline."""
    key = f"{payload['tool']}/{payload['corpus']}"
    recorded = baseline.get(key)
    if recorded is None:
        return [f"  {key}: no baseline recorded (run --write-baseline)"]
    failures = []
    for total in GATED_TOTALS:
        now, floor = payload["totals"][total], recorded[total]
        if now < floor:
            failures.append(
                f"  {key}: {total} regressed to {now} "
                f"(baseline {floor})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current totals as the new baseline and exit",
    )
    args = parser.parse_args(argv)

    payloads = {}
    for tool, corpus in PAIRS:
        payloads[f"{tool}/{corpus}"] = analyze_json(tool, corpus)

    if args.write_baseline:
        baseline = {
            key: {t: p["totals"][t] for t in GATED_TOTALS}
            for key, p in payloads.items()
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    for payload in payloads.values():
        failures.extend(check_false_positives(payload))
        failures.extend(check_totals(payload, baseline))

    for key, payload in sorted(payloads.items()):
        totals = payload["totals"]
        print(
            f"{key:<18} elided={totals['elided']:>4} "
            f"eliminated={totals['eliminated']:>4} "
            f"findings={totals['findings']:>3}"
        )
    if failures:
        print("\nstatic-analysis gate FAILED:")
        print("\n".join(failures))
        return 1
    print("\nstatic-analysis gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
