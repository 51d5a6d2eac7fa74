"""Render EXPERIMENTS.md's measured values from ``benchmarks/results``.

Rewrites the measured column of the Table 2 and Table 2 (ablation)
tables, and the two Figure 10 means, from the tables the paper-claim
benches write.  The prose around them stays hand-written.

    python benchmarks/render_experiments.py          # rewrite in place
    python benchmarks/render_experiments.py --check  # exit 1 on drift
"""

import argparse
import difflib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"
DOC = ROOT / "EXPERIMENTS.md"


def geomeans(name):
    """``{column: "139.85%"}`` from a results table's last row."""
    lines = (RESULTS / name).read_text().splitlines()
    columns = lines[1].split()[1:]
    row = next(line for line in lines if line.startswith("Geometric Means."))
    return dict(zip(columns, row.split()[2:]))


def fill_table(text, heading, measured):
    """Set the last cell of each ``| label | paper | measured |`` row
    of the first table under ``heading``, keeping any bold marks."""
    start = text.index(heading)
    end = text.find("\n\n", text.index("\n|", start) + 1)
    section = text[start:end]
    for label, value in measured.items():
        section, count = re.subn(
            rf"^(\| {re.escape(label)} \|.*\| \**)[\d.]+%(\**) \|$",
            rf"\g<1>{value}\g<2> |", section, flags=re.MULTILINE,
        )
        if count != 1:
            raise SystemExit(f"{heading!r}: no single row for {label!r}")
    return text[:start] + section + text[end:]


def render(text):
    table2 = geomeans("table2_spec_overhead.txt")
    ablation = geomeans("table2_ablation.txt")
    text = fill_table(text, "## Table 2 — ", table2)
    text = fill_table(text, "## Table 2 (ablation)", {
        "GiantSan (both)": ablation["GiantSan"],
        "CacheOnly": ablation["GiantSan-CacheOnly"],
        "EliminationOnly": ablation["GiantSan-EliminationOnly"],
    })
    optimized, fast_only = re.search(
        r"mean optimized: ([\d.]+%); fast-only share of unoptimized: "
        r"([\d.]+%)",
        (RESULTS / "fig10_check_breakdown.txt").read_text(),
    ).groups()
    for prose, value in (
        ("mean optimized fraction is", optimized),
        ("fast-only share of the remainder", fast_only),
    ):
        text, count = re.subn(
            rf"({prose}\s+)[\d.]+%", rf"\g<1>{value}", text
        )
        if count != 1:
            raise SystemExit(f"no single Figure 10 mean after {prose!r}")
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if EXPERIMENTS.md differs from its rendering",
    )
    args = parser.parse_args(argv)
    current = DOC.read_text()
    rendered = render(current)
    if args.check:
        if rendered != current:
            sys.stdout.writelines(difflib.unified_diff(
                current.splitlines(True), rendered.splitlines(True),
                "EXPERIMENTS.md", "rendered",
            ))
            return 1
        return 0
    DOC.write_text(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
