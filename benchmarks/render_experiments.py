"""Render EXPERIMENTS.md's measured values from ``benchmarks/results``.

Rewrites, from the tables the paper-claim benches write: the measured
column of the Table 2, Table 2 (ablation) and Figure 11 tables, the two
Figure 10 means, and the HWASan and memory-overhead extension tables.
The prose around them stays hand-written.

    python benchmarks/render_experiments.py          # rewrite in place
    python benchmarks/render_experiments.py --check  # exit 1 on drift
"""

import argparse
import difflib
import re
import sys
from decimal import ROUND_HALF_UP, Decimal
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
    """Set the trailing cells of each ``| label | ... |`` row of the
    first table under ``heading``, keeping any bold marks.  ``measured``
    maps a label to its last cell's value, or to a list of values for
    its last cells."""
    start = text.index(heading)
    end = text.find("\n\n", text.index("\n|", start) + 1)
    lines = text[start:end].split("\n")
    for label, values in measured.items():
        values = [values] if isinstance(values, str) else values
        rows = [i for i, line in enumerate(lines)
                if line.startswith(f"| {label} |")]
        if len(rows) != 1:
            raise SystemExit(f"{heading!r}: no single row for {label!r}")
        cells = lines[rows[0]].split("|")[1:-1]
        for index, value in enumerate(values, len(cells) - len(values)):
            bold = "**" if cells[index].strip().startswith("**") else ""
            cells[index] = f" {bold}{value}{bold} "
        lines[rows[0]] = "|" + "|".join(cells) + "|"
    return text[:start] + "\n".join(lines) + text[end:]


def table_rows(name):
    """``{label: [cells]}`` for the whitespace-separated rows of a
    results table that follow its column-header line."""
    header, *rows = (RESULTS / name).read_text().splitlines()[1:]
    return {cells[0]: cells[1:] for cells in map(str.split, rows)
            if len(cells) == len(header.split())}


def traversal_ratios():
    """Figure 11's ASan/GiantSan cycle ratio per pattern, as "x× faster"
    (a ratio below 1 as "1/x× slower")."""
    text = (RESULTS / "fig11_traversals.txt").read_text()
    measured = {}
    for pattern, ratio in re.findall(
        r"-- (\w+) traversal --.*?cycle ratio: ([\d.]+)x", text, re.DOTALL
    ):
        ratio = float(ratio)
        measured[pattern] = (
            f"{ratio:.2f}× faster" if ratio >= 1
            else f"{1 / ratio:.2f}× slower"
        )
    return measured


def whole_percent(cell):
    """``"132.9%"`` -> ``"133"`` (half rounds up)."""
    return str(Decimal(cell.rstrip("%")).quantize(Decimal(1), ROUND_HALF_UP))


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
    text = fill_table(text, "## Figure 11 — ", traversal_ratios())
    text = fill_table(text, "## Extension: HWASAN", {
        program: [whole_percent(cell) for cell in cells]
        for program, cells in table_rows("extension_hwasan.txt").items()
    })
    return fill_table(text, "## Extension: memory overhead", {
        tool: [f"{int(cell):,}" for cell in cells]
        for tool, cells in table_rows(
            "extension_memory_overhead.txt").items()
    })


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
