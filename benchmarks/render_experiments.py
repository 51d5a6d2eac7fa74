"""Render EXPERIMENTS.md's measured values from ``benchmarks/results``.

Rewrites, from the tables the paper-claim benches write: the measured
column of the Table 2, Table 2 (ablation), Table 3 and Figure 11
tables, Table 5's php row, the two Figure 10 means, and the HWASan and
memory-overhead extension tables.  The prose around them, and the words
after a rendered fraction, stay hand-written.

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
    its last cells; a callable value maps the cell's text to its new
    text."""
    start = text.index(heading)
    end = text.find("\n\n", text.index("\n|", start) + 1)
    lines = text[start:end].split("\n")
    for label, values in measured.items():
        values = values if isinstance(values, list) else [values]
        rows = [i for i, line in enumerate(lines)
                if line.startswith(f"| {label} |")]
        if len(rows) != 1:
            raise SystemExit(f"{heading!r}: no single row for {label!r}")
        cells = lines[rows[0]].split("|")[1:-1]
        for index, value in enumerate(values, len(cells) - len(values)):
            cell = cells[index].strip()
            bold = "**" if cell.startswith("**") else ""
            if callable(value):
                value = value(cell.strip("*"))
            cells[index] = f" {bold}{value}{bold} "
        lines[rows[0]] = "|" + "|".join(cells) + "|"
    return text[:start] + "\n".join(lines) + text[end:]


def table_rows(name):
    """``{label: {column: cell}}`` for the rows of a results table that
    follow its column-header line; cells are split by two or more
    spaces, so a label or a column name may hold single spaces."""
    header, *rows = (
        re.split(r"\s{2,}", line.strip())
        for line in (RESULTS / name).read_text().splitlines()[1:]
    )
    return {cells[0]: dict(zip(header[1:], cells[1:]))
            for cells in rows if len(cells) == len(header)}


def then_words(fraction):
    """A cell's new text: ``fraction`` in place of its leading ``n/m``,
    the hand-written words after it kept."""
    return lambda cell: re.sub(r"^[\d/]*", fraction, cell, count=1)


def juliet_rows():
    """Table 3's measured column, from the per-CWE detection counts."""
    rows = {
        label.split(":")[0]: row
        for label, row in table_rows("table3_juliet.txt").items()
    }
    total = rows.pop("Total")
    fraction = {cwe: f"{row['LFP']}/{row['Total']}"
                for cwe, row in rows.items()}
    same = all(row["GiantSan"] == row["ASan"] == row["ASan--"]
               for row in rows.values())
    underflows = ("CWE124", "CWE127")
    false_positives = re.search(
        r"\(false positives on non-buggy twins: (.*)\)",
        (RESULTS / "table3_juliet.txt").read_text(),
    ).group(1)
    return {
        "GiantSan = ASan = ASan-- on every CWE":
            f"yes ({total['GiantSan']} each)" if same else "no",
        "cases all three miss never trigger at runtime":
            f"{int(total['Total']) - int(total['GiantSan'])} latent",
        "LFP stack overflow": then_words(fraction["CWE121"]),
        "LFP heap overflow": then_words(fraction["CWE122"]),
        "LFP underwrite / underread":
            "all detected"
            if all(rows[cwe]["LFP"] == rows[cwe]["Total"]
                   for cwe in underflows)
            else " / ".join(fraction[cwe] for cwe in underflows),
        "LFP overread": then_words(fraction["CWE126"]),
        "false positives":
            "none"
            if set(re.findall(r"=(\d+)", false_positives)) == {"0"}
            else false_positives,
    }


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
    text = fill_table(text, "## Table 3 — ", juliet_rows())
    php = table_rows("table5_magma.txt")["php"]
    text = fill_table(text, "## Table 5 — ", {"php": " / ".join(
        php[column] for column in (
            "ASan (rz=16)", "ASan (rz=512)", "GiantSan (rz=16)", "Total"
        )
    )})
    text = fill_table(text, "## Figure 11 — ", traversal_ratios())
    text = fill_table(text, "## Extension: HWASAN", {
        program: [whole_percent(cell) for cell in cells.values()]
        for program, cells in table_rows("extension_hwasan.txt").items()
    })
    return fill_table(text, "## Extension: memory overhead", {
        tool: [f"{int(cell):,}" for cell in cells.values()]
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
