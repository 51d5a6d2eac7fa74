"""Render EXPERIMENTS.md's measured values from ``benchmarks/results``.

Rewrites, from the tables the paper-claim benches write: the measured
columns of the Table 1, Table 2, Table 2 (ablation), Table 3 and
Figure 11 tables, Table 2's measured prose figures (four per-program
overheads, the share of ASan's overhead GiantSan removes and the
ablation's EliminationOnly vs ASan-- means), Table 4's detection counts
and LFP's misses, Table 5's measured column, the two Figure 10 means,
the three cycle counts of the Figure 11c mitigation, and the HWASan and
memory-overhead extension tables.  The paper's figures, the prose
around them, the words around a rendered number and the note after
each of LFP's misses stay hand-written.

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


def table_lines(name):
    """``[{column: cell}]`` for the rows of a results table that follow
    its column-header line; cells are split by two or more spaces, so a
    label or a column name may hold single spaces."""
    header, *rows = (
        re.split(r"\s{2,}", line.strip())
        for line in (RESULTS / name).read_text().splitlines()[1:]
    )
    return [dict(zip(header, cells))
            for cells in rows if len(cells) == len(header)]


def table_rows(name):
    """``{label: {column: cell}}``: :func:`table_lines` keyed by each
    row's first cell."""
    rows = {}
    for row in table_lines(name):
        label = row.pop(next(iter(row)))
        rows[label] = row
    return rows


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


def check_counts():
    """Table 1's two measured columns, by the pattern each analysis
    method's row exercises; the must-alias row's op-level cell keeps its
    words around the total."""
    rows = table_rows("table1_check_counts.txt")
    patterns = {
        "`p[0]+p[10]+p[20]`": "Constant Propagation",
        "`memset(p,0,N)`": "Predefined Semantics",
        "bounded loop `p[i]`": "Loop Bound Analysis",
        "must-alias + loop": "Must-alias Analysis",
    }
    measured = {}
    for pattern, method in patterns.items():
        row = rows[method]
        op_level = row["op-level dynamic"]
        if method == "Must-alias Analysis":
            op_level = then_total(op_level)
        measured[pattern] = [
            op_level, lambda cell: cell, row["instr-level dynamic"]
        ]
    return measured


def then_total(total):
    """A cell's new text: ``total`` in its ``(n total)``, the words
    around it kept."""
    return lambda cell: re.sub(r"\(\d+ total\)", f"({total} total)", cell)


def linux_flaw(text):
    """``text`` with Table 4's detection counts and LFP's misses from
    the per-CVE table.  A miss the prose already names keeps its
    hand-written note; a new one is listed bare, to be described."""
    rows = table_lines("table4_linux_flaw.txt")
    counts = [
        f"{sum(row[tool] == 'yes' for row in rows)}/{len(rows)}"
        for tool in ("GiantSan", "ASan", "ASan--")
    ]
    counts = counts[0] if len(set(counts)) == 1 else " / ".join(counts)
    text, count = re.subn(
        r"(\* GiantSan, ASan, ASan--: )[\d/ ]+( detected)",
        rf"\g<1>{counts}\2", text,
    )
    if count != 1:
        raise SystemExit("no single Table 4 detection count")
    bullet = re.search(
        r"(\* LFP misses exactly )(.*?)( — )", text, re.DOTALL
    )
    if bullet is None:
        raise SystemExit("no Table 4 list of LFP's misses")
    notes = dict(re.findall(
        r"`(CVE-[\d-]+)`(\s*\([^)]*\))?", bullet.group(2)
    ))
    misses = [row["CVE ID"] for row in rows if row["LFP"] == "-"]
    if list(notes) == misses:
        return text
    listed = [f"`{cve}`{notes.get(cve, '')}" for cve in misses]
    if len(listed) > 1:
        listed[-1] = "and " + listed[-1]
    joined = (", " if len(listed) > 2 else " ").join(listed) or "nothing"
    return text[:bullet.start(2)] + joined + text[bullet.end(2):]


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


def magma_rows():
    """Table 5's measured column: ``rz16 / rz512 / GiantSan / total``
    when the configurations differ (ASan's counts, with ASan--'s only
    where they differ), else ``n =`` with any hand-written words after
    it and ``, total m`` when some bugs stay latent."""
    measured = {}
    for project, row in table_rows("table5_magma.txt").items():
        total = row.pop("Total")
        counts = set(row.values())
        if len(counts) > 1:
            cells = [
                row[f"ASan {redzone}"]
                + ("" if row[f"ASan-- {redzone}"] == row[f"ASan {redzone}"]
                   else f" (ASan-- {row[f'ASan-- {redzone}']})")
                for redzone in ("(rz=16)", "(rz=512)")
            ]
            measured[project] = " / ".join(
                [*cells, row["GiantSan (rz=16)"], total]
            )
        else:
            measured[project] = same_across(counts.pop(), total)
    return measured


def same_across(count, total):
    """A cell's new text: ``count =``, the words after the old ``=``
    kept, then ``, total m`` unless every bug is detected."""
    latent = "" if count == total else f", total {total}"

    def cell_text(cell):
        words = re.fullmatch(r"\d+ =(.*?)(, total \d+)?", cell)
        return f"{count} ={words.group(1) if words else ''}{latent}"

    return cell_text


def reverse_mitigation(text):
    """``text`` with the Figure 11c mitigation's cycle counts on the
    reverse traversal: plain GiantSan, ASan and GiantSan with the
    lower bound, the words between them kept."""
    cycles = {
        tool: f"{int(count):,}"
        for tool, count in re.findall(
            r"^\s+(\S+)\s+(\d+)$",
            (RESULTS / "fig11_reverse_mitigation.txt").read_text(),
            re.MULTILINE,
        )
    }
    text, count = re.subn(
        r"(plain GiantSan\s+)[\d,]+(\s+>\s+ASan\s+)[\d,]+"
        r"(\s+>\s+GiantSan\+lower-bound\s+)[\d,]+",
        lambda match: "".join((
            match[1], cycles["GiantSan"], match[2], cycles["ASan"],
            match[3], cycles["GiantSan+lb"],
        )),
        text,
    )
    if count != 1:
        raise SystemExit("no single Figure 11c mitigation sentence")
    return text


def substitute(text, pattern, value, what):
    """``text`` with the number in group 2 of the one match of
    ``pattern`` (groups 1 and 3 around it) set to ``value``."""
    text, count = re.subn(
        pattern, lambda match: f"{match[1]}{value}{match[3]}", text
    )
    if count != 1:
        raise SystemExit(f"no single {what}")
    return text


def table2_prose(text, table2, ablation):
    """``text`` with Table 2's measured prose figures: four proxies'
    overheads, the share of ASan's overhead over native that GiantSan
    removes, and the ablation's EliminationOnly vs ASan-- means."""
    rows = table_rows("table2_spec_overhead.txt")
    removed = (
        (Decimal(table2["ASan"].rstrip("%"))
         - Decimal(table2["GiantSan"].rstrip("%")))
        / (Decimal(table2["ASan"].rstrip("%")) - 100)
    )
    for what, pattern, value in (
        ("lbm overhead", r"(paper: lbm [\d.]+%, measured )([\d.]+%)(\))",
         rows["519.lbm_r"]["GiantSan"]),
        ("perlbench overhead",
         r"(paper [\d.]+%, measured )([\d.]+%)(; omnetpp)",
         rows["500.perlbench_r"]["GiantSan"]),
        ("omnetpp overhead", r"(omnetpp is\s+the worst here at )([\d.]+%)(\))",
         rows["520.omnetpp_r"]["GiantSan"]),
        ("xalancbmk overhead",
         r"(xalancbmk is LFP's best \(paper [\d.]+%,\s+measured )([\d.]+%)"
         r"(\))",
         rows["523.xalancbmk_r"]["LFP"]),
        ("share of ASan's overhead removed",
         r"(ASan's overhead removed in the paper; )(\d+%)( here)",
         f"{whole_percent(str(removed * 100))}%"),
        ("ablation comparison",
         r"(measured )([\d.]+% vs [\d.]+%)(\)\. Deviation)",
         f"{ablation['GiantSan-EliminationOnly']} vs {ablation['ASan--']}"),
    ):
        text = substitute(text, pattern, value, what)
    return text


def whole_percent(cell):
    """``"132.9%"`` -> ``"133"`` (half rounds up)."""
    return str(Decimal(cell.rstrip("%")).quantize(Decimal(1), ROUND_HALF_UP))


def render(text):
    table2 = geomeans("table2_spec_overhead.txt")
    ablation = geomeans("table2_ablation.txt")
    text = fill_table(text, "## Table 1 — ", check_counts())
    text = fill_table(text, "## Table 2 — ", table2)
    text = fill_table(text, "## Table 2 (ablation)", {
        "GiantSan (both)": ablation["GiantSan"],
        "CacheOnly": ablation["GiantSan-CacheOnly"],
        "EliminationOnly": ablation["GiantSan-EliminationOnly"],
    })
    text = table2_prose(text, table2, ablation)
    optimized, fast_only = re.search(
        r"mean optimized: ([\d.]+%); fast-only share of unoptimized: "
        r"([\d.]+%)",
        (RESULTS / "fig10_check_breakdown.txt").read_text(),
    ).groups()
    for prose, value in (
        ("mean optimized fraction is", optimized),
        ("fast-only share of the remainder", fast_only),
    ):
        text = substitute(
            text, rf"({prose}\s+)([\d.]+%)()", value,
            f"Figure 10 mean after {prose!r}",
        )
    text = fill_table(text, "## Table 3 — ", juliet_rows())
    text = linux_flaw(text)
    text = fill_table(text, "## Table 5 — ", magma_rows())
    text = fill_table(text, "## Figure 11 — ", traversal_ratios())
    text = reverse_mitigation(text)
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
