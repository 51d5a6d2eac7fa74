"""EXPERIMENTS.md's rendered Table 5 and Figure 11c mitigation follow
every count of their results files, and Table 2's prose figures follow
the cells they are read from."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TABLE5 = "table5_magma.txt"
MITIGATION = "fig11_reverse_mitigation.txt"


@pytest.fixture(scope="module")
def render_module():
    spec = importlib.util.spec_from_file_location(
        "render_experiments", ROOT / "benchmarks" / "render_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _count_cells(name, first):
    """``(line index, match)`` for every count of the rows of results
    table ``name`` from line ``first`` on."""
    lines = (ROOT / "benchmarks" / "results" / name).read_text().splitlines()
    return [
        (index, match.span())
        for index, line in enumerate(lines[first:], first)
        for match in re.finditer(r"(?<= )\d+", line)
    ]


def _bump(render_module, monkeypatch, tmp_path, name, cell):
    """Render EXPERIMENTS.md from a copy of the results whose ``cell``
    of table ``name`` is one more."""
    results = tmp_path / "results"
    shutil.copytree(ROOT / "benchmarks" / "results", results)
    lines = (results / name).read_text().splitlines(True)
    index, (start, end) = cell
    line = lines[index]
    lines[index] = line[:start] + str(int(line[start:end]) + 1) + line[end:]
    (results / name).write_text("".join(lines))
    monkeypatch.setattr(render_module, "RESULTS", results)
    return render_module.render((ROOT / "EXPERIMENTS.md").read_text())


def test_committed_document_is_rendered(render_module):
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    assert render_module.render(doc) == doc


def test_check_passes_on_the_committed_document(render_module):
    assert render_module.main(["--check"]) == 0


@pytest.mark.parametrize("cell", _count_cells(TABLE5, 2))
def test_editing_one_table5_count_changes_the_rendering(
    render_module, monkeypatch, tmp_path, cell
):
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    assert _bump(render_module, monkeypatch, tmp_path, TABLE5, cell) != doc


@pytest.mark.parametrize("cell", _count_cells(MITIGATION, 1))
def test_editing_one_mitigation_count_changes_the_rendering(
    render_module, monkeypatch, tmp_path, cell
):
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    bumped = _bump(render_module, monkeypatch, tmp_path, MITIGATION, cell)
    assert bumped != doc


def _set_cell(render_module, monkeypatch, tmp_path, name, label, column,
              value):
    """Render EXPERIMENTS.md from a copy of the results whose ``column``
    cell in the ``label`` row of table ``name`` reads ``value``."""
    results = tmp_path / "results"
    shutil.copytree(ROOT / "benchmarks" / "results", results)
    lines = (results / name).read_text().splitlines(True)
    columns = re.findall(r"\S+(?: \S+)*", lines[1])
    (index,) = [i for i, line in enumerate(lines) if line.startswith(label)]
    cell = list(re.finditer(r"\S+(?: \S+)*", lines[index]))[
        columns.index(column)
    ]
    line = lines[index]
    lines[index] = line[:cell.start()] + value + line[cell.end():]
    (results / name).write_text("".join(lines))
    monkeypatch.setattr(render_module, "RESULTS", results)
    return render_module.render((ROOT / "EXPERIMENTS.md").read_text())


TABLE2 = "table2_spec_overhead.txt"
ABLATION = "table2_ablation.txt"


@pytest.mark.parametrize("name, label, column, value, prose", [
    (TABLE2, "519.lbm_r", "GiantSan", "101.50%",
     "(paper: lbm 101.09%, measured 101.50%)"),
    (TABLE2, "500.perlbench_r", "GiantSan", "190.00%",
     "(paper 200.56%, measured 190.00%; omnetpp"),
    (TABLE2, "520.omnetpp_r", "GiantSan", "195.00%",
     "the worst here at 195.00%)"),
    (TABLE2, "523.xalancbmk_r", "LFP", "140.00%", "measured 140.00%)."),
    (TABLE2, "Geometric Means.", "GiantSan", "150.00%",
     "in the paper; 59% here"),
    (TABLE2, "Geometric Means.", "ASan", "200.00%",
     "in the paper; 60% here"),
    (ABLATION, "Geometric Means.", "GiantSan-EliminationOnly", "160.00%",
     "measured 160.00% vs 156.94%)"),
    (ABLATION, "Geometric Means.", "ASan--", "157.00%",
     "measured 153.88% vs 157.00%)"),
])
def test_editing_a_table2_prose_cell_changes_its_figure(
    render_module, monkeypatch, tmp_path, name, label, column, value, prose
):
    assert prose not in (ROOT / "EXPERIMENTS.md").read_text()
    rendered = _set_cell(
        render_module, monkeypatch, tmp_path, name, label, column, value
    )
    assert prose in rendered
