"""EXPERIMENTS.md's rendered Table 5 follows every count of its results file."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TABLE5 = "table5_magma.txt"


@pytest.fixture(scope="module")
def render_module():
    spec = importlib.util.spec_from_file_location(
        "render_experiments", ROOT / "benchmarks" / "render_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _count_cells():
    """``(line index, match)`` for every count of the Table 5 rows."""
    lines = (ROOT / "benchmarks" / "results" / TABLE5).read_text().splitlines()
    return [
        (index, match.span())
        for index, line in enumerate(lines[2:], 2)
        for match in re.finditer(r"(?<= )\d+", line)
    ]


def test_committed_document_is_rendered(render_module):
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    assert render_module.render(doc) == doc


@pytest.mark.parametrize("cell", _count_cells())
def test_editing_one_table5_count_changes_the_rendering(
    render_module, monkeypatch, tmp_path, cell
):
    results = tmp_path / "results"
    shutil.copytree(ROOT / "benchmarks" / "results", results)
    lines = (results / TABLE5).read_text().splitlines(True)
    index, (start, end) = cell
    line = lines[index]
    lines[index] = line[:start] + str(int(line[start:end]) + 1) + line[end:]
    (results / TABLE5).write_text("".join(lines))
    monkeypatch.setattr(render_module, "RESULTS", results)
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    assert render_module.render(doc) != doc
