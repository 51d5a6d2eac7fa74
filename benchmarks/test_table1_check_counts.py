"""Table 1: # checks under operation-level vs instruction-level protection.

Regenerates the four analysis-method rows by instrumenting each pattern
for GiantSan (operation level) and ASan (instruction level) and counting
static and dynamic checks.
"""

import re

from conftest import emit

from repro.analysis import render_table1
from repro.runtime import Session
from repro.workloads.patterns import TABLE1_PATTERNS


def test_table1_check_counts(benchmark):
    text = benchmark.pedantic(render_table1, rounds=1, iterations=1)
    emit("table1_check_counts", text)
    # sanity: the operation-level column must show 1 check for the first
    # three patterns, instruction-level Theta(N) for memset and the loop
    # (columns are separated by runs of two or more spaces; the names
    # and headers contain single spaces)
    lines = text.splitlines()
    header = next(l for l in lines if l.startswith("Analysis Method"))
    names = re.split(r" {2,}", header.strip())
    rows = [l for l in lines if l.startswith(("Constant", "Pre", "Loop"))]
    assert len(rows) == 3
    for line in rows:
        columns = dict(zip(names, re.split(r" {2,}", line.strip())))
        assert int(columns["op-level dynamic"]) <= 2
        assert int(columns["instr-level dynamic"]) >= 3


def test_table1_dynamic_check_ratio(benchmark):
    """Time + count the loop-bound pattern: N instruction checks vs 1."""
    pattern = next(p for p in TABLE1_PATTERNS if p.name == "loop-bound")

    def run_both():
        giant = Session("GiantSan").run(pattern.build())
        asan = Session("ASan").run(pattern.build())
        return giant.stats.checks_executed, asan.stats.checks_executed

    giant_checks, asan_checks = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    assert giant_checks * 10 < asan_checks
