"""The configuration-matrix differential harness.

Every acceleration of the simulator (the superblock fast path, compiled
closures with their mid-run tier-up, the instrumentation memo and the
process pool) changes speed and never a result.  This is the proof.

A **cell** is one :class:`ExecConfig`; :data:`CELLS` enumerates every
combination of its fields, so a field added to or deleted from
``ExecConfig`` grows or shrinks the matrix with no edit to the cell
list (a new field that a run reads joins :data:`ACCELERATIONS`).  Each
cell runs every :mod:`corpus` program in two modes: ``session``
(:meth:`Session.run`: the tree walker, or with ``memoize`` on a cold run
that tiers up mid-run on a cleared memo and then a warm one that runs
closures from the memo) and ``compiled`` (closures from the entry
call).  Every run must match, observable for observable, the
tree-walker **reference** of its cell: the same cell with the fast
path and the memo off.  The fast path's own telemetry
(:func:`engines.telemetry_views`) is compared with the tree walker at
the cell's ``fastpath`` instead.  The units (a program and a tool
each) spread over the process pool.

At study level the reference cell is every field off; Tables 2-5 and a
fuzz span must come out equal from it and from the default cell, at
any ``jobs``.
"""

import importlib
import os
import time
from dataclasses import fields, replace
from itertools import product

import pytest

from corpus import CORPUS, SCALE, TOOLS
from engines import engine_on, observables
from repro.analysis import run_overhead_study
from repro.analysis.detection import (
    run_juliet_study,
    run_linux_flaw_study,
    run_magma_study,
)
from repro.analysis.parallel import (
    default_jobs,
    parallel_map,
    shutdown_pool,
    steal_spans,
)
from repro.analysis.tables import render_table2
from repro.fuzz import ShadowInvariantChecker
from repro.fuzz.driver import fuzz_spans
from repro.ir.nodes import Loop
from repro.passes.instrument import fold_program
from repro.runtime import CompiledEngine, ExecConfig, Interpreter, Session
from repro.runtime.fastpath import analyze_loop
from repro.workloads.spec import SPEC_TABLE2_ROWS

#: The module behind ``repro.passes.instrument``, a name the package's
#: ``instrument`` function shadows: it holds the instrumentation memo.
INSTRUMENT = importlib.import_module("repro.passes.instrument")

FIELDS = [field.name for field in fields(ExecConfig)]
CELLS = [
    ExecConfig(**dict(zip(FIELDS, values)))
    for values in product((True, False), repeat=len(FIELDS))
]


#: The fields a run reads.  Every other field changes a run only
#: through the program it instruments.
ACCELERATIONS = ("fastpath", "memoize")


def reference_of(cell):
    """The tree-walker cell ``cell`` is compared with."""
    return replace(cell, **dict.fromkeys(ACCELERATIONS, False))


def label(cell):
    return ",".join(f"{name}={int(getattr(cell, name))}" for name in FIELDS)


def flat(value, prefix=""):
    """``value``'s nested dicts as one dict of ``a/b/c`` keys."""
    if not isinstance(value, dict):
        return {prefix: value}
    out = {}
    for key, item in value.items():
        out.update(flat(item, f"{prefix}/{key}" if prefix else str(key)))
    return out


def mismatch(got, want, where):
    """None, or a message naming ``where`` and the first observable
    that differs, down to a nested key such as ``stats/fast_checks``."""
    if got == want:
        return None
    got, want = flat(got), flat(want)
    key = next(
        key
        for key in [*want, *(key for key in got if key not in want)]
        if got.get(key, "<absent>") != want.get(key, "<absent>")
    )
    return (
        f"{where}: observable {key!r} is {got.get(key, '<absent>')!r}, "
        f"reference {want.get(key, '<absent>')!r}"
    )


def _session_run(tool, cell, program, args, session):
    session = Session(tool, cell, **session)
    return observables(session.run(program, args), session.sanitizer)


def _compiled_run(tool, cell, program, args, session):
    runner, iprogram = engine_on(CompiledEngine, program, tool, cell, **session)
    return observables(runner.run(iprogram, args), runner.san)


def _observe(run, *args):
    """``run(*args)``'s observables, or what it raised."""
    try:
        return run(*args)
    except Exception as exc:  # noqa: BLE001 - compared with the reference
        return {"raised": f"{type(exc).__name__}: {exc}"}


class TreeWalks:
    """Memo-off session runs of one entry and tool, each cell run once.
    Every cell's reference is the all-off cell, so every run shares its
    one instrumented ``program``, whose first run is the reference's."""

    def __init__(self, entry, tool):
        self.entry, self.tool = entry, tool
        self.session = dict(entry.session)
        self.runs = {}
        session = Session(tool, reference_of(CELLS[0]), **self.session)
        self.program = session.instrument(entry.source())

    def __call__(self, cell):
        if cell not in self.runs:
            if cell != reference_of(cell):
                self(reference_of(cell))
            self.runs[cell] = _observe(
                _session_run, self.tool, cell, self.program, self.entry.args,
                self.session,
            )
        return self.runs[cell]

    def expected(self, cell):
        """The reference's observables, but the fast path's own
        telemetry from the tree walker at ``cell``'s ``fastpath``."""
        want = dict(self(reference_of(cell)))
        if "superblock" in want:
            walker = replace(cell, memoize=False)
            want["superblock"] = self(walker).get("superblock")
        return want


def _cell_runs(walk, cell):
    """``(mode, observables)`` of each run of ``cell``.  A memo-off
    session run is ``walk(cell)``; a cold run clears the memo, so it
    instruments, tree-walks and tiers up afresh."""
    entry, tool, session = walk.entry, walk.tool, walk.session
    if cell.memoize:
        INSTRUMENT._MEMO.clear()
        program = entry.source()
        for mode in ("session-cold", "session-warm"):
            yield mode, _observe(
                _session_run, tool, cell, program, entry.args, session
            )
    else:
        if cell != reference_of(cell):
            yield "session", walk(cell)
        program = walk.program
    yield "compiled", _observe(
        _compiled_run, tool, cell, program, entry.args, session
    )


def first_mismatch(entry, tool):
    """Run ``entry`` under ``tool`` in every cell; the first mismatch."""
    walk = TreeWalks(entry, tool)
    for cell in CELLS:
        want = walk.expected(cell)
        for mode, got in _cell_runs(walk, cell):
            where = (
                f"cell {label(cell)}, mode {mode}, program {entry.id}, "
                f"tool {tool}"
            )
            failure = mismatch(got, want, where)
            if failure:
                return failure
    return None


UNITS = [(entry, tool) for entry in CORPUS for tool in entry.tools]


def check_unit(index):
    """``(index, first mismatch)`` of ``UNITS[index]``: a pool worker's
    unit, so the result names the unit whatever order it returns in."""
    return index, first_mismatch(*UNITS[index])


#: Workers for the matrix and the study runs: the CPUs, at most the four
#: workers the largest study map uses.
WORKERS = min(default_jobs(), 4)


@pytest.fixture(scope="module")
def mismatches(request):
    """Every selected unit's first mismatch; the units, each a few
    dozen runs, spread over the process pool."""
    selected = [
        item.callspec.params["unit"]
        for item in request.session.items
        if item.originalname == "test_every_cell_matches_its_reference"
    ]
    return dict(parallel_map(check_unit, selected, WORKERS))


@pytest.fixture(scope="module", autouse=True)
def _no_pool_left():
    yield
    shutdown_pool()


@pytest.mark.parametrize(
    "unit", range(len(UNITS)),
    ids=[f"{entry.id}-{tool}" for entry, tool in UNITS],
)
def test_every_cell_matches_its_reference(unit, mismatches):
    if mismatches[unit]:
        pytest.fail(mismatches[unit], pytrace=False)


# ----------------------------------------------------------------------
# study level: whole tables and a fuzz span, across cells and jobs
# ----------------------------------------------------------------------
#: Every field off: with the memo off every run is a first run.
REFERENCE = ExecConfig(**dict.fromkeys(FIELDS, False))
STUDY_CELLS = [(REFERENCE, (1, 2, 4)), (ExecConfig(), (1, 2, 4))]


def _table2(config, jobs):
    study = run_overhead_study(scale=SCALE, jobs=jobs, config=config)
    return {
        "programs": [row.program for row in study.rows],
        **{
            row.program: {
                "native_cycles": row.native_cycles,
                "ratios": row.ratios,
                **{
                    tool: observables(result)
                    for tool, result in row.results.items()
                },
            }
            for row in study.rows
        },
        "table": render_table2(study),
    }


def _juliet(config, jobs):
    return vars(run_juliet_study(jobs=jobs, config=config))


def _linux_flaw(config, jobs):
    return run_linux_flaw_study(jobs=jobs, config=config).outcomes


def _magma(config, jobs):
    return vars(run_magma_study(jobs=jobs, config=config))


def _fuzz(config, jobs):
    summary = fuzz_spans(
        steal_spans(60, jobs), jobs, 11, 0.55, False, False, config
    )
    return vars(summary)


STUDIES = {
    "table2": _table2,
    "juliet": _juliet,
    "linux_flaw": _linux_flaw,
    "magma": _magma,
    "fuzz": _fuzz,
}


def study_output(run):
    """``(run, output)`` of one ``(study, cell, jobs)`` run."""
    study, cell, jobs = run
    return run, STUDIES[study](cell, jobs)


@pytest.mark.parametrize("study", list(STUDIES))
def test_study_outputs_match_across_cells_and_jobs(study):
    runs = [
        (study, cell, jobs)
        for cell, jobs_values in STUDY_CELLS
        for jobs in jobs_values
    ]
    # the jobs=1 runs share the pool; the others spread over it themselves
    outputs = dict(parallel_map(
        study_output, [run for run in runs if run[2] == 1], WORKERS
    ))
    want = outputs[runs[0]]
    for run in runs[1:]:
        got = outputs[run] if run in outputs else study_output(run)[1]
        failure = mismatch(
            got, want, f"study {study}, cell {label(run[1])}, jobs {run[2]}"
        )
        if failure:
            pytest.fail(failure, pytrace=False)


# ----------------------------------------------------------------------
# non-vacuity: each axis did something
# ----------------------------------------------------------------------
def test_fastpath_plans_a_superblock():
    planned = 0
    for spec in SPEC_TABLE2_ROWS:
        for function in spec.build().functions.values():
            stack = list(function.body)
            while stack:
                instr = stack.pop()
                if isinstance(instr, Loop):
                    planned += analyze_loop(instr) is not None
                    stack.extend(instr.body)
    assert planned > 0


def test_memoized_run_tiers_up_and_warm_run_compiles_nothing(engine_log):
    program = SPEC_TABLE2_ROWS[2].build()
    session = Session("GiantSan", ExecConfig())
    session.run(program, [SCALE])  # cold: tree-walks, then closures
    assert engine_log["compiles"] == 1
    walked = len(engine_log["tree"])
    session.run(program, [SCALE])  # warm: closures from the entry
    assert engine_log["compiles"] == 1
    assert len(engine_log["tree"]) == walked


#: 500.perlbench_r makes over a hundred heap events at :data:`SCALE`;
#: the other two a few each.
CHECKED_SPECS = [
    spec for spec in SPEC_TABLE2_ROWS
    if spec.name in ("500.perlbench_r", "508.namd_r", "510.parest_r")
]


@pytest.mark.parametrize("tool", TOOLS)
@pytest.mark.parametrize("spec", CHECKED_SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize(
    "cell", [REFERENCE, ExecConfig()], ids=["reference", "default"]
)
def test_attached_checker_changes_no_result(cell, spec, tool):
    """A raising invariant checker observes a run and changes nothing.
    It re-verifies the whole heap after every event.  In the default
    cell the runs execute compiled closures from the entry call, so the
    checker observes the closures' deferred counters too."""
    program = fold_program(spec.build())
    engine = CompiledEngine if cell.memoize else Interpreter

    def run(checker=False):
        runner, iprogram = engine_on(engine, program, tool, cell)
        attached = checker and ShadowInvariantChecker.attach(
            runner.san, raise_on_violation=True
        )
        result = runner.run(iprogram, [SCALE])
        return observables(result, runner.san), attached

    (checked, checker), (plain, _) = run(checker=True), run()
    failure = mismatch(
        checked, plain, f"cell {cell}, program {spec.name}, tool {tool}"
    )
    if failure:
        pytest.fail(failure, pytrace=False)
    assert checker.checks_run > 0


def _pid(seconds):
    time.sleep(seconds)
    return os.getpid()


def test_parallel_map_uses_more_than_one_worker():
    assert len(set(parallel_map(_pid, [0.1] * 8, 2))) > 1
