"""Inlined first-stage checks: compiled closures against the tree walker.

Compiled closures inline the first stage of ASan's ``check_access``,
LFP's ``check_region`` and GiantSan's ``check_cached``
(:class:`repro.sanitizers.base.FirstStage`) and call the method only
where that stage fails.  Every test here runs one program on the tree
walker and on closures compiled before the run, and compares every
observable: CheckStats (LFP's float ``extra_instructions`` included),
the Figure 10 protection counts, full error reports, cycles,
instruction counts, telemetry counters and the final bytes of the
address space.  The edge programs place their checks by hand, so each
check runs exactly as written under every tool; the Table 2 proxies run
with the superblock fast path off, so their loop bodies check every
iteration inside the closures.
"""

import sys

import pytest

from engines import observables
from repro.errors import AccessType, ErrorKind
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import (
    CacheFinalize,
    CheckAccess,
    CheckCached,
    CheckRegion,
    Const,
    Var,
)
from repro.ir.program import walk
from repro.memory import ArenaLayout
from repro.passes.base import PassStats
from repro.passes.instrument import InstrumentedProgram
from repro.runtime import (
    CompiledEngine,
    ExecConfig,
    Interpreter,
    Session,
    compiler,
)
from repro.sanitizers.asan import ASan
from repro.sanitizers.base import EventKind
from repro.sanitizers.giantsan import GiantSan
from repro.sanitizers.lfp import LFP
from repro.workloads.spec import SPEC_TABLE2_ROWS

TOOLS = [
    "ASan",
    "ASan--",
    "GiantSan",
    "GiantSan-CacheOnly",
    "GiantSan-EliminationOnly",
    "LFP",
    "HWASan",
    "Native",
]

#: The three inlined stages: (tool, its class, the check method, the
#: node that calls it).
STAGED = [
    ("ASan", ASan, "check_access", CheckAccess),
    ("LFP", LFP, "check_region", CheckRegion),
    ("GiantSan", GiantSan, "check_cached", CheckCached),
]

TOP = ArenaLayout().total_size
READ, WRITE = AccessType.READ, AccessType.WRITE


def _observables(result, runner):
    """The engines' observables, and the hardware faults that wild
    accesses raised."""
    return {
        **observables(result, runner.san),
        "hardware_faults": runner.hardware_faults,
    }


def _run(program, tool, engine, telemetry=True, args=None, prepare=None):
    """``(observables, closure table key)`` of one run of the checked
    ``program`` with the fast path off, so every check runs where it
    stands (the key is None on the tree walker); ``tool`` is a tool
    name or a sanitizer, and ``prepare(sanitizer)`` runs before the
    engine starts."""
    config = ExecConfig(fastpath=False, memoize=False)
    session = Session(tool, config, telemetry=telemetry)
    san = session.sanitizer
    if prepare is not None:
        prepare(san)
    runner = engine(
        san,
        native_costs=session.cost_model.native,
        max_instructions=session.max_instructions,
        fastpath=False,
        telemetry=session.telemetry,
    )
    key = None
    if engine is CompiledEngine:
        key = runner.table_key()
        table = compiler.compile_program(program, *key)
        assert set(table) == set(program.functions), "a function tree-walks"
    iprogram = InstrumentedProgram(program, PassStats(), "region")
    return _observables(runner.run(iprogram, args), runner), key


def _assert_engines_match(program, tools=TOOLS, **kwargs):
    for tool in tools:
        for telemetry in (False, True):
            tree, _ = _run(program, tool, Interpreter, telemetry=telemetry,
                           **kwargs)
            compiled, _ = _run(program, tool, CompiledEngine,
                               telemetry=telemetry, **kwargs)
            assert tree == compiled, (tool, telemetry)


# ----------------------------------------------------------------------
# hand-placed checks
# ----------------------------------------------------------------------
def _access_program():
    """ASan's edges: aligned, unaligned, straddling and partial
    accesses, every width, redzones, the null page, wild addresses at
    both ends of the space and a use after free."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("p", 13)  # one GOOD segment, then a 5-byte partial one
        f.malloc("q", 64)
        f.stack_alloc("s", 24)
        f.global_alloc("g", 40)
        f.assign("z", 0)

        def check(base, offset, width, access=READ):
            f._emit(CheckAccess(base, Const(offset), width, access))

        for offset, width in [(0, 8), (1, 2), (4, 4), (7, 1), (6, 4),
                              (3, 8), (56, 8), (60, 8), (64, 1)]:
            check("q", offset, width)
        for offset, width in [(8, 4), (10, 2), (9, 4), (12, 2), (13, 1),
                              (4, 8)]:
            check("p", offset, width, WRITE)
        for offset, width in [(0, 8), (20, 4), (22, 4), (24, 1)]:
            check("s", offset, width)
        for offset, width in [(32, 8), (36, 4), (40, 1)]:
            check("g", offset, width)
        for offset, width in [(-8, 8), (-1, 1), (-1, 2), (0, 1),
                              (TOP - 8, 8), (TOP - 4, 8), (TOP - 1, 1),
                              (TOP - 1, 2), (TOP, 1)]:
            check("z", offset, width)
        for width in (1, 2, 4, 8):
            with f.loop("i", 0, 72) as i:
                f._emit(CheckAccess("q", i, width, READ))
        f.free("q")
        check("q", 0, 8)
        check("q", 4, 4, WRITE)
    return builder.build()


def _cached_program():
    """``check_cached``'s edges: quasi-bound growth and its exact
    boundary, negative offsets (an interior pointer, underflow, a
    region that crosses the anchor), an overflow and a finalize."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("p", 200)
        f.ptr_add("m", "p", 64)

        def check(cid, base, offset, width):
            f._emit(CheckCached(cid, base, Const(offset), width, READ))

        check(0, "p", 0, 8)  # miss: learns the quasi-bound
        check(0, "p", 4, 4)  # hit
        with f.loop("i", 0, 24) as i:
            f._emit(CheckCached(0, "p", i * 8, 8, WRITE))
        for offset, width in [(120, 8), (124, 4), (125, 4), (128, 8),
                              (192, 8), (196, 4), (197, 4), (200, 1)]:
            check(0, "p", offset, width)
        for offset, width in [(-8, 8), (-64, 8), (-4, 8), (-72, 8),
                              (-65, 1)]:
            check(1, "m", offset, width)
        check(1, "m", 0, 8)
        check(2, "p", -8, 8)
        check(2, "p", 0, 1)
        f._emit(CacheFinalize(0, "p"))
        check(0, "p", 8, 8)  # after the reset: misses again
        with f.loop("j", 0, 30, reverse=True) as j:
            f._emit(CheckCached(3, "m", j * -2, 2, READ))
    return builder.build()


def _region_program():
    """LFP's edges: a size class's slack, overflow and underflow, empty
    and inverted regions, unanchored sites, an interior pointer, the
    stack and globals, null pointers and a freed region."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("p", 600)  # LFP rounds it up to a 640-byte class
        f.malloc("r", 32)
        f.ptr_add("m", "p", 100)
        f.stack_alloc("s", 32)
        f.global_alloc("g", 32)
        f.assign("z", 0)
        f.assign("n", 16)

        def check(base, start, end, anchor=True):
            f._emit(CheckRegion(base, Const(start), Const(end), READ,
                                use_anchor=anchor))

        for start, end in [(0, 8), (592, 600), (600, 640), (632, 648),
                           (-8, 8), (8, 8), (16, 8), (0, 640)]:
            check("p", start, end)
        for start, end in [(0, 8), (8, 16), (0, 0)]:
            check("p", start, end, anchor=False)
        for base in ("m", "s", "g", "z", "n"):
            check(base, 0, 8)
            check(base, 0, 8, anchor=False)
        with f.loop("i", 0, 84) as i:
            f._emit(CheckRegion("p", i * 8, i * 8 + 8, WRITE))
        f.free("r")
        check("r", 0, 8)
        check("r", 8, 16, anchor=False)
    return builder.build()


#: The edge program of each staged check kind.
PROGRAMS = {
    CheckAccess: _access_program,
    CheckCached: _cached_program,
    CheckRegion: _region_program,
}


@pytest.mark.parametrize(
    "kind", list(PROGRAMS), ids=lambda kind: kind.__name__
)
def test_hand_placed_checks_match_tree(kind):
    _assert_engines_match(PROGRAMS[kind]())


@pytest.mark.parametrize("tool", ["ASan", "ASan--"])
def test_negative_address_never_wraps_into_the_shadow(tool):
    """A negative address is wild even where the shadow's last byte,
    which a wrapped index would read, is GOOD."""

    def good_top(san):
        san.shadow._shadow[-1] = 0

    program = _access_program()
    tree, _ = _run(program, tool, Interpreter, prepare=good_top)
    compiled, _ = _run(program, tool, CompiledEngine, prepare=good_top)
    assert tree == compiled
    assert (ErrorKind.WILD_ACCESS, -8) in [
        error[:2] for error in compiled["errors"]
    ]


class _StopCaching:
    """An observer that switches history caching off at the first free."""

    def observe(self, sanitizer, kind, address, size, subject):
        if kind is EventKind.FREE:
            sanitizer.enable_caching = False


def test_caching_is_read_when_each_closure_starts():
    """``enable_caching`` is read per closure call: once a free turns
    it off, a callee's check on a cache that has learned a quasi-bound
    takes the method, as on the tree walker."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("p", 256)
        f.malloc("r", 8)
        with f.loop("i", 0, 32) as i:
            f._emit(CheckCached(0, "p", i * 8, 8, READ))
        f.free("r")
        f.call("again", [Var("p")])
    with builder.function("again", params=["p"]) as f:
        with f.loop("i", 0, 32) as i:
            f._emit(CheckCached(0, "p", i * 8, 8, READ))
    program = builder.build()

    def stop_caching(san):
        san.observers = (_StopCaching(),)

    tree, _ = _run(program, "GiantSan", Interpreter, prepare=stop_caching)
    compiled, _ = _run(
        program, "GiantSan", CompiledEngine, prepare=stop_caching
    )
    assert tree == compiled
    assert compiled["stats"]["region_checks"] > 32


def _sites(function, kind):
    return sum(type(instr) is kind for instr in walk(function.body))


def _inlined(compiled):
    """How many check sites of ``compiled`` inline a first stage: every
    stage counts ``checks_executed`` in the closure, and nothing else
    the emitter writes does."""
    return compiled.source.count("st.checks_executed += 1")


def _method_calls(method, run):
    """``run()``'s result and how often it entered ``method``, from any
    caller; a profile hook counts without replacing the method."""
    code = method.__code__
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_code)

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, len(calls)


@pytest.mark.parametrize("tool, cls, method, kind", STAGED)
def test_edge_programs_reach_both_stages(tool, cls, method, kind):
    """Every site of the staged kind inlines the stage, and both the
    stage and the method decide some of the program's checks."""
    program = PROGRAMS[kind]()
    (compiled, key), calls = _method_calls(
        getattr(cls, method), lambda: _run(program, tool, CompiledEngine)
    )
    assert [stage.method for stage in key[2]] == [method]
    table = getattr(program, compiler._TABLE_ATTR)[key]
    assert _inlined(table["main"]) == _sites(program.functions["main"], kind)
    assert 0 < calls < compiled["stats"]["checks_executed"]


# ----------------------------------------------------------------------
# replaced check methods turn inlining off
# ----------------------------------------------------------------------
def _counting(function, calls):
    def counted(*args, **kwargs):
        calls.append(args[-3:])
        return function(*args, **kwargs)

    return counted


@pytest.mark.parametrize("tool, cls, method, kind", STAGED)
def test_instance_override_turns_inlining_off(tool, cls, method, kind):
    """A check replaced on the instance sees every check, as under the
    tree walker, and the closures match the tree walker."""
    program = PROGRAMS[kind]()
    seen = {}
    observed = {}
    for engine in (Interpreter, CompiledEngine):
        calls = seen[engine] = []

        def shim(san):
            setattr(san, method, _counting(getattr(san, method), calls))

        observed[engine], key = _run(program, tool, engine, prepare=shim)
    assert key[2] == ()
    assert seen[Interpreter] == seen[CompiledEngine] != []
    assert observed[Interpreter] == observed[CompiledEngine]


@pytest.mark.parametrize("tool", ["ASan", "ASan--"])
def test_class_wrap_turns_inlining_off(monkeypatch, tool):
    """Wrapping ``ASan.check_access`` on the class reaches ASan-- too,
    which inherits it: neither inlines the stage, and both match."""
    program = _access_program()
    calls = []
    monkeypatch.setattr(
        ASan, "check_access", _counting(ASan.check_access, calls)
    )
    tree, _ = _run(program, tool, Interpreter)
    walked = len(calls)
    compiled, key = _run(program, tool, CompiledEngine)
    assert key[2] == ()
    assert len(calls) == 2 * walked > 0
    assert tree == compiled


def test_subclass_override_turns_inlining_off():
    class Audited(LFP):
        def check_region(self, start, end, access, anchor=None):
            return super().check_region(start, end, access, anchor=anchor)

    assert Audited().inline_stages() == ()
    assert LFP().inline_stages() == LFP.first_stages
    program = _region_program()
    tree, _ = _run(program, Audited(), Interpreter)
    compiled, key = _run(program, Audited(), CompiledEngine)
    assert key[2] == ()
    assert tree == compiled


def test_stages_key_the_closure_table():
    """Closures with and without a stage are separate tables of one
    program."""
    program = _cached_program()
    _run(program, "GiantSan", CompiledEngine)
    _run(program, "GiantSan", CompiledEngine,
         prepare=lambda san: setattr(san, "check_cached", san.check_cached))
    stages = [key[2] for key in getattr(program, compiler._TABLE_ATTR)]
    assert stages == [GiantSan.first_stages, ()]


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tool, cls, method, kind", STAGED)
def test_table2_closures_inline_the_first_stage(tool, cls, method, kind):
    """Every staged site of every Table 2 proxy inlines the stage."""
    session = Session(tool, ExecConfig())
    runner = CompiledEngine(
        session.sanitizer, native_costs=session.cost_model.native
    )
    (stage,) = runner.table_key()[2]
    assert stage.method == method
    total = 0
    for spec in SPEC_TABLE2_ROWS:
        program = session.instrument(spec.build()).program
        table = compiler.compile_program(program, *runner.table_key())
        for name, compiled in table.items():
            sites = _sites(program.functions[name], kind)
            assert _inlined(compiled) == sites
            total += sites
    assert total > 0


SCALE = 2


@pytest.mark.parametrize(
    "spec", SPEC_TABLE2_ROWS[::3], ids=lambda spec: spec.name
)
def test_table2_per_iteration_checks_match_tree(spec):
    """With the fast path off every loop iteration checks in the
    closures (the configuration-matrix harness runs the fast path on
    too)."""
    for tool in TOOLS:
        session = Session(tool, ExecConfig(memoize=False))
        program = session.instrument(spec.build()).program
        tree, _ = _run(program, tool, Interpreter, args=[SCALE])
        compiled, key = _run(program, tool, CompiledEngine, args=[SCALE])
        assert key[2] == type(session.sanitizer).first_stages, tool
        assert tree == compiled, tool
