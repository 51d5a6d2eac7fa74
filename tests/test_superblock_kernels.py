"""Directed tests for superblock slice kernels.

An eligible superblock body runs as a slice kernel
(``compiler._BulkEmitter``): each memory site is one stepped, typed
``memoryview`` slice, each value one comprehension and each store one
slice assignment.  Every shape here runs as a slice kernel (under
both engines), on the per-element runner (kernels switched off) and on
the tree walker (fast path off), and all must agree on every run
observable and on the final bytes of the address space.  Each program
copies the variables its loop leaves behind into an ``out`` buffer
after the loop, so the memory digest also covers the loop's ``env``
write-back.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from engines import engine_on, observables
from repro.ir.builder import ProgramBuilder
from repro.ir.nodes import Loop, Var
from repro.runtime import CompiledEngine, ExecConfig, Session, compiler
from repro.runtime.fastpath import analyze_loop
from repro.workloads.spec import SPEC_BY_NAME, SPEC_TABLE2_ROWS

TOOLS = ["Native", "GiantSan", "ASan", "LFP"]

#: Trip count of the directed loops: long enough for the fast path.
N = 40


def _observables(result, sanitizer):
    """``(slice-kernel iterations, every other observable)``: only the
    kernels' switch changes that count."""
    observed = observables(result, sanitizer)
    counters = observed["superblock"]["counters"]
    return counters.pop("superblock_bulk_iterations", 0), observed


def _session_cell(program, tool, fastpath):
    config = ExecConfig(fastpath=fastpath, memoize=False)
    session = Session(tool, config, telemetry=True)
    return _observables(session.run(program), session.sanitizer)


def _compiled_cell(program, tool):
    config = ExecConfig(fastpath=True, memoize=False)
    runner, iprogram = engine_on(
        CompiledEngine, program, tool, config, telemetry=True
    )
    return _observables(runner.run(iprogram), runner.san)


def _no_kernels(self):
    raise compiler._Uncompilable("kernels switched off")


def _cells(program, tool, monkeypatch):
    """(bulk iterations, observables) of each cell; every run instruments
    a fresh copy of ``program``, so each plans its loops anew."""
    bulk = _session_cell(program, tool, True)
    compiled = _compiled_cell(program, tool)
    tree = _session_cell(program, tool, False)
    with monkeypatch.context() as patch:
        patch.setattr(compiler._BulkEmitter, "build", _no_kernels)
        element = _session_cell(program, tool, True)
    return bulk, compiled, element, tree


def _walked(observed):
    """``observed`` without its superblock telemetry."""
    return {**observed, "superblock": None}


def _assert_cells_match(program, monkeypatch, sliced):
    """Every cell agrees, and ``sliced`` iterations ran as slices (fill
    loops included) where kernels are on."""
    for tool in TOOLS:
        bulk, compiled, element, tree = _cells(program, tool, monkeypatch)
        assert bulk[1] == element[1] == compiled[1], tool
        # the tree walker runs no superblock, so it records none of the
        # superblock telemetry
        assert _walked(bulk[1]) == _walked(tree[1]), tool
        assert (bulk[0], compiled[0], element[0], tree[0]) == (
            sliced, sliced, 0, 0
        ), tool


def _fill(f, name, count, width, multiplier):
    """``name[k] = k * multiplier + 7`` for ``count`` items: values past
    the width's range, which the store masks."""
    with f.loop("k", 0, count) as k:
        f.store(name, k * width, width, k * multiplier + 7)


def _spill(f, names):
    """Copy the loop's final variables into ``out``: the env write-back."""
    f.malloc("out", 8 * len(names))
    for slot, name in enumerate(names):
        f.store("out", slot * 8, 8, Var(name))


def _loops(program):
    loops = []
    for function in program.functions.values():
        stack = list(function.body)
        while stack:
            instr = stack.pop()
            if isinstance(instr, Loop):
                loops.append(instr)
                stack.extend(instr.body)
    return loops


def _kernel_of(program, var):
    """Whether the loop over ``var`` lowered to a slice kernel."""
    (loop,) = [loop for loop in _loops(program) if loop.var == var]
    return analyze_loop(loop).superblock.kernel is not None


# ----------------------------------------------------------------------
# the table2 shapes
# ----------------------------------------------------------------------
def _stencil():
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("src", 4 * (N + 2))
        f.malloc("dst", 4 * (N + 2))
        _fill(f, "src", N + 2, 4, 2654435761)
        with f.loop("i", 1, N + 1) as i:
            a = f.load("_a", "src", (i - 1) * 4, 4)
            b = f.load("_b", "src", i * 4, 4)
            c = f.load("_c", "src", (i + 1) * 4, 4)
            f.store("dst", i * 4, 4, a + b + c)
        _spill(f, ["_a", "_b", "_c", "i"])
        f.ret(Var("_a"))
    return builder.build()


def _sum():
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("a", 8 * N)
        _fill(f, "a", N, 8, 0x9E3779B97F4A7C15)
        total = f.assign("acc", 5)
        with f.loop("i", 0, N) as i:
            loaded = f.load("_t", "a", i * 8, 8)
            f.assign("acc", total + loaded)
        _spill(f, ["_t", "acc", "i"])
        f.ret(total)
    return builder.build()


def _constant_fill():
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("grid", 4 * N)
        value = f.assign("v", 0x1_2345_6789)
        with f.loop("i", 0, N) as i:
            f.store("grid", i * 4, 4, value)
        _spill(f, ["i"])
        f.ret(0)
    return builder.build()


@pytest.mark.parametrize(
    "build, sliced",
    [(_stencil, (N + 2) + N), (_sum, N + N), (_constant_fill, N)],
    ids=["stencil", "sum", "constant_fill"],
)
def test_table2_shapes(build, sliced, monkeypatch):
    _assert_cells_match(build(), monkeypatch, sliced)


# ----------------------------------------------------------------------
# widths, directions, strides
# ----------------------------------------------------------------------
@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_widths_wrap_like_the_codecs(width, monkeypatch):
    """``c[i] = a[i] + b[i] + 200`` overflows every width: a u8 store of
    a sum above 255 keeps its low byte."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        for name in ("a", "b", "c"):
            f.malloc(name, width * N)
        _fill(f, "a", N, width, 0xFEDC_BA98_7654_3211)
        _fill(f, "b", N, width, 0x0123_4567_89AB_CDEF)
        with f.loop("i", 0, N) as i:
            x = f.load("_x", "a", i * width, width)
            y = f.load("_y", "b", i * width, width)
            s = f.assign("_s", x + y + 200)
            f.store("c", i * width, width, s)
        _spill(f, ["_x", "_y", "_s", "i"])
        f.ret(Var("_s"))
    _assert_cells_match(builder.build(), monkeypatch, 3 * N)


def test_reverse_loop(monkeypatch):
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("a", 4 * N)
        f.malloc("b", 8 * N)
        _fill(f, "a", N, 4, 977)
        with f.loop("i", 0, N, step=3, reverse=True) as i:
            x = f.load("_x", "a", i * 4, 4)
            f.store("b", i * 8, 8, x * i)
        _spill(f, ["_x", "i"])
        f.ret(Var("i"))
    # a reverse loop runs from end - step down to start
    _assert_cells_match(builder.build(), monkeypatch, N + len(range(N - 3, -1, -3)))


def test_negative_coefficient(monkeypatch):
    """``b[i] = a[N-1-i]``: the load walks down while the store walks up."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("a", 2 * N)
        f.malloc("b", 2 * N)
        _fill(f, "a", N, 2, 40503)
        with f.loop("i", 0, N) as i:
            x = f.load("_x", "a", (N - 1 - i) * 2, 2)
            f.store("b", i * 2, 2, x ^ i)
        _spill(f, ["_x", "i"])
        f.ret(0)
    _assert_cells_match(builder.build(), monkeypatch, 2 * N)


def test_records_stride_past_width(monkeypatch):
    """``r[i].k += 1; r[i].w = r[i].v + 1`` over 40-byte records: four
    sites in one buffer whose within-stride bytes never meet."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("r", 40 * N)
        _fill(f, "r", 5 * N, 8, 0xFFFF_FFFF_0000_0001)
        with f.loop("i", 0, N) as i:
            k = f.load("_k", "r", i * 40, 4)
            v = f.load("_v", "r", i * 40 + 8, 8)
            f.store("r", i * 40 + 16, 8, v + 1)
            f.store("r", i * 40, 4, k + 1)
        _spill(f, ["_k", "_v", "i"])
        f.ret(0)
    _assert_cells_match(builder.build(), monkeypatch, 5 * N + N)


def test_same_site_read_modify_write(monkeypatch):
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("a", 4 * N)
        _fill(f, "a", N, 4, 123457)
        with f.loop("i", 0, N) as i:
            x = f.load("_x", "a", i * 4, 4)
            f.store("a", i * 4, 4, x * 3 + 1)
        _spill(f, ["_x", "i"])
        f.ret(Var("_x"))
    _assert_cells_match(builder.build(), monkeypatch, 2 * N)


# ----------------------------------------------------------------------
# what stays per-element
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shift", [1, -1], ids=["from_next", "from_previous"])
def test_in_place_shift_falls_back(shift, monkeypatch):
    """``a[i] = a[i+1]`` and ``a[i] = a[i-1]`` carry a dependence
    through memory: the kernel lowers, sees the overlap on entry and
    hands the loop to the per-element runner."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("a", 4 * (N + 2))
        _fill(f, "a", N + 2, 4, 7919)
        with f.loop("i", 1, N + 1) as i:
            x = f.load("_x", "a", (i + shift) * 4, 4)
            f.store("a", i * 4, 4, x + 1)
        _spill(f, ["_x", "i"])
        f.ret(0)
    program = builder.build()
    assert _kernel_of(program, "i")
    _assert_cells_match(program, monkeypatch, N + 2)  # the fill alone


def test_carried_scalar_stays_per_element(monkeypatch):
    """An LCG fill carries ``s`` through a multiply: no kernel."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("a", 4 * N)
        seed = f.assign("s", 12345)
        with f.loop("i", 0, N) as i:
            f.assign("s", (seed * 1103515245 + 12345) & 0x7FFFFFFF)
            f.store("a", i * 4, 4, seed % 256)
        _spill(f, ["s", "i"])
        f.ret(seed)
    program = builder.build()
    assert not _kernel_of(program, "i")
    _assert_cells_match(program, monkeypatch, 0)


def test_big_endian_host_lowers_no_kernel(monkeypatch):
    monkeypatch.setattr(sys, "byteorder", "big")
    program = _stencil()
    assert not _kernel_of(program, "i")
    for tool in TOOLS:
        bulk, _ = _session_cell(program, tool, True)
        assert bulk == 0


# ----------------------------------------------------------------------
# the overlap rule against brute force
# ----------------------------------------------------------------------
def _bytes(site, count):
    address, step, width, _ = site
    return {
        address + k * step + offset
        for k in range(count)
        for offset in range(width)
    }


_sites = st.lists(
    st.tuples(
        st.integers(0, 64),  # first address
        st.integers(1, 4).flatmap(
            lambda scale: st.sampled_from([1, 2, 4, 8]).map(
                lambda width: (scale * width, width)
            )
        ),
        st.booleans(),  # reversed
        st.booleans(),  # is_store
    ).map(lambda t: (t[0], -t[1][0] if t[2] else t[1][0], t[1][1], t[3])),
    min_size=1,
    max_size=4,
)


@settings(max_examples=400, deadline=None)
@given(sites=_sites, count=st.integers(1, 6))
def test_overlap_never_misses_a_shared_byte(sites, count):
    """Where a store shares a byte with another site, other than a load
    before it over the identical sequence, the kernel must decline."""
    shared = any(
        store
        and other != index
        and not (
            other < index
            and not sites[other][3]
            and sites[other][:3] == (address, step, width)
        )
        and _bytes(sites[index], count) & _bytes(sites[other], count)
        for index, (address, step, width, store) in enumerate(sites)
        for other in range(len(sites))
    )
    if shared:
        assert compiler._overlap(count, sites)


def test_overlap_keeps_disjoint_records():
    """Two fields of 32-byte records and a read-modify-write: no overlap;
    a field that straddles the other's bytes: overlap."""
    record = [(0, 32, 4, False), (8, 32, 8, False), (16, 32, 8, True),
              (0, 32, 4, True)]
    assert not compiler._overlap(10, record)
    assert compiler._overlap(10, record + [(14, 32, 4, False)])
    # a load *after* the store over the same sequence reads the store
    assert compiler._overlap(10, [(0, 4, 4, True), (0, 4, 4, False)])


# ----------------------------------------------------------------------
# guard: the hot table2 bodies really run as slices
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, var",
    [
        ("519.lbm_r", "i1"),  # 3-point stencil
        ("538.imagick_r", "i1"),  # 3-point stencil
        ("644.nab_s", "i1"),  # sum reduction
        ("557.xz_r", "i2"),  # sum reduction
        ("644.nab_s", "i2"),  # constant fill
    ],
)
def test_table2_hot_bodies_lower_to_kernels(name, var):
    assert _kernel_of(SPEC_BY_NAME[name].build(), var)


def test_table2_kernels_run_as_slices():
    """Under every tool the stencil proxy's iterations run as slices."""
    spec = SPEC_BY_NAME["519.lbm_r"]
    for tool in ["Native", "GiantSan", "ASan", "ASan--", "LFP"]:
        session = Session(
            tool, ExecConfig(fastpath=True, memoize=False),
            telemetry=True,
        )
        counters = session.run(spec.build(), [2]).telemetry.counters
        assert counters["superblock_bulk_iterations"] > 0, tool


def test_superblock_function_compiles_equal_text_once():
    """Equal source text is one function, from a 128-entry cache."""
    source = "def _superblock(n):\n    return n + 1\n"
    first = compiler.superblock_function(source)
    equal = "".join(list(source))  # equal text, another str object
    assert compiler.superblock_function(equal) is first
    assert first(41) == 42
    assert compiler.superblock_function.cache_info().maxsize == 128


def test_every_table2_body_lowers():
    """Kernels decline only the LCG fills; each distinct body's source
    compiles once however many loops share it."""
    kernels = declined = 0
    for spec in SPEC_TABLE2_ROWS:
        for loop in _loops(spec.build()):
            plan = analyze_loop(loop)
            if plan is None:
                continue
            if plan.superblock.kernel is None:
                declined += 1
                assert "_seed" in plan.preload
            else:
                kernels += 1
                assert (
                    compiler.superblock_function(
                        compiler._BulkEmitter(
                            loop, [s.coefficient for s in plan.mem_sites]
                        ).build()
                    )
                    is plan.superblock.kernel
                )
    assert kernels > declined > 0
