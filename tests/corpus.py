"""The pinned differential corpus, registered once.

:mod:`test_config_matrix` runs every entry under every execution cell
and compares each run with the tree-walker reference.  The corpora:

* ``table2`` — the 24 :data:`SPEC_TABLE2_ROWS` proxies at scale 2;
* ``directed`` — the fast path's awkward loop shapes (declines, exact
  boundaries, planted overflows) and its memory-effect program;
* ``fuzz`` — the pinned fuzz slice: seed 20260806, 20 cases, under the
  fuzz driver's instruction budget;
* ``callheavy`` — the call-heavy workload at scale 5;
* ``telemetry`` and ``audit`` — GiantSan with the telemetry registry
  on, or with elided checks replayed against the shadow oracle.

To add a program, append an :class:`Entry`; every cell then runs it.
"""

from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from repro.fuzz import build_case, case_seed_for, generate_case
from repro.fuzz.driver import CASE_MAX_INSTRUCTIONS
from repro.ir.builder import ProgramBuilder
from repro.passes.instrument import fold_program
from repro.workloads import build_callheavy_program
from repro.workloads.spec import SPEC_TABLE2_ROWS

TOOLS = ("Native", "GiantSan", "ASan", "ASan--", "LFP", "HWASan")

#: Iteration scale of the Table 2 proxies.
SCALE = 2

FUZZ_SEED = 20260806
FUZZ_CASES = 20


class Entry(NamedTuple):
    """One corpus program and how to run it."""

    corpus: str
    name: str
    build: Callable
    args: Optional[tuple] = None
    tools: tuple = TOOLS
    #: Session keyword arguments (telemetry, audit_elisions, budget).
    session: tuple = ()

    @property
    def id(self):
        return f"{self.corpus}/{self.name}"

    def source(self):
        """The built and folded program (folding is tool-independent)."""
        return _folded(self)


@lru_cache(maxsize=None)
def _folded(entry):
    return fold_program(entry.build())


# ----------------------------------------------------------------------
# directed shapes
# ----------------------------------------------------------------------
def _walk(size, trips, stride=8, width=8, reverse=False, bounded=True,
          subscript=None):
    """``buf = malloc(size)``; ``trips`` stores through it; free."""

    def build():
        builder = ProgramBuilder()
        with builder.function("main") as f:
            f.malloc("buf", size)
            with f.loop("i", 0, trips, reverse=reverse,
                        bounded=bounded) as i:
                offset = i * stride if subscript is None else subscript(i)
                f.store("buf", offset, width, i)
            f.free("buf")
            f.ret(0)
        return builder.build()

    return build


def _store_then_sum(trips, value, reverse=False):
    """Store ``value(i)`` in each of ``trips`` 8-byte slots, then
    return the sum of the slots, read back in the same direction."""

    def build():
        builder = ProgramBuilder()
        with builder.function("main") as f:
            f.malloc("buf", trips * 8)
            with f.loop("i", 0, trips, reverse=reverse) as i:
                f.store("buf", i * 8, 8, value(i))
            total = f.assign("total", 0)
            with f.loop("j", 0, trips, reverse=reverse) as j:
                loaded = f.load("x", "buf", j * 8, 8)
                f.assign("total", total + loaded)
            f.free("buf")
            f.ret(total)
        return builder.build()

    return build


def _branch_in_body():
    """Branching control flow: the fast path falls back."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 64)
        with f.loop("i", 0, 8) as i:
            with f.if_(i % 2):
                f.store("buf", i * 4, 4, i)
        f.free("buf")
        f.ret(0)
    return builder.build()


#: name -> builder.  The stride-1 shapes store one byte per trip.
DIRECTED = {
    # start == end: the body never runs
    "zero_trip": _walk(64, 0),
    # under MIN_TRIP_COUNT: no fold, every access still checked
    "below_min_trip": _walk(64, 3),
    # negative-stride stores and loads (Figure 11c), in bounds
    "reverse_in_bounds": _store_then_sum(16, lambda i: i, reverse=True),
    # the first (i=8) access writes bytes [64, 72), past the end
    "reverse_overflow": _walk(64, 9, reverse=True),
    # the last access ends exactly at base + size
    "usable_boundary": _walk(64, 8),
    # 61 bytes: 7 good segments and a 5-byte partial tail
    "partial_segment": _walk(61, 61, stride=1, width=1),
    # one trip more: byte 61 is the first poisoned one
    "one_past_partial_tail": _walk(61, 62, stride=1, width=1),
    # bounded=False forbids promotion: GiantSan's CheckCached runs
    "unbounded_cached": _walk(256, 32, bounded=False),
    # a quadratic subscript defeats SCEV
    "non_affine": _walk(1024, 10, subscript=lambda i: i * i * 8),
    "branch_in_body": _branch_in_body,
    # superblock stores, then loads that sum what they stored
    "memory_effects": _store_then_sum(32, lambda i: i * 1000 + 7),
    **{
        f"exact_fit_{size}": _walk(size, size // 8)
        for size in (8, 16, 24, 56, 64, 72, 4096)
    },
}


def _fuzz_case(index):
    return lambda: build_case(
        generate_case(case_seed_for(FUZZ_SEED, index))
    )


_FUZZ_BUDGET = (("max_instructions", CASE_MAX_INSTRUCTIONS),)

CORPUS = (
    [
        Entry("table2", spec.name, spec.build, (SCALE,))
        for spec in SPEC_TABLE2_ROWS
    ]
    + [Entry("directed", name, build) for name, build in DIRECTED.items()]
    + [
        Entry("fuzz", str(index), _fuzz_case(index), session=_FUZZ_BUDGET)
        for index in range(FUZZ_CASES)
    ]
    + [Entry("callheavy", "callheavy", build_callheavy_program, (5,))]
    + [
        Entry("telemetry", spec.name, spec.build, (SCALE,), ("GiantSan",),
              (("telemetry", True),))
        for spec in SPEC_TABLE2_ROWS[:6]
    ]
    + [
        Entry("telemetry", "one_past_partial_tail",
              DIRECTED["one_past_partial_tail"], None, ("GiantSan",),
              (("telemetry", True),))
    ]
    + [
        Entry("audit", spec.name, spec.build, (SCALE,), ("GiantSan",),
              (("audit_elisions", True),))
        for spec in SPEC_TABLE2_ROWS[:6]
    ]
    + [
        Entry("audit", f"fuzz{index}", _fuzz_case(index), None,
              ("GiantSan",), (("audit_elisions", True),) + _FUZZ_BUDGET)
        for index in range(6)
    ]
)
