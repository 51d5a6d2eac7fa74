"""Juliet-style CWE test-case generator (Table 3).

NIST's Juliet Test Suite pairs each buggy program with a non-buggy twin;
a tool passes a case by reporting on the buggy version (no false
negative) and staying silent on the good one (no false positive).  We
generate the same structure parametrically: every CWE family enumerates
buffer sizes, bug distances, access widths, and trigger mechanisms
(direct access, loop, intrinsic), which exercises distinct shadow-state
shapes (partial segments, redzone hits, freed poison, ...).

The paper's Table 3 counts per CWE; our totals are scaled down but the
per-tool detection *pattern* is the experiment: the three shadow-memory
tools detect everything that actually triggers, while LFP misses stack
cases and overflows inside its size-class slack.  A few "latent" cases
(buggy code whose bug does not trigger at runtime, e.g. an uninitialized
index that happens to be in bounds) reproduce the paper's remark that
the cases missed by GiantSan/ASan/ASan-- never actually overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..ir.builder import ProgramBuilder
from ..ir.nodes import V
from ..ir.program import Program


@dataclass(frozen=True)
class JulietCase:
    """One generated test case (one half of a buggy/good pair)."""

    case_id: str
    cwe: str
    program: Program
    buggy: bool
    #: True for "buggy" sources whose defect cannot trigger at runtime
    #: (nobody is expected to report these; they still count in Total).
    latent: bool = False


#: CWE identifiers in Table 3 order.
TABLE3_CWES = [
    ("CWE121", "Stack Buffer Overflow"),
    ("CWE122", "Heap Buffer Overflow"),
    ("CWE124", "Buffer Underwrite"),
    ("CWE126", "Buffer Overread"),
    ("CWE127", "Buffer Underread"),
    ("CWE416", "Use After Free"),
    ("CWE476", "NULL Pointer Dereference"),
    ("CWE761", "Free Pointer Not at Start of Buffer"),
]

#: Buffer sizes deliberately off the low-fat size classes (as Juliet's
#: ad-hoc sizes are), so LFP's rounding slack swallows small overflows.
_SIZES = [10, 23, 50, 76, 100, 600]
#: Overflow distances, small like Juliet's (one element or a few bytes).
_DISTANCES = [1, 2, 4]
#: Overread distances are more varied in Juliet (looping reads run far
#: past the end), which is why LFP catches most CWE126 cases (352/449).
_READ_DISTANCES = [4, 32, 64]
_METHODS = ["direct", "loop", "intrinsic"]


def _buffer_program(
    region: str,
    size: int,
    access_offset: int,
    width: int,
    write: bool,
    method: str,
) -> Program:
    """A program that touches ``buf[access_offset .. +width)``.

    ``region`` selects heap or stack allocation; ``method`` selects a
    direct access, a loop ending at the target offset, or an intrinsic
    spanning ``[0, access_offset + width)``.
    """
    b = ProgramBuilder()
    with b.function("main") as f:
        if region == "heap":
            f.malloc("buf", size)
        else:
            f.stack_alloc("buf", size)
        if method == "direct":
            if write:
                f.store("buf", access_offset, width, 1)
            else:
                f.load("x", "buf", access_offset, width)
        elif method == "loop":
            start = min(0, access_offset)
            end = max(access_offset + width, width)
            with f.loop("i", start, end, step=1, bounded=False) as i:
                if write:
                    f.store("buf", i, 1, 0)
                else:
                    f.load("x", "buf", i, 1)
        else:  # intrinsic
            length = access_offset + width
            if write:
                f.memset("buf", 0, length)
            else:
                f.malloc("sink", max(length, 8))
                f.memcpy("sink", 0, "buf", 0, length)
        if region == "heap":
            f.free("buf")
    return b.build()


def _uaf_program(size: int, write: bool, delay_allocs: int) -> Program:
    b = ProgramBuilder()
    with b.function("main") as f:
        f.malloc("buf", size)
        f.free("buf")
        for k in range(delay_allocs):
            f.malloc(f"other{k}", 32)
        if write:
            f.store("buf", 0, 8, 7)
        else:
            f.load("x", "buf", 0, 8)
    return b.build()


def _null_program(offset: int, write: bool) -> Program:
    b = ProgramBuilder()
    with b.function("main") as f:
        f.assign("p", 0)
        if write:
            f.store("p", offset, 8, 1)
        else:
            f.load("x", "p", offset, 8)
    return b.build()


def _bad_free_program(size: int, free_offset: int) -> Program:
    b = ProgramBuilder()
    with b.function("main") as f:
        f.malloc("buf", size)
        f.ptr_add("mid", "buf", free_offset)
        f.free("mid" if free_offset else "buf")
    return b.build()


def _latent_overread_program(size: int) -> Program:
    """CWE126 flavour that never triggers: an uninitialized index (which
    reads as 0 in the simulated memory) stays in bounds."""
    b = ProgramBuilder()
    with b.function("main") as f:
        f.malloc("idxbuf", 8)
        f.malloc("buf", size)
        f.load("j", "idxbuf", 0, 4)  # uninitialized: loads 0
        f.load("x", "buf", V("j"), 4)  # in bounds at runtime
        f.free("buf")
        f.free("idxbuf")
    return b.build()


def _pair(cases: List[JulietCase], case_id: str, cwe: str,
          buggy_program: Program, good_program: Program) -> None:
    cases.append(JulietCase(case_id + "_bad", cwe, buggy_program, True))
    cases.append(JulietCase(case_id + "_good", cwe, good_program, False))


def generate_cwe121() -> List[JulietCase]:
    """Stack buffer overflow (write past a stack buffer)."""
    cases: List[JulietCase] = []
    for size in _SIZES:
        for dist in _DISTANCES:
            for method in _METHODS:
                case_id = f"CWE121_s{size}_d{dist}_{method}"
                bad = _buffer_program("stack", size, size + dist - 1, 1, True, method)
                good = _buffer_program("stack", size, size - 1, 1, True, method)
                _pair(cases, case_id, "CWE121", bad, good)
    return cases


def generate_cwe122() -> List[JulietCase]:
    """Heap buffer overflow (write past a heap buffer)."""
    cases: List[JulietCase] = []
    for size in _SIZES:
        for dist in _DISTANCES:
            for method in _METHODS:
                case_id = f"CWE122_s{size}_d{dist}_{method}"
                bad = _buffer_program("heap", size, size + dist - 1, 1, True, method)
                good = _buffer_program("heap", size, size - 1, 1, True, method)
                _pair(cases, case_id, "CWE122", bad, good)
    return cases


def generate_cwe124() -> List[JulietCase]:
    """Buffer underwrite (write before the buffer start)."""
    cases: List[JulietCase] = []
    for size in _SIZES:
        for dist in _DISTANCES:
            for region in ("heap",):
                case_id = f"CWE124_s{size}_d{dist}_{region}"
                bad = _buffer_program(region, size, -dist, 4, True, "direct")
                good = _buffer_program(region, size, 0, 4, True, "direct")
                _pair(cases, case_id, "CWE124", bad, good)
    return cases


def generate_cwe126() -> List[JulietCase]:
    """Buffer overread, including latent never-triggering variants."""
    cases: List[JulietCase] = []
    for size in _SIZES:
        # short overreads through a direct access or an intrinsic (land
        # in LFP's slack for off-class sizes)
        for dist in _DISTANCES:
            for method in ("direct", "intrinsic"):
                case_id = f"CWE126_s{size}_d{dist}_{method}"
                bad = _buffer_program("heap", size, size + dist - 1, 1, False, method)
                good = _buffer_program("heap", size, size - 1, 1, False, method)
                _pair(cases, case_id, "CWE126", bad, good)
        # scanning overreads that run well past the end: the sequential
        # walk crosses the size-class boundary, so LFP catches these —
        # which is why its CWE126 row is mostly detections (352/449)
        for dist in _READ_DISTANCES:
            case_id = f"CWE126_s{size}_d{dist}_loop"
            bad = _buffer_program("heap", size, size + dist - 1, 1, False, "loop")
            good = _buffer_program("heap", size, size - 1, 1, False, "loop")
            _pair(cases, case_id, "CWE126", bad, good)
    for size in (32, 64, 128, 256):
        cases.append(
            JulietCase(
                f"CWE126_latent_s{size}_bad",
                "CWE126",
                _latent_overread_program(size),
                buggy=True,
                latent=True,
            )
        )
    return cases


def generate_cwe127() -> List[JulietCase]:
    """Buffer underread."""
    cases: List[JulietCase] = []
    for size in _SIZES:
        for dist in _DISTANCES:
            case_id = f"CWE127_s{size}_d{dist}"
            bad = _buffer_program("heap", size, -dist, 4, False, "direct")
            good = _buffer_program("heap", size, 0, 4, False, "direct")
            _pair(cases, case_id, "CWE127", bad, good)
    return cases


def generate_cwe416() -> List[JulietCase]:
    """Use after free, with and without intervening allocations."""
    cases: List[JulietCase] = []
    for size in (16, 64, 256):
        for write in (False, True):
            for delay in (0, 2, 8):
                kind = "w" if write else "r"
                case_id = f"CWE416_s{size}_{kind}_delay{delay}"
                bad = _uaf_program(size, write, delay)
                good_builder = ProgramBuilder()
                with good_builder.function("main") as f:
                    f.malloc("buf", size)
                    if write:
                        f.store("buf", 0, 8, 7)
                    else:
                        f.load("x", "buf", 0, 8)
                    f.free("buf")
                _pair(cases, case_id, "CWE416", bad, good_builder.build())
    return cases


def generate_cwe476() -> List[JulietCase]:
    """NULL pointer dereference."""
    cases: List[JulietCase] = []
    for offset in (0, 8, 64, 1024):
        for write in (False, True):
            kind = "w" if write else "r"
            case_id = f"CWE476_o{offset}_{kind}"
            bad = _null_program(offset, write)
            good_builder = ProgramBuilder()
            with good_builder.function("main") as f:
                f.malloc("p", 1032)
                if write:
                    f.store("p", offset, 8, 1)
                else:
                    f.load("x", "p", offset, 8)
                f.free("p")
            _pair(cases, case_id, "CWE476", bad, good_builder.build())
    return cases


def generate_cwe761() -> List[JulietCase]:
    """free() of a pointer not at the start of the buffer."""
    cases: List[JulietCase] = []
    for size in (32, 64, 256):
        for offset in (8, 16, 32):
            if offset >= size:
                continue
            case_id = f"CWE761_s{size}_o{offset}"
            bad = _bad_free_program(size, offset)
            good = _bad_free_program(size, 0)
            _pair(cases, case_id, "CWE761", bad, good)
    return cases


def generate_cwe415() -> List[JulietCase]:
    """Double free (extended suite; not a Table 3 row)."""
    cases: List[JulietCase] = []
    for size in (16, 64, 256):
        for delay in (0, 4):
            case_id = f"CWE415_s{size}_delay{delay}"
            bad_builder = ProgramBuilder()
            with bad_builder.function("main") as f:
                f.malloc("buf", size)
                f.free("buf")
                for k in range(delay):
                    f.malloc(f"pad{k}", 32)
                f.free("buf")
            good_builder = ProgramBuilder()
            with good_builder.function("main") as f:
                f.malloc("buf", size)
                f.free("buf")
            _pair(cases, case_id, "CWE415",
                  bad_builder.build(), good_builder.build())
    return cases


def generate_cwe590() -> List[JulietCase]:
    """Free of memory not on the heap (extended suite)."""
    cases: List[JulietCase] = []
    for region in ("stack", "global"):
        for size in (32, 128):
            case_id = f"CWE590_{region}_s{size}"
            bad_builder = ProgramBuilder()
            with bad_builder.function("main") as f:
                if region == "stack":
                    f.stack_alloc("buf", size)
                else:
                    f.global_alloc("buf", size)
                f.free("buf")
            good_builder = ProgramBuilder()
            with good_builder.function("main") as f:
                f.malloc("buf", size)
                f.free("buf")
            _pair(cases, case_id, "CWE590",
                  bad_builder.build(), good_builder.build())
    return cases


def generate_extended_suite() -> List[JulietCase]:
    """The extra CWE families (separate so Table 3 stays faithful)."""
    return generate_cwe415() + generate_cwe590()


_GENERATORS = {
    "CWE121": generate_cwe121,
    "CWE122": generate_cwe122,
    "CWE124": generate_cwe124,
    "CWE126": generate_cwe126,
    "CWE127": generate_cwe127,
    "CWE416": generate_cwe416,
    "CWE476": generate_cwe476,
    "CWE761": generate_cwe761,
}


def generate_juliet_suite(cwes: Optional[List[str]] = None) -> List[JulietCase]:
    """All generated cases, in Table 3 CWE order."""
    selected = cwes or [cwe for cwe, _ in TABLE3_CWES]
    cases: List[JulietCase] = []
    for cwe in selected:
        cases.extend(_GENERATORS[cwe]())
    return cases


#: Per-process cache of the canonical (all-CWE) suite.  Cases are frozen
#: and their programs are never mutated at runtime (the instrumenter
#: clones), so sharing one generation across Table 3 slices is safe.
_SUITE_CACHE: Optional[List[JulietCase]] = None


def juliet_suite_cached() -> List[JulietCase]:
    """The canonical suite, generated once per process.

    The sequential Table 3 sweep and every worker of the shared
    process pool (:mod:`repro.analysis.parallel`), which runs many
    Table 3 slices back to back, read this one copy; regenerating the
    whole suite per slice made every unit pay O(total) generation work
    for an O(slice) run.  Callers must not mutate the returned list or
    its programs; slice it, and wrap a case's program in a
    :class:`~repro.passes.instrument.FoldedProgram` to run it.
    """
    global _SUITE_CACHE
    if _SUITE_CACHE is None:
        _SUITE_CACHE = generate_juliet_suite()
    return _SUITE_CACHE
