"""Seeded random IR program generator with ground-truth verdicts.

A fuzz case is generated in two layers:

* **spec ops** — a flat list of frozen dataclasses (buffer declarations,
  in-bounds accesses, loop walks, region operations, frees, helper
  calls).  Every numeric parameter is resolved at generation time, so a
  case is fully described by its op tuple and can be rebuilt, shrunk,
  and pickled without re-running the RNG.
* **an optional injected bug** — at most one deliberate violation per
  case, described by a :class:`BugSpec` that *is* the ground truth: the
  differential driver derives each tool's expected verdict from it (see
  :mod:`repro.fuzz.expectations`).

The bug always targets a dedicated ``victim`` object that the benign ops
never touch, so op shuffling cannot mask or duplicate the violation, and
the benign ops never free enough memory to trigger quarantine eviction
(total heap per case stays far below the default budget), so
use-after-free ground truth is deterministic.

``build_case`` translates the spec into a real
:class:`~repro.ir.program.Program` through the fluent builder; it is a
dumb translator with no randomness of its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

from ..ir.builder import ProgramBuilder
from ..ir.nodes import V
from ..ir.program import Program

#: Arena names as :meth:`AddressSpace.arena_of` reports them.
ARENAS = ("heap", "stack", "globals")

#: Bug kinds the generator can inject (ground-truth vocabulary).
BUG_KINDS = (
    "overflow",        # access starting at/after the object end
    "underflow",       # access starting before the object base
    "loop_overflow",   # affine loop whose last iteration runs off the end
    "uaf",             # access through the freed base pointer
    "uaf_interior",    # access through a derived interior pointer
    "double_free",     # free the same base twice
    "invalid_free",    # free an interior (non-base) pointer
    "uar",             # use a stack address after the frame popped
    "memset_overflow",  # region fill longer than the object
    "memcpy_overflow",  # region copy overflowing the destination
)

#: Cap on per-case heap usage: far below the 1 MiB default quarantine
#: budget so freed victim chunks provably stay quarantined.
MAX_CASE_HEAP_BYTES = 512 * 1024

#: The one "giant" allocation size the generator mixes in.
GIANT_SIZE = 64 * 1024

_HEAP_SIZES = (0, 1, 5, 7, 8, 13, 16, 17, 24, 40, 64, 96, 100, 256, 1000, 4096)
_STACK_SIZES = (1, 5, 8, 13, 16, 24, 40, 64, 100, 256, 1024)
_GLOBAL_SIZES = (1, 5, 8, 16, 24, 64, 100, 256, 1024)
_WIDTHS = (1, 2, 4, 8)


# ----------------------------------------------------------------------
# spec ops
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BufferDecl:
    """Declare one buffer (heap malloc / stack slot / global)."""

    var: str
    size: int
    arena: str = "heap"


@dataclass(frozen=True)
class SingleAccess:
    """One in-bounds load or store at a fixed offset."""

    buf: str
    offset: int
    width: int
    store: bool
    value: int = 0


@dataclass(frozen=True)
class LoopWalk:
    """``for i in [0, count): access buf[start + i*stride]``.

    ``step`` > 1 strides the loop induction variable itself (the offsets
    visited stay within ``start + (count-1)*stride + width``);
    ``reverse`` walks the same index set descending; ``bounded=False``
    forbids SCEV promotion, exercising the history-caching path.
    """

    buf: str
    loop_var: str
    count: int
    start: int
    stride: int
    width: int
    store: bool
    step: int = 1
    reverse: bool = False
    bounded: bool = True


@dataclass(frozen=True)
class NonAffineWalk:
    """``for i in [0, count): access buf[(i*mult + add) % modulo]``.

    Never fastpath-eligible; exercises the decline path and per-access
    checks with scattered offsets.
    """

    buf: str
    loop_var: str
    count: int
    mult: int
    add: int
    modulo: int
    width: int
    store: bool


@dataclass(frozen=True)
class RegionFill:
    """In-bounds ``memset(buf + offset, byte, length)``."""

    buf: str
    offset: int
    length: int
    byte: int


@dataclass(frozen=True)
class RegionCopy:
    """In-bounds ``memcpy(dst + dst_off, src + src_off, length)``."""

    dst: str
    dst_off: int
    src: str
    src_off: int
    length: int


@dataclass(frozen=True)
class FreeBuf:
    """Free a heap buffer (benign: freed buffers are never re-accessed)."""

    buf: str


@dataclass(frozen=True)
class HelperCall:
    """Call a helper that walks its own stack buffer (frame traffic)."""

    name: str
    size: int
    count: int


@dataclass(frozen=True)
class KernelCall:
    """Call a pointer-taking kernel that walks the caller's buffer.

    The multi-function shapes: each call is opaque to the caller's
    intraprocedural analyses, so the elision passes must treat it as a
    may-free barrier.  ``alias_second`` passes the same buffer for both
    pointer parameters — the arg-aliasing shape the parameter-alias
    kill rule exists for.  ``free_in_callee`` has the kernel free its
    first parameter before returning; the caller's buffer is dead
    afterwards and the generator never touches it again.
    """

    name: str
    buf: str
    count: int
    width: int
    store: bool
    alias_second: bool = False
    free_in_callee: bool = False


@dataclass(frozen=True)
class RecursiveCall:
    """Call a bounded self-recursive walker over the caller's buffer.

    Recursion through a caller's buffer: the analyses must treat the
    call as opaque, as the whole-program listing's conservative ⊤
    summary of a recursive function does.
    """

    name: str
    buf: str
    depth: int
    width: int
    store: bool


SpecOp = Union[
    BufferDecl,
    SingleAccess,
    LoopWalk,
    NonAffineWalk,
    RegionFill,
    RegionCopy,
    FreeBuf,
    HelperCall,
    KernelCall,
    RecursiveCall,
]


# ----------------------------------------------------------------------
# ground truth
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BugSpec:
    """Ground truth for the one injected violation.

    ``offset`` is the access start relative to the victim's base;
    the faulting extent is ``[offset, offset + width)`` for access bugs
    and ``[offset, offset + length)`` for region bugs.  ``via_loop``
    marks violations reached contiguously from inside the object (a
    loop's trailing iterations), which no redzone-jumping caveats apply
    to.  For free-family bugs ``offset`` is the freed pointer's offset
    from the base.
    """

    kind: str
    arena: str = "heap"
    size: int = 0
    offset: int = 0
    width: int = 1
    length: int = 0
    store: bool = False
    via_loop: bool = False

    @property
    def access_end(self) -> int:
        """End of the faulting access, relative to the victim base."""
        extent = self.length if self.length else self.width
        return self.offset + extent

    @property
    def far(self) -> bool:
        """True when the access start jumps past the object end by more
        than a small-redzone width (the §4.4.1 redzone-bypass shape)."""
        return self.kind == "overflow" and self.offset > self.size + 8


@dataclass(frozen=True)
class FuzzCase:
    """One generated program: spec ops plus optional ground-truth bug."""

    seed: int
    ops: Tuple[SpecOp, ...]
    bug: Optional[BugSpec] = None

    def describe(self) -> str:
        lines = [f"seed={self.seed}"]
        for op in self.ops:
            lines.append(f"  {op!r}")
        lines.append(f"  bug={self.bug!r}")
        return "\n".join(lines)


def case_seed_for(seed: int, index: int) -> int:
    """Per-case RNG seed; independent of worker chunking."""
    return (seed * 1_000_003 + index * 7_919 + 1) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
def _pick_size(rng: random.Random, arena: str) -> int:
    if arena == "heap":
        if rng.random() < 0.04:
            return GIANT_SIZE
        return rng.choice(_HEAP_SIZES)
    if arena == "stack":
        return rng.choice(_STACK_SIZES)
    return rng.choice(_GLOBAL_SIZES)


def _gen_loop_walk(
    rng: random.Random, buf: str, size: int, tag: int
) -> Optional[LoopWalk]:
    width = rng.choice(_WIDTHS)
    if size < width:
        return None
    stride = width * rng.choice((1, 1, 1, 2))
    roll = rng.random()
    if roll < 0.08:
        count = 0  # zero-trip: prime fastpath decline candidate
    elif roll < 0.16:
        count = rng.randint(1, 3)  # below MIN_TRIP_COUNT
    else:
        count = rng.randint(4, 64)
    if count:
        max_count = (size - width) // stride + 1
        count = min(count, max_count)
    max_start = size - width - (count - 1) * stride if count else size - width
    start = rng.randint(0, max_start) if max_start > 0 else 0
    return LoopWalk(
        buf=buf,
        loop_var=f"i{tag}",
        count=count,
        start=start,
        stride=stride,
        width=width,
        store=rng.random() < 0.5,
        step=rng.choice((1, 1, 1, 2)),
        reverse=rng.random() < 0.25,
        bounded=rng.random() < 0.8,
    )


def _gen_nonaffine(
    rng: random.Random, buf: str, size: int, tag: int
) -> Optional[NonAffineWalk]:
    width = rng.choice((1, 2))
    if size < width:
        return None
    return NonAffineWalk(
        buf=buf,
        loop_var=f"i{tag}",
        count=rng.randint(4, 32),
        mult=rng.randint(1, 13),
        add=rng.randint(0, 7),
        modulo=size - width + 1,
        width=width,
        store=rng.random() < 0.5,
    )


def _gen_ops(rng: random.Random) -> Tuple[SpecOp, ...]:
    ops: List[SpecOp] = []
    buffers: List[Tuple[str, int, str]] = []
    heap_bytes = 0
    for index in range(rng.randint(1, 4)):
        arena = rng.choices(ARENAS, weights=(6, 2, 2))[0]
        size = _pick_size(rng, arena)
        if arena == "heap" and heap_bytes + size > MAX_CASE_HEAP_BYTES:
            size = 16
        if arena == "heap":
            heap_bytes += size
        var = f"buf{index}"
        ops.append(BufferDecl(var, size, arena))
        buffers.append((var, size, arena))

    freed: set = set()
    tag = 0
    for _ in range(rng.randint(2, 10)):
        tag += 1
        live = [(v, s, a) for v, s, a in buffers if v not in freed]
        choice = rng.random()
        if choice < 0.07:
            heap_live = [(v, s, a) for v, s, a in live if a == "heap"]
            if heap_live:
                var, _, _ = rng.choice(heap_live)
                ops.append(FreeBuf(var))
                freed.add(var)
            continue
        if choice < 0.15:
            ops.append(
                HelperCall(
                    name=f"helper{tag}",
                    size=rng.choice((8, 16, 64, 256)),
                    count=rng.randint(4, 16),
                )
            )
            continue
        if not live:
            continue
        var, size, arena = rng.choice(live)
        if choice < 0.22:
            width = rng.choice((1, 2, 4))
            if size >= width:
                alias = rng.random() < 0.3
                free_in = arena == "heap" and rng.random() < 0.25
                ops.append(
                    KernelCall(
                        name=f"kernel{tag}",
                        buf=var,
                        count=rng.randint(1, min(16, size // width)),
                        width=width,
                        store=rng.random() < 0.5,
                        alias_second=alias,
                        free_in_callee=free_in,
                    )
                )
                if free_in:
                    freed.add(var)
            continue
        if choice < 0.27:
            width = rng.choice((1, 2, 4))
            if size >= width:
                ops.append(
                    RecursiveCall(
                        name=f"rec{tag}",
                        buf=var,
                        depth=min(6, size // width),
                        width=width,
                        store=rng.random() < 0.5,
                    )
                )
            continue
        if choice < 0.45:
            walk = _gen_loop_walk(rng, var, size, tag)
            if walk is not None:
                ops.append(walk)
        elif choice < 0.55:
            walk = _gen_nonaffine(rng, var, size, tag)
            if walk is not None:
                ops.append(walk)
        elif choice < 0.75:
            width = rng.choice(_WIDTHS)
            if size >= width:
                ops.append(
                    SingleAccess(
                        buf=var,
                        offset=rng.randint(0, size - width),
                        width=width,
                        store=rng.random() < 0.5,
                        value=rng.randint(0, 1 << 31),
                    )
                )
        elif choice < 0.9:
            if size >= 1:
                offset = rng.randint(0, size - 1)
                length = rng.randint(0, size - offset)
                ops.append(
                    RegionFill(
                        buf=var,
                        offset=offset,
                        length=length,
                        byte=rng.randint(0, 255),
                    )
                )
        else:
            others = [
                (v, s) for v, s, a in live if v != var and s >= 1
            ]
            if others and size >= 1:
                src, src_size = rng.choice(others)
                length = rng.randint(0, min(size, src_size))
                ops.append(
                    RegionCopy(
                        dst=var,
                        dst_off=rng.randint(0, size - length)
                        if size > length
                        else 0,
                        src=src,
                        src_off=rng.randint(0, src_size - length)
                        if src_size > length
                        else 0,
                        length=length,
                    )
                )
    return tuple(ops)


def _gen_bug(rng: random.Random) -> BugSpec:
    kind = rng.choices(
        BUG_KINDS, weights=(22, 12, 12, 12, 5, 8, 6, 8, 8, 7)
    )[0]
    store = rng.random() < 0.5
    if kind == "overflow":
        arena = rng.choices(ARENAS, weights=(6, 3, 3))[0]
        size = _pick_size(rng, arena)
        if arena == "heap" and rng.random() < 0.2:
            gap = rng.choice((64, 200))  # far jump: redzone bypass shape
            width = rng.choice(_WIDTHS)
        else:
            gap = rng.randint(0, 7)
            width = rng.choice([w for w in _WIDTHS if w <= 8 - gap])
        return BugSpec(
            kind=kind, arena=arena, size=size,
            offset=size + gap, width=width, store=store,
        )
    if kind == "underflow":
        arena = rng.choices(ARENAS, weights=(6, 3, 3))[0]
        size = _pick_size(rng, arena)
        delta = rng.randint(1, 8)
        return BugSpec(
            kind=kind, arena=arena, size=size,
            offset=-delta, width=rng.choice(_WIDTHS), store=store,
        )
    if kind == "loop_overflow":
        arena = rng.choices(ARENAS, weights=(6, 3, 3))[0]
        width = rng.choice(_WIDTHS)
        size = width * rng.randint(4, 40)
        # one extra trailing iteration: end = size + width <= size + 8
        return BugSpec(
            kind=kind, arena=arena, size=size,
            offset=size, width=width, store=store, via_loop=True,
        )
    if kind in ("uaf", "uaf_interior"):
        size = max(_pick_size(rng, "heap"), 16 if kind == "uaf_interior" else 1)
        width = rng.choice(_WIDTHS)
        low = 8 if kind == "uaf_interior" else 0
        offset = rng.randint(low, max(low, size - width))
        return BugSpec(
            kind=kind, arena="heap", size=size,
            offset=offset, width=width, store=store,
        )
    if kind == "double_free":
        return BugSpec(kind=kind, arena="heap", size=_pick_size(rng, "heap"))
    if kind == "invalid_free":
        return BugSpec(
            kind=kind, arena="heap",
            size=max(_pick_size(rng, "heap"), 16),
            offset=rng.choice((1, 8)),
        )
    if kind == "uar":
        size = rng.choice((8, 16, 64))
        width = rng.choice(_WIDTHS)
        return BugSpec(
            kind=kind, arena="stack", size=size,
            offset=rng.randint(0, size - width), width=width, store=store,
        )
    if kind == "memset_overflow":
        size = max(_pick_size(rng, "heap"), 1)
        return BugSpec(
            kind=kind, arena="heap", size=size,
            offset=0, length=size + rng.randint(1, 8), store=True,
        )
    # memcpy_overflow: destination overflow, source sized to fit
    size = max(_pick_size(rng, "heap"), 1)
    return BugSpec(
        kind="memcpy_overflow", arena="heap", size=size,
        offset=0, length=size + rng.randint(1, 8), store=True,
    )


def generate_case(case_seed: int, bug_probability: float = 0.55) -> FuzzCase:
    """Generate one reproducible case from its seed."""
    rng = random.Random(case_seed)
    ops = _gen_ops(rng)
    bug = _gen_bug(rng) if rng.random() < bug_probability else None
    return FuzzCase(seed=case_seed, ops=ops, bug=bug)


# ----------------------------------------------------------------------
# translation to IR
# ----------------------------------------------------------------------
def _emit_decl(f, op: BufferDecl) -> None:
    if op.arena == "heap":
        f.malloc(op.var, op.size)
    elif op.arena == "stack":
        f.stack_alloc(op.var, op.size)
    else:
        f.global_alloc(op.var, op.size)


def _emit_access(f, buf: str, offset, width: int, store: bool, value, tag: str):
    """One access; loads accumulate into the checksum variable ``acc``."""
    if store:
        f.store(buf, offset, width, value)
    else:
        f.load(f"t{tag}", buf, offset, width)
        f.assign("acc", V("acc") + V(f"t{tag}"))


def _emit_op(f, op: SpecOp, tag: str) -> None:
    if isinstance(op, BufferDecl):
        _emit_decl(f, op)
    elif isinstance(op, SingleAccess):
        _emit_access(f, op.buf, op.offset, op.width, op.store, op.value, tag)
    elif isinstance(op, LoopWalk):
        with f.loop(
            op.loop_var, 0, op.count, step=op.step,
            bounded=op.bounded, reverse=op.reverse,
        ) as i:
            _emit_access(
                f, op.buf, i * op.stride + op.start, op.width,
                op.store, i + 1, tag,
            )
    elif isinstance(op, NonAffineWalk):
        with f.loop(op.loop_var, 0, op.count) as i:
            _emit_access(
                f, op.buf, (i * op.mult + op.add) % op.modulo, op.width,
                op.store, i, tag,
            )
    elif isinstance(op, RegionFill):
        f.memset(op.buf, op.offset, op.length, op.byte)
    elif isinstance(op, RegionCopy):
        f.memcpy(op.dst, op.dst_off, op.src, op.src_off, op.length)
    elif isinstance(op, FreeBuf):
        f.free(op.buf)
    elif isinstance(op, HelperCall):
        f.call(op.name, [])
    elif isinstance(op, KernelCall):
        args = [V(op.buf), V(op.buf)] if op.alias_second else [V(op.buf)]
        f.call(op.name, args, dst=f"k{tag}")
        f.assign("acc", V("acc") + V(f"k{tag}"))
    elif isinstance(op, RecursiveCall):
        f.call(op.name, [V(op.buf), op.depth], dst=f"r{tag}")
        f.assign("acc", V("acc") + V(f"r{tag}"))
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown spec op {op!r}")


def _emit_helper(builder: ProgramBuilder, op: HelperCall) -> None:
    with builder.function(op.name) as h:
        h.stack_alloc("hbuf", op.size)
        limit = min(op.count, op.size)
        with h.loop("hi", 0, limit) as hi:
            h.store("hbuf", hi, 1, hi + 1)
        h.ret(0)


def _emit_kernel(builder: ProgramBuilder, op: KernelCall) -> None:
    """The callee for one KernelCall op (accesses precede any free)."""
    params = ["p", "q"] if op.alias_second else ["p"]
    with builder.function(op.name, params=params) as k:
        k.assign("kacc", 0)
        with k.loop("ki", 0, op.count) as ki:
            if op.store:
                k.store("p", ki * op.width, op.width, ki + 1)
            else:
                k.load("kv", "p", ki * op.width, op.width)
                k.assign("kacc", V("kacc") + V("kv"))
        if op.alias_second:
            k.load("kq", "q", 0, op.width)
            k.assign("kacc", V("kacc") + V("kq"))
        if op.free_in_callee:
            k.free("p")
        k.ret(V("kacc"))


def _emit_recursive(builder: ProgramBuilder, op: RecursiveCall) -> None:
    """The callee for one RecursiveCall op: ``rec(p, d)`` touches
    ``p[(d-1)*width]`` then recurses with ``d - 1`` until ``d == 0``."""
    with builder.function(op.name, params=["p", "d"]) as r:
        r.assign("racc", 0)
        with r.if_(V("d").gt(0)):
            if op.store:
                r.store("p", (V("d") - 1) * op.width, op.width, V("d"))
            else:
                r.load("rv", "p", (V("d") - 1) * op.width, op.width)
            r.call(op.name, [V("p"), V("d") - 1], dst="rsub")
            if op.store:
                r.assign("racc", V("rsub"))
            else:
                r.assign("racc", V("rv") + V("rsub"))
        r.ret(V("racc"))


def _emit_bug(builder: ProgramBuilder, f, bug: BugSpec) -> None:
    tag = "bug"
    if bug.kind == "uar":
        with builder.function("uar_helper") as h:
            h.stack_alloc("ubuf", bug.size)
            h.store("ubuf", 0, 1, 1)
            h.ret(V("ubuf"))
        f.call("uar_helper", [], dst="victim")
        _emit_access(f, "victim", bug.offset, bug.width, bug.store, 7, tag)
        return

    decl = BufferDecl("victim", bug.size, bug.arena)
    _emit_decl(f, decl)
    if bug.kind in ("overflow", "underflow"):
        _emit_access(f, "victim", bug.offset, bug.width, bug.store, 7, tag)
    elif bug.kind == "loop_overflow":
        count = bug.size // bug.width + 1  # last iteration runs off the end
        with f.loop("ibug", 0, count) as i:
            _emit_access(
                f, "victim", i * bug.width, bug.width, bug.store, i, tag
            )
    elif bug.kind == "uaf":
        f.free("victim")
        _emit_access(f, "victim", bug.offset, bug.width, bug.store, 7, tag)
    elif bug.kind == "uaf_interior":
        f.ptr_add("vptr", "victim", 8)
        f.free("victim")
        _emit_access(f, "vptr", bug.offset - 8, bug.width, bug.store, 7, tag)
    elif bug.kind == "double_free":
        f.free("victim")
        f.free("victim")
    elif bug.kind == "invalid_free":
        f.ptr_add("vptr", "victim", bug.offset)
        f.free("vptr")
    elif bug.kind == "memset_overflow":
        f.memset("victim", bug.offset, bug.length, 0xAB)
    elif bug.kind == "memcpy_overflow":
        f.malloc("bugsrc", bug.length)
        f.memcpy("victim", bug.offset, "bugsrc", 0, bug.length)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown bug kind {bug.kind!r}")


def build_case(case: FuzzCase) -> Program:
    """Translate a spec case into an executable IR program."""
    builder = ProgramBuilder()
    for op in case.ops:
        if isinstance(op, HelperCall):
            _emit_helper(builder, op)
        elif isinstance(op, KernelCall):
            _emit_kernel(builder, op)
        elif isinstance(op, RecursiveCall):
            _emit_recursive(builder, op)
    with builder.function("main") as f:
        f.assign("acc", 0)
        for index, op in enumerate(case.ops):
            _emit_op(f, op, str(index))
        if case.bug is not None:
            _emit_bug(builder, f, case.bug)
        f.ret(V("acc"))
    return builder.build(entry="main")


def drop_op(case: FuzzCase, index: int) -> FuzzCase:
    """Case with op ``index`` removed (and its buffer's dependents, if a
    declaration is dropped) — the shrinker's main reduction move."""
    target = case.ops[index]
    ops = list(case.ops)
    del ops[index]
    if isinstance(target, BufferDecl):
        ops = [
            op
            for op in ops
            if target.var not in (
                getattr(op, "buf", None),
                getattr(op, "dst", None),
                getattr(op, "src", None),
            )
        ]
    return replace(case, ops=tuple(ops))
