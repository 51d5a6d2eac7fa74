"""Program and Function containers plus structural utilities.

A :class:`Program` is a set of functions with a designated entry point.
Utilities here walk instruction trees (checks, passes, and the printer
all need that) and validate structural invariants before execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .nodes import (
    Call,
    CheckElided,
    If,
    Instr,
    Loop,
    MEMORY_INSTRS,
    StackAlloc,
)


@dataclass
class Function:
    """One function: parameters, stack buffers, and a body."""

    name: str
    params: List[str] = field(default_factory=list)
    body: List[Instr] = field(default_factory=list)

    def __post_init__(self) -> None:
        # stack_buffers' memo, set at construction: an attribute added
        # later, after the compiler's work estimate, would take the
        # instance dict out of CPython's shared-key layout, 272 bytes a
        # function
        self._stack_buffers: Optional[Tuple[StackAlloc, ...]] = None

    def stack_buffers(self) -> Tuple[StackAlloc, ...]:
        """Top-level stack buffers of the function (frame contents).

        Both engines read this at every call, so the body is scanned
        once, at the first call, and the result memoized on the
        function, as the compiler memoizes its work estimate: the
        engines run a function only once instrumentation has finished
        rewriting its body.  A function without stack buffers shares
        the empty tuple.
        """
        buffers = self._stack_buffers
        if buffers is None:
            buffers = self._stack_buffers = tuple(
                i for i in self.body if isinstance(i, StackAlloc)
            )
        return buffers


@dataclass
class Program:
    """A whole program; ``entry`` names the function execution starts in."""

    functions: Dict[str, Function] = field(default_factory=dict)
    entry: str = "main"

    def add(self, function: Function) -> None:
        if function.name in self.functions:
            raise ValueError(f"duplicate function: {function.name}")
        self.functions[function.name] = function

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function named {name!r}") from None

    def clone(self) -> "Program":
        """A structural copy, so instrumentation never mutates the source.

        Functions, instructions and every instruction list are new;
        expression trees are shared, since :class:`~repro.ir.nodes.Expr`
        nodes are frozen and passes only ever replace them.  Only
        declared fields are copied, so runtime caches the engines attach
        to nodes (a loop's superblock plan, a program's closure tables)
        never reach the clone.
        """
        clone = Program(entry=self.entry)
        for name, function in self.functions.items():
            clone.functions[name] = Function(
                function.name,
                list(function.params),
                _clone_block(function.body),
            )
        return clone

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on the first
        violation (unknown call targets, empty entry, bad widths)."""
        if self.entry not in self.functions:
            raise ValueError(f"entry function {self.entry!r} is missing")
        for function in self.functions.values():
            for instr in walk(function.body):
                if isinstance(instr, Call) and instr.func not in self.functions:
                    raise ValueError(
                        f"{function.name} calls unknown function {instr.func!r}"
                    )
                width = getattr(instr, "width", None)
                if width is not None and width not in (1, 2, 4, 8):
                    raise ValueError(f"unsupported access width {width}")


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """The declared dataclass fields of an instruction class."""
    return tuple(f.name for f in fields(cls))


def _clone_instr(instr: Instr) -> Instr:
    """A copy of one instruction with fresh nested lists (see
    :meth:`Program.clone`)."""
    cls = type(instr)
    state = instr.__dict__
    clone = object.__new__(cls)
    clone.__dict__.update({name: state[name] for name in _field_names(cls)})
    if isinstance(instr, Loop):
        clone.body = _clone_block(instr.body)
    elif isinstance(instr, If):
        clone.then = _clone_block(instr.then)
        clone.orelse = _clone_block(instr.orelse)
    elif isinstance(instr, Call):
        clone.args = list(instr.args)
    elif isinstance(instr, CheckElided):
        clone.inner = _clone_instr(instr.inner)
    return clone


def _clone_block(block: List[Instr]) -> List[Instr]:
    """:func:`_clone_instr` over a block."""
    return [_clone_instr(instr) for instr in block]


def child_blocks(instr: Instr) -> List[List[Instr]]:
    """The nested instruction lists of a control-flow instruction."""
    if isinstance(instr, Loop):
        return [instr.body]
    if isinstance(instr, If):
        return [instr.then, instr.orelse]
    return []


def walk(block: List[Instr]) -> Iterator[Instr]:
    """Depth-first iteration over every instruction in a block tree."""
    for instr in block:
        yield instr
        for child in child_blocks(instr):
            yield from walk(child)


def walk_with_depth(
    block: List[Instr], depth: int = 0
) -> Iterator[Tuple[Instr, int]]:
    """Like :func:`walk` but yields loop-nesting depth alongside."""
    for instr in block:
        yield instr, depth
        extra = 1 if isinstance(instr, Loop) else 0
        for child in child_blocks(instr):
            yield from walk_with_depth(child, depth + extra)


def transform_blocks(
    block: List[Instr],
    fn: Callable[[List[Instr]], List[Instr]],
) -> List[Instr]:
    """Rebuild a block tree bottom-up, applying ``fn`` to every block.

    ``fn`` receives a block whose nested blocks are already transformed
    and returns the replacement block.  Passes use this to insert or
    remove check instructions without hand-writing recursion.
    """
    rebuilt: List[Instr] = []
    for instr in block:
        if isinstance(instr, Loop):
            instr.body = transform_blocks(instr.body, fn)
        elif isinstance(instr, If):
            instr.then = transform_blocks(instr.then, fn)
            instr.orelse = transform_blocks(instr.orelse, fn)
        rebuilt.append(instr)
    return fn(rebuilt)


def memory_sites(program: Program) -> List[Instr]:
    """All memory-touching instructions in the program, in walk order."""
    sites: List[Instr] = []
    for function in program.functions.values():
        for instr in walk(function.body):
            if isinstance(instr, MEMORY_INSTRS):
                sites.append(instr)
    return sites


def assign_site_ids(program: Program) -> int:
    """Give every memory instruction a stable ``site_id``; returns count."""
    next_id = 0
    for instr in memory_sites(program):
        instr.site_id = next_id
        next_id += 1
    return next_id
