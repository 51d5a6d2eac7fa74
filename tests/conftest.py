"""Shared fixtures for the test suite."""

import importlib

import pytest

from repro.memory import AddressSpace, ArenaLayout, HeapAllocator
from repro.runtime import Interpreter, compiler
from repro.shadow import ShadowMemory


@pytest.fixture
def layout():
    """A small arena layout to keep tests fast."""
    return ArenaLayout(heap_size=1 << 18, stack_size=1 << 16, globals_size=1 << 14)


@pytest.fixture
def space(layout):
    return AddressSpace(layout)


@pytest.fixture
def shadow(layout):
    return ShadowMemory(layout.total_size)


@pytest.fixture
def allocator(space):
    return HeapAllocator(space, redzone=16)


@pytest.fixture
def engine_log(monkeypatch):
    """The functions the tree walker enters and the number of
    ``compile_program`` calls, in order, over an empty instrumentation
    memo (so every memoized run starts cold)."""
    # the module, not the function ``repro.passes.instrument`` exports
    memo_module = importlib.import_module("repro.passes.instrument")
    monkeypatch.setattr(memo_module, "_MEMO", {})
    log = {"tree": [], "compiles": 0}
    tree_call = Interpreter._call_function

    def spy_tree(self, function, args):
        log["tree"].append(function.name)
        return tree_call(self, function, args)

    compile_all = compiler.compile_program

    def spy_compile(*args):
        log["compiles"] += 1
        return compile_all(*args)

    monkeypatch.setattr(Interpreter, "_call_function", spy_tree)
    monkeypatch.setattr(compiler, "compile_program", spy_compile)
    return log
