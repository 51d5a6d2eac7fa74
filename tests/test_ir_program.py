"""Tests for Program containers and tree-walking utilities."""

from repro.ir import (
    Load,
    Loop,
    ProgramBuilder,
    Store,
    V,
    assign_site_ids,
    memory_sites,
    transform_blocks,
    walk,
    walk_with_depth,
)
from repro.ir.nodes import (
    Assign,
    Call,
    CheckAccess,
    CheckElided,
    Const,
    If,
    StackAlloc,
)
from repro.ir.program import Function, Program
from repro.passes.instrument import program_fingerprint


def nested_program():
    b = ProgramBuilder()
    with b.function("main") as f:
        f.malloc("p", 1024)
        with f.loop("i", 0, 4):
            f.load("x", "p", V("i") * 8, 8)
            with f.if_(V("x").gt(0)):
                f.store("p", 0, 8, 1)
            with f.loop("j", 0, 4):
                f.store("p", V("j"), 1, 0)
    return b.build()


class TestWalk:
    def test_walk_visits_all(self):
        program = nested_program()
        kinds = [type(i).__name__ for i in walk(program.function("main").body)]
        assert kinds.count("Load") == 1
        assert kinds.count("Store") == 2
        assert kinds.count("Loop") == 2
        assert kinds.count("If") == 1

    def test_walk_with_depth(self):
        program = nested_program()
        depths = {
            type(i).__name__: d
            for i, d in walk_with_depth(program.function("main").body)
        }
        assert depths["Malloc"] == 0
        assert depths["Load"] == 1
        assert depths["Store"] == 2  # the innermost store wins the dict

    def test_memory_sites(self):
        program = nested_program()
        sites = memory_sites(program)
        assert len(sites) == 3
        assert all(isinstance(s, (Load, Store)) for s in sites)

    def test_assign_site_ids(self):
        program = nested_program()
        count = assign_site_ids(program)
        assert count == 3
        assert sorted(s.site_id for s in memory_sites(program)) == [0, 1, 2]


class TestTransformBlocks:
    def test_insertion_everywhere(self):
        program = nested_program()

        def prepend_marker(block):
            return [Assign("_marker", Const(0))] + block

        function = program.function("main")
        function.body = transform_blocks(function.body, prepend_marker)
        # one marker per block: top, loop i, if-then, if-else, loop j
        markers = [
            i
            for i in walk(function.body)
            if isinstance(i, Assign) and i.dst == "_marker"
        ]
        assert len(markers) == 5

    def test_filtering(self):
        program = nested_program()

        def drop_stores(block):
            return [i for i in block if not isinstance(i, Store)]

        function = program.function("main")
        function.body = transform_blocks(function.body, drop_stores)
        assert not [i for i in walk(function.body) if isinstance(i, Store)]


def calling_program():
    """Every nested list a clone must renew: params, loop bodies, both
    If arms and call arguments."""
    b = ProgramBuilder()
    with b.function("fill", params=["p", "n"]) as f:
        with f.loop("i", 0, V("n")):
            f.store("p", V("i"), 1, 7)
    with b.function("main") as f:
        f.malloc("p", 64)
        f.call("fill", [V("p"), 16])
        with f.loop("i", 0, 4):
            with f.if_(V("i").gt(1)):
                f.load("x", "p", V("i"), 1)
            with f.else_():
                f.store("p", V("i"), 1, 0)
        f.ret(V("x"))
    return b.build()


def instrs_of(program, kind):
    return [
        instr
        for function in program.functions.values()
        for instr in walk(function.body)
        if isinstance(instr, kind)
    ]


class TestClone:
    def test_clone_is_deep(self):
        program = nested_program()
        clone = program.clone()
        clone.function("main").body.clear()
        assert program.function("main").body  # original intact

    def test_clone_has_the_source_fingerprint(self):
        for program in (nested_program(), calling_program()):
            assert program_fingerprint(program.clone()) == (
                program_fingerprint(program)
            )

    def test_mutating_the_clone_leaves_the_source(self):
        program = calling_program()
        before = program_fingerprint(program)
        clone = program.clone()
        for instr in instrs_of(clone, (Load, Store)):
            instr.site_id = 99
            instr.offset = Const(3)
        for loop in instrs_of(clone, Loop):
            loop.body.append(Assign("y", Const(1)))
            loop.end = Const(1)
        for branch in instrs_of(clone, If):
            branch.then.clear()
            branch.orelse.append(Assign("z", Const(2)))
        for call in instrs_of(clone, Call):
            call.args.append(Const(5))
        clone.function("fill").params.append("extra")
        assert program_fingerprint(clone) != before
        assert program_fingerprint(program) == before

    def test_clone_shares_expression_trees(self):
        program = calling_program()
        clone = program.clone()
        for kind, attr in ((Store, "offset"), (Loop, "end"), (If, "cond")):
            for source, copied in zip(
                instrs_of(program, kind), instrs_of(clone, kind)
            ):
                assert source is not copied
                assert getattr(copied, attr) is getattr(source, attr)
        (source_call,) = instrs_of(program, Call)
        (copied_call,) = instrs_of(clone, Call)
        assert copied_call.args is not source_call.args
        assert all(a is b for a, b in zip(copied_call.args, source_call.args))

    def test_clone_drops_runtime_caches(self):
        from repro.runtime import compiler, fastpath

        program = calling_program()
        for loop in instrs_of(program, Loop):
            setattr(loop, fastpath._PLAN_ATTR, "stale plan")
        setattr(program, compiler._TABLE_ATTR, {"stale": "tables"})
        clone = program.clone()
        assert not hasattr(clone, compiler._TABLE_ATTR)
        for loop in instrs_of(clone, Loop):
            assert not hasattr(loop, fastpath._PLAN_ATTR)

    def test_clone_renews_an_elided_checks_inner(self):
        from repro.errors import AccessType

        inner = CheckAccess("p", Const(0), 8, AccessType.READ, site_id=4)
        program = Program()
        program.add(Function("main", body=[CheckElided(inner, "proof")]))
        (marker,) = program.clone().function("main").body
        assert marker.inner is not inner and marker.inner == inner
        assert marker.site_id == 4


def stack_program():
    b = ProgramBuilder()
    with b.function("main") as f:
        f.stack_alloc("a", 32)
        f.assign("x", 1)
        f.stack_alloc("b", 64)
        with f.loop("i", 0, 4):
            f.store("a", V("i") * 8, 8, V("i"))
        f.ret(V("x"))
    return b.build()


def fresh_scan(function):
    return tuple(i for i in function.body if isinstance(i, StackAlloc))


class TestStackBuffers:
    def test_memo_equals_a_fresh_scan(self):
        function = stack_program().function("main")
        first = function.stack_buffers()
        assert [(sb.dst, sb.size) for sb in first] == [("a", 32), ("b", 64)]
        assert first == fresh_scan(function)
        assert function.stack_buffers() is first

    def test_a_function_without_buffers_shares_the_empty_tuple(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.ret(0)
        assert b.build().function("main").stack_buffers() is ()

    def test_instrumented_functions_match_a_fresh_scan(self):
        from repro.runtime import Session

        source = stack_program()
        source.function("main").stack_buffers()
        for tool in ("ASan", "GiantSan", "LFP"):
            iprogram = Session(tool).instrument(source)
            for function in iprogram.program.functions.values():
                assert function.stack_buffers() == fresh_scan(function)

    def test_memo_is_not_part_of_a_functions_value(self):
        source = stack_program().function("main")
        other = stack_program().function("main")
        source.stack_buffers()
        assert source == other and repr(source) == repr(other)

    def test_clone_does_not_copy_the_memo(self):
        source = stack_program()
        source.function("main").stack_buffers()
        clone = source.clone().function("main")
        assert clone._stack_buffers is None
        assert clone.stack_buffers() == fresh_scan(clone)
