"""A call-heavy workload: hot kernels behind function boundaries.

The Table 2 proxies keep hot loops in separate functions on purpose —
intraprocedural analyses cannot see through the calls, which models
LLVM's default behaviour.  This workload is the stress version of that
structure: almost every access happens on one side of a call boundary
while the fact that would justify eliding its check lives on the other
side.  It is the acceptance workload for the interprocedural summary
layer — with summaries enabled the dynamic check count must drop
measurably (callee effects no longer clobber caller facts, loops over
non-freeing calls promote, and callee prologue checks die from
caller-side coverage), while the execution semantics (checksum, error
log) stay identical.

The shapes, in order of appearance:

* ``digest`` / ``scale8`` — pointer-taking kernels the entry calls
  repeatedly; both are provably non-freeing, so with summaries a call
  to them is no barrier to fact survival or loop promotion.
* ``digest_twice`` — a wrapper whose summary folds its callee's access
  range transitively.
* ``countdown`` — bounded self-recursion; its conservative ⊤ summary
  pins the fall-back path inside the same program.
"""

from __future__ import annotations

from ..ir.builder import ProgramBuilder
from ..ir.nodes import V
from ..ir.program import Program

#: Bytes of the shared table every kernel walks.
TABLE_BYTES = 64

#: Entry argument (``scale``) used when a caller gives none.
DEFAULT_SCALE = 6


def build_callheavy_program() -> Program:
    """The call-heavy acceptance workload; entry takes ``scale``."""
    b = ProgramBuilder()
    with b.function("digest", params=["table"]) as k:
        k.assign("dacc", 0)
        with k.loop("di", 0, TABLE_BYTES // 4) as di:
            k.load("dv", "table", di * 4, 4)
            k.assign("dacc", V("dacc") + V("dv"))
        k.ret(V("dacc"))
    with b.function("scale8", params=["table"]) as k:
        with k.loop("si", 0, TABLE_BYTES // 8) as si:
            k.load("sv", "table", si * 8, 8)
            k.store("table", si * 8, 8, V("sv") * 2)
        k.ret(0)
    with b.function("digest_twice", params=["table"]) as k:
        k.call("digest", [V("table")], dst="first")
        k.call("digest", [V("table")], dst="second")
        k.ret(V("first") + V("second"))
    with b.function("countdown", params=["table", "d"]) as k:
        k.assign("cacc", 0)
        with k.if_(V("d").gt(0)):
            k.load("cv", "table", (V("d") - 1) * 8, 8)
            k.call("countdown", [V("table"), V("d") - 1], dst="csub")
            k.assign("cacc", V("cv") + V("csub"))
        k.ret(V("cacc"))
    with b.function("main", params=["scale"]) as f:
        f.malloc("table", TABLE_BYTES)
        f.memset("table", 0, TABLE_BYTES, 1)
        f.assign("acc", 0)
        with f.loop("rep", 0, V("scale")):
            # the same-offset reloads around each call are the facts the
            # intraprocedural pipeline must re-check every iteration
            f.load("x", "table", 0, 8)
            f.call("digest", [V("table")], dst="d1")
            f.load("y", "table", 8, 8)
            f.call("scale8", [V("table")])
            f.load("z", "table", 0, 8)
            f.assign("acc", V("acc") + V("d1") + V("x") + V("y") + V("z"))
        f.call("digest_twice", [V("table")], dst="d2")
        f.call("countdown", [V("table"), 4], dst="d3")
        f.ret(V("acc") + V("d2") + V("d3"))
    return b.build()
