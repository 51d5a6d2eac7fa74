"""Regression: a session charges its cost model's native cycles.

``Session.run`` built its engine without ``native_costs``, so a
``CostModel`` with a non-default ``NativeCosts`` charged the default
native cycles, and ``run_overhead_study(cost_model=...)`` inherited the
bug.  The engine now gets ``cost_model.native``, and the tiering engine
keys its closure table on it, so a run that compiles mid-way charges
the same cycles as the tree walker.
"""

from repro.runtime import ExecConfig, Session
from repro.runtime.cost_model import CostModel, NativeCosts
from repro.workloads.spec import SPEC_TABLE2_ROWS

SPEC = SPEC_TABLE2_ROWS[0]  # 500.perlbench_r
CUSTOM = CostModel(native=NativeCosts(arith=10.0, memory_access=9.0))


def _cycles(cost_model, memoize):
    session = Session(
        "GiantSan", ExecConfig(memoize=memoize), cost_model=cost_model
    )
    return session.run(SPEC.build(), [2]).native_cycles


def test_native_costs_change_native_cycles():
    assert _cycles(CUSTOM, False) > _cycles(CostModel(), False)


def test_tree_walker_and_tier_up_agree_on_custom_costs(engine_log):
    tree = _cycles(CUSTOM, False)
    tiered = _cycles(CUSTOM, True)
    assert engine_log["compiles"] == 1  # the memoized run tiered up
    assert tiered == tree
