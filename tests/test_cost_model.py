"""Tests for the cycle cost model."""

from dataclasses import fields

import pytest

from corpus import SCALE
from engines import run_on
from repro.ir.builder import ProgramBuilder
from repro.runtime import (
    CompiledEngine,
    CostModel,
    ExecConfig,
    Interpreter,
    geometric_mean,
)
from repro.runtime.cost_model import NativeCosts, SanitizerCosts, is_exact
from repro.sanitizers import CheckStats
from repro.workloads.spec import SPEC_TABLE2_ROWS


class TestSanitizerCosts:
    def test_zero_stats_zero_cost(self):
        assert SanitizerCosts().cycles(CheckStats()) == 0.0

    def test_each_counter_contributes(self):
        costs = SanitizerCosts()
        base = costs.cycles(CheckStats())
        for counter in (
            "shadow_loads",
            "shadow_stores",
            "instruction_checks",
            "region_checks",
            "slow_checks",
            "cached_hits",
            "cache_updates",
            "extra_instructions",
            "allocations",
            "frees",
        ):
            stats = CheckStats(**{counter: 1})
            assert costs.cycles(stats) > base, counter

    def test_linear_in_counts(self):
        costs = SanitizerCosts()
        one = costs.cycles(CheckStats(shadow_loads=1))
        hundred = costs.cycles(CheckStats(shadow_loads=100))
        assert hundred == pytest.approx(100 * one)


class TestCostModel:
    def test_overhead_ratio(self):
        model = CostModel()
        stats = CheckStats(shadow_loads=100)
        ratio = model.overhead_ratio(300.0, stats)
        assert ratio == pytest.approx(1 + 100 * model.sanitizer.shadow_load / 300.0)

    def test_ratio_with_no_native_work(self):
        assert CostModel().overhead_ratio(0.0, CheckStats()) == 1.0

    def test_total_cycles_additive(self):
        model = CostModel()
        stats = CheckStats(region_checks=10)
        assert model.total_cycles(50.0, stats) == pytest.approx(
            50.0 + 10 * model.sanitizer.region_check
        )


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_identity(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_matches_paper_style_aggregation(self):
        ratios = [1.46, 2.12, 1.74]
        result = geometric_mean(ratios)
        assert 1.46 < result < 2.12


class TestNativeCosts:
    def test_defaults_sane(self):
        costs = NativeCosts()
        assert costs.memory_access > costs.arith
        assert costs.malloc > costs.call


class TestExactCharges:
    @pytest.mark.parametrize("value", [0, 1, 2.0, 0.25, 0.5, 3 / 1024, 60.0,
                                       2.0 ** 40 - 1])
    def test_exact(self, value):
        assert is_exact(value)

    @pytest.mark.parametrize("value", [0.1, 0.3, 0.7, 1 / 3, 1 / 2048,
                                       2.0 ** 40, -1.0, float("inf"),
                                       float("nan")])
    def test_inexact(self, value):
        assert not is_exact(value)

    def test_default_costs_are_exact(self):
        costs = NativeCosts()
        assert all(is_exact(getattr(costs, f.name)) for f in fields(costs))


#: Non-dyadic native costs: grouped float sums of these round.
INEXACT = CostModel(
    native=NativeCosts(arith=0.1, memory_access=0.3, loop_iteration=0.7)
)


def _past_2_43():
    """Exact charges whose running total passes 2**43, where each lone
    1/1024 rounds away but a grouped ``2**40 + 2**-9`` does not."""
    builder = ProgramBuilder()
    with builder.function("main") as f:
        with f.loop("i", 0, 16):
            f.compute(2 ** 40 - 1)
            f.compute(1 / 1024)
            f.compute(1 / 1024)
        f.ret(0)
    return builder.build()


#: (id, program builder, arguments, cost model) of each cycle case.
CYCLE_CASES = [
    (spec.name, spec.build, [SCALE], INEXACT) for spec in SPEC_TABLE2_ROWS
] + [("exact-past-2**43", _past_2_43, [], CostModel())]


@pytest.mark.parametrize(
    "build, args, cost_model",
    [case[1:] for case in CYCLE_CASES],
    ids=[case[0] for case in CYCLE_CASES],
)
def test_cycles_add_alike_in_every_engine(build, args, cost_model):
    """The tree walker, compiled closures and the superblock fast path
    charge bit-identical native cycles whatever the charges: the fast
    path declines rather than multiply inexact ones, and closures add
    each charge on its own, in the tree walker's order, never one sum
    per straight-line run."""
    program = build()
    cycles = {
        (engine.__name__, fastpath): run_on(
            engine, program, "GiantSan",
            ExecConfig(fastpath=fastpath, memoize=False), args,
            cost_model=cost_model,
        ).native_cycles.hex()
        for engine in (Interpreter, CompiledEngine)
        for fastpath in (False, True)
    }
    assert len(set(cycles.values())) == 1, cycles


def test_fast_path_declines_inexact_charges():
    spec = SPEC_TABLE2_ROWS[0]
    telemetry = run_on(
        Interpreter, spec.build(), "GiantSan", ExecConfig(memoize=False),
        [SCALE], cost_model=INEXACT, telemetry=True,
    ).telemetry
    assert telemetry.superblock_declines.get("inexact_cycles", 0) > 0
    assert "superblock_loops" not in telemetry.counters
