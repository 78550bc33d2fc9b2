"""Tests for the cost model: statistics, profiles, simulation, memoization."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cost.memo import OptimizationTimeout, PlanCostModel
from repro.cost.model import (
    CollapsingProfile,
    CostConfig,
    LedgerProfile,
    UniformProfile,
    emissions,
    expected_touched,
    simulate_subplan,
)
from repro.cost.stats import EdgeStat, NodeStats, union_estimate
from repro.engine.calibrate import calibrate_plan
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.errors import CostModelError
from repro.mqo.merge import MQOOptimizer, build_unshared_plan

from .util import make_toy_catalog, toy_query_region, toy_query_total


class TestExpectedTouched:
    def test_zero_cases(self):
        assert expected_touched(0, 10) == 0.0
        assert expected_touched(10, 0) == 0.0

    def test_single_bin(self):
        assert expected_touched(1, 5) == 1.0
        assert expected_touched(1, 0.5) == 0.5

    def test_small_n_approx_n(self):
        assert expected_touched(10_000, 5) == pytest.approx(5, rel=0.01)

    def test_large_n_saturates(self):
        assert expected_touched(10, 10_000) == pytest.approx(10, rel=1e-6)

    @given(
        st.floats(min_value=1, max_value=1e6),
        st.floats(min_value=0, max_value=1e6),
    )
    def test_bounds_property(self, universe, n):
        touched = expected_touched(universe, n)
        # the <= n half of the bound only holds for whole balls (n >= 1)
        assert 0.0 <= touched <= min(universe, max(n, 1.0)) + 1e-6

    @given(
        st.floats(min_value=1, max_value=1e4),
        st.floats(min_value=0, max_value=1e4),
        st.floats(min_value=0, max_value=1e4),
    )
    def test_monotone_in_n(self, universe, n1, n2):
        lo, hi = sorted((n1, n2))
        assert expected_touched(universe, lo) <= expected_touched(universe, hi) + 1e-9


class TestEmissions:
    def test_first_batch_only_inserts(self):
        emitted, retracted = emissions(100, 0, 10)
        assert retracted == pytest.approx(0.0, abs=1e-6)
        assert emitted == pytest.approx(expected_touched(100, 10), rel=1e-6)

    def test_warm_state_retracts(self):
        emitted, retracted = emissions(10, 1000, 50)
        # all groups materialized: every touch is retract + insert
        assert retracted == pytest.approx(10, rel=0.01)
        assert emitted == pytest.approx(20, rel=0.01)

    def test_zero_input(self):
        assert emissions(10, 5, 0) == (0.0, 0.0)

    @given(
        st.floats(min_value=1, max_value=1e4),
        st.floats(min_value=0, max_value=1e4),
        st.floats(min_value=0, max_value=1e4),
    )
    def test_emitted_bounds(self, universe, seen, n):
        emitted, retracted = emissions(universe, seen, n)
        assert 0 <= retracted <= universe + 1e-6
        # the <= 2n half of the bound only holds for whole records (n >= 1)
        assert emitted <= 2 * min(universe, max(n, 1.0)) + 1e-6


class TestUnionEstimate:
    def test_empty(self):
        assert union_estimate(100, []) == 0.0
        assert union_estimate(0, [5]) == 0.0

    def test_single_subset(self):
        assert union_estimate(100, [30]) == pytest.approx(30)

    def test_never_below_max_nor_above_sum(self):
        union = union_estimate(100, [60, 50])
        assert 60 <= union <= 100
        union = union_estimate(1000, [5, 5])
        assert 5 <= union <= 10

    @given(
        st.floats(min_value=1, max_value=1e5),
        st.lists(st.floats(min_value=0, max_value=1e5), max_size=6),
    )
    def test_bounds_property(self, total, cards):
        union = union_estimate(total, cards)
        capped = [min(max(c, 0.0), total) for c in cards]
        assert union <= total + 1e-6
        assert union >= max(capped, default=0.0) - 1e-6
        if capped:
            assert union <= sum(capped) + 1e-6


class TestEdgeStat:
    def test_scaled(self):
        stat = EdgeStat(100, 10, {0: 50})
        half = stat.scaled(0.5)
        assert half.total == 50 and half.deletes == 5 and half.per_q[0] == 25

    def test_uniform_query_card(self):
        stat = EdgeStat(100, 0, uniform=True)
        assert stat.query_card(7) == 100

    def test_restricted_uniform(self):
        stat = EdgeStat(100, 0, uniform=True)
        restricted = stat.restricted([0, 3])
        assert restricted.total == 100
        assert restricted.per_q == {0: 100.0, 3: 100.0}

    def test_restricted_union_is_bounded(self):
        stat = EdgeStat(100, 0, {0: 60, 1: 60})
        restricted = stat.restricted([0, 1])
        assert 60 <= restricted.total <= 100

    def test_restricted_empty(self):
        stat = EdgeStat(100, 0, {0: 60})
        assert stat.restricted([]).total == 0.0

    def test_net_accounts_for_cancellation(self):
        stat = EdgeStat(100, 30)
        assert stat.net() == pytest.approx(40)
        assert stat.insert_count() == pytest.approx(70)

    def test_add_accumulates(self):
        stat = EdgeStat()
        stat.add(EdgeStat(10, 1, {0: 5}))
        stat.add(EdgeStat(20, 2, {0: 5, 1: 5}))
        assert stat.total == 30 and stat.deletes == 3
        assert stat.per_q == {0: 10, 1: 5}


class TestProfiles:
    def test_uniform_windows_partition_total(self):
        profile = UniformProfile(EdgeStat(100, 10, {0: 40}), granularity=100)
        acc = EdgeStat()
        for index in range(1, 5):
            acc.add(profile.window(index, 4))
        assert acc.total == pytest.approx(100)
        assert acc.deletes == pytest.approx(10)
        assert acc.per_q[0] == pytest.approx(40)

    def test_ledger_windows_sum_producer_execs(self):
        stats = [EdgeStat(10), EdgeStat(20), EdgeStat(30), EdgeStat(40)]
        profile = LedgerProfile(stats, granularity=4)
        # consumer at pace 2 sees [10+20, 30+40]
        assert profile.window(1, 2).total == pytest.approx(30)
        assert profile.window(2, 2).total == pytest.approx(70)
        # consumer eagerer than producer sees empty gap windows
        assert profile.window(1, 8).total == 0.0
        assert profile.window(2, 8).total == pytest.approx(10)

    def test_ledger_total(self):
        profile = LedgerProfile([EdgeStat(10), EdgeStat(5)], granularity=2)
        assert profile.total_stat().total == pytest.approx(15)

    def test_collapsing_lazy_consumer_sees_fewer_records(self):
        # 200 inputs over 10 producer executions into 20 groups
        series = [20.0 * i for i in range(11)]
        profile = CollapsingProfile(
            universe=20, series=series, per_q={0: (20, series)},
            scale_total=1.0, scale_per_q={0: 1.0}, granularity=10,
        )
        eager = sum(profile.window(i, 10).total for i in range(1, 11))
        lazy = profile.window(1, 1).total
        assert lazy < eager
        # a one-batch consumer sees at most one insert per group
        assert lazy <= 20 + 1e-6

    def test_collapsing_batch_consumer_sees_no_deletes(self):
        series = [30.0 * i for i in range(7)]
        profile = CollapsingProfile(
            universe=15, series=series, per_q={},
            scale_total=1.0, scale_per_q={}, granularity=6,
        )
        assert profile.window(1, 1).deletes == pytest.approx(0.0, abs=1e-6)


@pytest.fixture(scope="module")
def calibrated_toy():
    catalog = make_toy_catalog()
    queries = [toy_query_total(catalog, 0), toy_query_region(catalog, 1)]
    plan = MQOOptimizer(catalog).build_shared_plan(queries)
    config = StreamConfig()
    calibrate_plan(plan, config)
    return catalog, queries, plan, config


class TestSimulationFidelity:
    def test_pace1_estimate_matches_measurement(self, calibrated_toy):
        catalog, queries, plan, config = calibrated_toy
        model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
        paces = {s.sid: 1 for s in plan.subplans}
        estimate = model.evaluate(paces)
        measured = PlanExecutor(plan, config).run(paces, collect_results=False)
        assert estimate.total_work == pytest.approx(measured.total_work, rel=0.02)
        for qid in (0, 1):
            assert estimate.query_final_work[qid] == pytest.approx(
                measured.query_final_work[qid], rel=0.05
            )

    @pytest.mark.parametrize("pace", [4, 10])
    def test_eager_estimates_track_measurements(self, calibrated_toy, pace):
        catalog, queries, plan, config = calibrated_toy
        model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
        paces = {s.sid: pace for s in plan.subplans}
        estimate = model.evaluate(paces)
        measured = PlanExecutor(plan, config).run(paces, collect_results=False)
        assert estimate.total_work == pytest.approx(measured.total_work, rel=0.25)

    def test_estimated_total_grows_with_pace(self, calibrated_toy):
        _, _, plan, config = calibrated_toy
        model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
        totals = [
            model.evaluate({s.sid: pace for s in plan.subplans}).total_work
            for pace in (1, 4, 16)
        ]
        assert totals[0] < totals[1] < totals[2]

    def test_estimated_final_shrinks_with_pace(self, calibrated_toy):
        _, _, plan, config = calibrated_toy
        model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
        finals = [
            sum(model.evaluate({s.sid: pace for s in plan.subplans}).query_final_work.values())
            for pace in (1, 4, 16)
        ]
        assert finals[0] > finals[1] > finals[2]


class TestMemoization:
    def test_memo_and_no_memo_agree(self, calibrated_toy):
        _, _, plan, config = calibrated_toy
        cost_config = CostConfig(state_factor=config.state_factor)
        with_memo = PlanCostModel(plan, cost_config, use_memo=True)
        without = PlanCostModel(plan, cost_config, use_memo=False)
        for paces in (
            {s.sid: 1 for s in plan.subplans},
            {s.sid: 5 for s in plan.subplans},
        ):
            a = with_memo.evaluate(paces)
            b = without.evaluate(paces)
            assert a.total_work == pytest.approx(b.total_work)
            assert a.query_final_work == b.query_final_work

    def test_memo_avoids_resimulation(self, calibrated_toy):
        _, _, plan, config = calibrated_toy
        model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
        paces = {s.sid: 3 for s in plan.subplans}
        model.evaluate(paces)
        count = model.simulation_count
        model.evaluate(paces)
        assert model.simulation_count == count

    def test_memo_key_is_private_pace_config(self, calibrated_toy):
        _, _, plan, config = calibrated_toy
        model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
        shared = plan.shared_subplans()[0]
        parents = plan.parents_of(shared)
        base = {s.sid: 2 for s in plan.subplans}
        model.evaluate(base)
        count = model.simulation_count
        # changing only a parent's pace must not re-simulate the child
        changed = dict(base)
        changed[parents[0].sid] = 1
        model.evaluate(changed)
        assert model.simulation_count == count + 1

    def test_timeout_raises(self, calibrated_toy):
        _, _, plan, config = calibrated_toy
        model = PlanCostModel(
            plan, CostConfig(state_factor=config.state_factor),
            use_memo=False, time_budget=-1.0,
        )
        model._deadline = -math.inf
        with pytest.raises(OptimizationTimeout):
            model.evaluate({s.sid: 1 for s in plan.subplans})

    def test_uncalibrated_plan_raises(self):
        catalog = make_toy_catalog(seed=99)
        queries = [toy_query_region(catalog, 0)]
        plan = MQOOptimizer(catalog).build_shared_plan(queries)
        model = PlanCostModel(plan)
        with pytest.raises(CostModelError, match="statistics"):
            model.evaluate({s.sid: 1 for s in plan.subplans})


class TestSoloAndLocal:
    def test_solo_batch_sums_query_subplans(self, calibrated_toy):
        _, queries, plan, config = calibrated_toy
        model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
        total, per_subplan = model.solo_batch(0)
        assert total == pytest.approx(sum(per_subplan.values()))
        assert set(per_subplan) == {
            s.sid for s in plan.subplans_of_query(0)
        }

    def test_absolute_constraints_scale_solo(self, calibrated_toy):
        _, _, plan, config = calibrated_toy
        model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
        absolute = model.absolute_constraints({0: 0.5, 1: 1.0})
        assert absolute[0] == pytest.approx(model.solo_batch(0)[0] * 0.5)
        assert absolute[1] == pytest.approx(model.solo_batch(1)[0])

    def test_local_constraints_fractions(self, calibrated_toy):
        _, _, plan, config = calibrated_toy
        model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
        absolute = model.absolute_constraints({0: 1.0, 1: 1.0})
        shared = plan.shared_subplans()[0]
        local = model.local_constraints(shared, absolute)
        for qid, bound in local.items():
            assert 0 < bound <= absolute[qid]

    def test_solo_estimates_match_solo_measurement(self, calibrated_toy):
        catalog, queries, plan, config = calibrated_toy
        model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
        solo_plan = build_unshared_plan(catalog, queries)
        measured = PlanExecutor(solo_plan, config).run(
            {s.sid: 1 for s in solo_plan.subplans}, collect_results=False
        )
        for qid in (0, 1):
            estimate, _ = model.solo_batch(qid)
            assert estimate == pytest.approx(
                measured.query_final_work[qid], rel=0.35
            )
