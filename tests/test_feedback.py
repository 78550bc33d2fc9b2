"""Tests for the measured-execution feedback calibration of the cost model."""

import pytest

from repro.cost.memo import (
    FEEDBACK_FACTOR_MAX,
    FEEDBACK_FACTOR_MIN,
    PlanCostModel,
    clamp_feedback_factor,
)
from repro.cost.model import CostConfig
from repro.engine.calibrate import calibrate_plan
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.mqo.merge import MQOOptimizer

from .util import make_toy_catalog, toy_query_region, toy_query_total


@pytest.fixture(scope="module")
def setup():
    catalog = make_toy_catalog(seed=41)
    queries = [toy_query_total(catalog, 0), toy_query_region(catalog, 1)]
    plan = MQOOptimizer(catalog).build_shared_plan(queries)
    config = StreamConfig()
    calibrate_plan(plan, config)
    model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
    executor = PlanExecutor(plan, config)
    return plan, model, executor


class TestFeedback:
    def test_feedback_makes_estimate_exact_at_observed_config(self, setup):
        plan, model, executor = setup
        paces = {s.sid: 8 for s in plan.subplans}
        measured = executor.run(paces, collect_results=False)
        model.apply_feedback(measured, paces)
        corrected = model.evaluate(paces)
        assert corrected.total_work == pytest.approx(measured.total_work, rel=1e-6)
        for qid, final in measured.query_final_work.items():
            assert corrected.query_final_work[qid] == pytest.approx(final, rel=1e-6)

    def test_feedback_improves_nearby_configs(self, setup):
        plan, model, executor = setup
        observed = {s.sid: 8 for s in plan.subplans}
        nearby = {s.sid: 10 for s in plan.subplans}
        measured_nearby = executor.run(nearby, collect_results=False)
        model.apply_feedback(None, None)
        raw_error = abs(
            model.evaluate(nearby).total_work - measured_nearby.total_work
        )
        model.apply_feedback(executor.run(observed, collect_results=False), observed)
        corrected_error = abs(
            model.evaluate(nearby).total_work - measured_nearby.total_work
        )
        assert corrected_error <= raw_error * 1.5  # never much worse nearby

    def test_clearing_feedback_restores_raw_estimates(self, setup):
        plan, model, executor = setup
        paces = {s.sid: 4 for s in plan.subplans}
        model.apply_feedback(None, None)
        raw = model.evaluate(paces).total_work
        measured = executor.run(paces, collect_results=False)
        model.apply_feedback(measured, paces)
        assert model.evaluate(paces).total_work != pytest.approx(raw, rel=1e-9) or (
            raw == pytest.approx(measured.total_work)
        )
        model.apply_feedback(None, None)
        assert model.evaluate(paces).total_work == pytest.approx(raw)

    def test_measured_zero_work_calibrates_down(self, setup):
        """Regression: a measured 0.0 used to be conflated with "absent".

        ``if measured_total`` treated a subplan that verifiably did zero
        work like one that was never measured (factor 1.0); the estimate
        stayed inflated forever.  Zero against a positive estimate must
        calibrate down to the clamp floor.
        """
        plan, model, executor = setup

        class FakeRun:
            subplan_total_work = {s.sid: 0.0 for s in plan.subplans}
            subplan_final_work = {s.sid: 0.0 for s in plan.subplans}

        paces = {s.sid: 2 for s in plan.subplans}
        factors = model.apply_feedback(FakeRun(), paces)
        for total_factor, final_factor in factors.values():
            assert total_factor == FEEDBACK_FACTOR_MIN
            assert final_factor == FEEDBACK_FACTOR_MIN
        model.apply_feedback(None, None)

    def test_absent_measurement_keeps_factor_one(self, setup):
        """``None`` (sid missing from the run) still means "no data"."""
        plan, model, executor = setup

        class FakeRun:
            subplan_total_work = {}
            subplan_final_work = {}

        paces = {s.sid: 2 for s in plan.subplans}
        factors = model.apply_feedback(FakeRun(), paces)
        assert all(pair == (1.0, 1.0) for pair in factors.values())
        model.apply_feedback(None, None)

    def test_factors_clamped_to_documented_range(self, setup):
        plan, model, executor = setup

        class FakeRun:
            subplan_total_work = {s.sid: 1e12 for s in plan.subplans}
            subplan_final_work = {s.sid: 1e-12 for s in plan.subplans}

        paces = {s.sid: 2 for s in plan.subplans}
        factors = model.apply_feedback(FakeRun(), paces)
        for total_factor, final_factor in factors.values():
            assert total_factor == FEEDBACK_FACTOR_MAX
            assert FEEDBACK_FACTOR_MIN <= final_factor <= FEEDBACK_FACTOR_MAX
        model.apply_feedback(None, None)
        assert clamp_feedback_factor(0.0) == FEEDBACK_FACTOR_MIN
        assert clamp_feedback_factor(float("inf")) == FEEDBACK_FACTOR_MAX
        assert clamp_feedback_factor(1.0) == 1.0

    def test_feedback_returns_factors(self, setup):
        plan, model, executor = setup
        paces = {s.sid: 2 for s in plan.subplans}
        measured = executor.run(paces, collect_results=False)
        factors = model.apply_feedback(measured, paces)
        assert set(factors) == {s.sid for s in plan.subplans}
        for total_factor, final_factor in factors.values():
            assert 0.2 < total_factor < 5
            assert 0.2 < final_factor < 5
        model.apply_feedback(None, None)


class TestPerPaceFeedback:
    """A correction applies only at the pace it was measured at: the
    estimate's error depends on the pace, so a factor measured at one
    pace says nothing about another."""

    class ClampedRun:
        """Every subplan measured far above its total and far below its
        final estimate: both factors clamp, away from 1.0."""

        def __init__(self, plan):
            self.subplan_total_work = {s.sid: 1e12 for s in plan.subplans}
            self.subplan_final_work = {s.sid: 1e-12 for s in plan.subplans}

    @staticmethod
    def _assert_rows(model, raw, paces, measured_paces):
        got, want = model.evaluate(paces), raw.evaluate(paces)
        for sid, pace in paces.items():
            total, final = want.subplan_total[sid], want.subplan_final[sid]
            if pace == measured_paces[sid]:
                total *= FEEDBACK_FACTOR_MAX
                final *= FEEDBACK_FACTOR_MIN
            assert got.subplan_total[sid] == total, (sid, pace)
            assert got.subplan_final[sid] == final, (sid, pace)

    def test_a_factor_corrects_its_measured_pace_and_not_a_neighbour(
            self, setup):
        plan, model, _ = setup
        raw = PlanCostModel(plan, model.config)
        measured = {s.sid: 8 for s in plan.subplans}
        model.apply_feedback(self.ClampedRun(plan), measured)
        try:
            self._assert_rows(model, raw, measured, measured)
            # one subplan a pace away: only its own row loses the correction
            moved = {**measured, plan.subplans[0].sid: 9}
            self._assert_rows(model, raw, moved, measured)
            self._assert_rows(
                model, raw, {s.sid: 9 for s in plan.subplans}, measured)
        finally:
            model.apply_feedback(None, None)
        assert model._feedback == {} and model._feedback_pace == {}

    def test_sibling_and_carry_hand_on_the_measured_pace(self, setup):
        plan, model, _ = setup
        raw = PlanCostModel(plan, model.config)
        measured = {s.sid: 2 if s.child_subplans() else 4
                    for s in plan.subplans}
        other = {s.sid: 3 for s in plan.subplans}
        model.apply_feedback(self.ClampedRun(plan), measured)
        try:
            carried = PlanCostModel(plan, model.config)
            carried.carry_feedback_and_solo_from(
                model, {s.sid: s.sid for s in plan.subplans})
            for receiver in (model.sibling(plan), carried):
                assert receiver.feedback_factors() == model.feedback_factors()
                for paces in (measured, other):
                    self._assert_rows(receiver, raw, paces, measured)
        finally:
            model.apply_feedback(None, None)
