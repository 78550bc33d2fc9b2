"""Tests for the recurring (multi-window) simulation."""

import pytest

from repro.core.optimizer import OptimizerConfig
from repro.cost.memo import PlanCostModel
from repro.engine.stream import StreamConfig
from repro.errors import OptimizationError
from repro.harness import recurring as recurring_mod
from repro.harness.recurring import RecurringSimulation
from repro.workloads.tpch import build_workload, generate_catalog

from .util import (
    make_toy_catalog,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)

NAMES = ("Q1", "Q6", "Q12", "Q18")


@pytest.fixture(scope="module")
def simulation():
    return RecurringSimulation(
        make_catalog=lambda day: generate_catalog(scale=0.12, seed=100 + day),
        make_queries=lambda catalog: build_workload(catalog, NAMES),
        config=OptimizerConfig(max_pace=12, stream_config=StreamConfig()),
    )


class TestRecurringSimulation:
    def test_runs_requested_days(self, simulation):
        outcomes = simulation.run(3, {qid: 0.5 for qid in range(len(NAMES))})
        assert [o.day for o in outcomes] == [0, 1, 2]
        assert all(o.total_work > 0 for o in outcomes)

    def test_goals_from_history_keep_misses_bounded(self, simulation):
        outcomes = simulation.run(3, {qid: 0.5 for qid in range(len(NAMES))})
        for outcome in outcomes:
            # day-to-day data drift is mild at a fixed scale; historical
            # goals remain achievable within cost-model error
            assert outcome.missed.mean_percent < 60

    def test_pace_configs_stable_across_days(self, simulation):
        """Same query batch + same scale -> similar chosen paces."""
        outcomes = simulation.run(3, {qid: 0.2 for qid in range(len(NAMES))})
        day1 = sorted(outcomes[1].pace_config.values())
        day2 = sorted(outcomes[2].pace_config.values())
        assert len(day1) == len(day2)

    def test_day_outcomes_carry_slack_entries(self, simulation):
        outcomes = simulation.run(2, {qid: 0.5 for qid in range(len(NAMES))})
        for outcome in outcomes:
            assert set(outcome.slack) == set(range(len(NAMES)))
            for entry in outcome.slack.values():
                assert entry["headroom_work"] == pytest.approx(
                    entry["goal_work"] - entry["final_work"]
                )
                # the eager (uniform max pace) estimate always exists here
                assert "deferred_work" in entry
                assert entry["missed"] == (
                    entry["final_work"] > entry["goal_work"]
                )

    def test_rejects_non_positive_days(self, simulation):
        for days in (0, -3, 1.5, True, "2"):
            with pytest.raises(OptimizationError, match="positive whole number"):
                simulation.run(days, {0: 0.5})

    def test_feedback_survives_decomposition(self, monkeypatch):
        """Regression: a decomposed day used to drop its feedback.

        When decomposition rewrote the plan, ``plan_out is not plan`` and
        the measured run was silently discarded -- the next day optimized
        with raw estimates.  The measured work must instead be folded
        back onto the pre-decomposition sids through the surgery lineage.
        """
        from repro.core.decompose import DecompositionOutcome
        from repro.core.regenerate import SplitLineage, apply_split

        def forced_decompose(plan, pace_config, constraints, max_pace,
                             cost_config=None, enable_partial=True,
                             cost_model=None):
            target = next(
                s for s in plan.subplans if len(s.query_ids()) >= 2
            )
            qids = sorted(target.query_ids())
            lineage = SplitLineage()
            new_plan, new_paces = apply_split(
                plan, pace_config, target.sid,
                [(qids[0],), tuple(qids[1:])], lineage=lineage,
            )
            return DecompositionOutcome(
                new_plan, new_paces, None, None, ["forced split"],
                sid_origin=lineage.origin,
                tainted_origins=lineage.tainted,
            )

        monkeypatch.setattr(
            recurring_mod, "decompose_full_plan", forced_decompose
        )
        feedback_calls = []
        original = PlanCostModel.apply_feedback

        def spy(self, run_result, pace_config):
            feedback_calls.append(run_result)
            return original(self, run_result, pace_config)

        monkeypatch.setattr(PlanCostModel, "apply_feedback", spy)

        # toy_query_max shares nothing with the split target, so its
        # subplans survive the surgery untainted and must keep feeding
        # measurements even though the split pieces degrade to "absent"
        sim = RecurringSimulation(
            make_catalog=lambda day: make_toy_catalog(seed=300 + day),
            make_queries=lambda catalog: [
                toy_query_total(catalog, 0),
                toy_query_region(catalog, 1),
                toy_query_max(catalog, 2),
            ],
            config=OptimizerConfig(
                max_pace=8, enable_unshare=True, stream_config=StreamConfig()
            ),
        )
        outcomes = sim.run(2, {0: 0.5, 1: 0.5, 2: 0.5})
        assert outcomes[0].actions == ["forced split"]  # day 0 decomposed
        assert feedback_calls, "day 1 must receive day 0's folded feedback"
        sample = feedback_calls[0]
        assert sample is not None
        assert sample.subplan_total_work, "folded measurement is non-empty"

    def test_feedback_toggle(self):
        sim = RecurringSimulation(
            make_catalog=lambda day: generate_catalog(scale=0.1, seed=200 + day),
            make_queries=lambda catalog: build_workload(catalog, ("Q1", "Q6")),
            config=OptimizerConfig(max_pace=8, stream_config=StreamConfig()),
            use_feedback=False,
        )
        outcomes = sim.run(2, {0: 0.5, 1: 0.5})
        assert len(outcomes) == 2
