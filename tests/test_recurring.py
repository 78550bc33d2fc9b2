"""Tests for the recurring (multi-window) simulation."""

import pytest

from repro.core.optimizer import OptimizerConfig
from repro.cost.memo import OptimizationTimeout
from repro.engine.stream import StreamConfig
from repro.errors import OptimizationError
from repro.harness.recurring import RecurringSimulation
from repro.workloads.tpch import build_workload, generate_catalog

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

    def test_the_optimizer_config_reaches_the_pace_search(self, simulation):
        # a budget no search can meet: honoured only when the loop runs
        # the configured optimizer rather than a copy of its steps
        simulation = RecurringSimulation(
            simulation.make_catalog, simulation.make_queries,
            simulation.config.replace(time_budget=1e-9),
        )
        with pytest.raises(OptimizationTimeout):
            simulation.run(1, {qid: 0.5 for qid in range(len(NAMES))})
