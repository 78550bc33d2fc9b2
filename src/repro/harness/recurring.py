"""Recurring execution across trigger windows (the paper's deployment).

The paper's setting is *scheduled* queries: the same batch re-runs over
every trigger window (e.g. each day's load), and the optimizer works from
history — statistics calibrated on previous windows (section 2.1, and
section 3.2's "calibrate ... based on previous query executions").

:class:`RecurringSimulation` replays that loop: for each day it

1. builds the shared plan and calibrates it on *yesterday's* data,
2. runs the iShare pace search (+ decomposition),
3. executes the plan against *today's* data and measures total work and
   missed latencies against goals derived from yesterday's batch run.
"""

from ..core.optimizer import optimize_ishare
from ..core.pace import uniform_configuration
from ..errors import OptimizationError
from ..engine.executor import PlanExecutor
from ..engine.metrics import MissedLatencySummary
from ..obs.slack import SlackLedger
from .runner import ExperimentRunner


class DayOutcome:
    """What one trigger window produced."""

    __slots__ = ("day", "total_work", "missed", "pace_config", "actions",
                 "slack")

    def __init__(self, day, total_work, missed, pace_config, actions,
                 slack=None):
        self.day = day
        self.total_work = total_work
        self.missed = missed
        self.pace_config = pace_config
        self.actions = actions
        #: {qid: slack-ledger entry} -- per-query deadline headroom and
        #: deferral against the eagerest plan
        self.slack = slack or {}

    def __repr__(self):
        return "DayOutcome(day=%d, work=%.0f, missed mean %.1f%%)" % (
            self.day,
            self.total_work,
            self.missed.mean_percent,
        )


class RecurringSimulation:
    """Replays the scheduled-query loop over successive data windows.

    Parameters
    ----------
    make_catalog:
        ``day -> Catalog`` factory producing each window's data (same
        schemas, fresh rows; e.g. ``lambda day: generate_catalog(scale,
        seed=day)``).
    make_queries:
        ``catalog -> [Query]`` factory (the recurring query batch).
    config:
        an :class:`~repro.core.optimizer.OptimizerConfig`.
    """

    def __init__(self, make_catalog, make_queries, config):
        self.make_catalog = make_catalog
        self.make_queries = make_queries
        self.config = config

    def run(self, days, relative_constraints):
        """Simulate ``days`` windows; returns a list of :class:`DayOutcome`.

        Day 0 has no history: it calibrates and measures on its own data
        (the bootstrap run every deployment needs once).
        """
        if not isinstance(days, int) or isinstance(days, bool) or days < 1:
            raise OptimizationError(
                "RecurringSimulation.run needs a positive whole number of "
                "days, got %r" % (days,)
            )
        config = self.config
        outcomes = []
        history_catalog = None
        slack_ledger = SlackLedger()
        for day in range(days):
            today = self.make_catalog(day)
            basis = history_catalog if history_catalog is not None else today

            # plan, paces and goals from history: the iShare pipeline on
            # yesterday's statistics, goals from yesterday's batch run
            queries = self.make_queries(basis)
            result = optimize_ishare(
                basis, queries, relative_constraints, config
            )
            goals = ExperimentRunner(basis, queries, config).latency_goals(
                relative_constraints
            )

            # execute against *today's* data
            executor = PlanExecutor(
                result.plan, config.stream_config, catalog=today
            )
            run = executor.run(result.pace_config, collect_results=False)
            missed = MissedLatencySummary()
            for qid, goal in goals.items():
                missed.add(run.query_latency_seconds(qid), goal)

            # slack accounting: headroom against the work bound, deferral
            # against the eagerest (uniform max pace) configuration of
            # the plan that ran, estimated on its model
            eager = result.cost_model.evaluate(
                uniform_configuration(result.plan, config.max_pace)
            )
            slack = slack_ledger.record_window(
                day,
                {
                    qid: {
                        "goal_work": bound,
                        "final_work": run.query_final_work.get(qid, 0.0),
                        "eager_final_work": eager.query_final_work.get(qid),
                    }
                    for qid, bound in result.absolute_constraints.items()
                },
                seconds=config.stream_config.seconds,
            )
            outcomes.append(
                DayOutcome(day, run.total_work, missed,
                           dict(result.pace_config),
                           result.diagnostics["actions"], slack=slack)
            )

            # today's data is tomorrow's history
            history_catalog = today
        return outcomes
