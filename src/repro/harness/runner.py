"""Experiment runner: optimize, execute, measure, compare to goals.

One :class:`ExperimentRunner` wraps a catalog + query batch and runs any
of the section 5.2 approaches end to end:

1. build the reference (unshared, batch) execution once -- it provides
   the measured per-query batch latencies that latency *goals* are
   derived from (section 5.1: goal = relative constraint x batch
   latency), and the estimated solo batch work that absolute final-work
   constraints are derived from;
2. run the approach's optimizer to get a plan + pace configuration;
3. execute the plan with the engine and measure total work / per-query
   latencies;
4. compare against the goals into a missed-latency summary.
"""

import logging

from ..core.optimizer import (
    OptimizerConfig,
    optimize_ishare,
    optimize_noshare_nonuniform,
    optimize_noshare_uniform,
    optimize_share_uniform,
    reference_absolute_constraints,
)
from ..engine.calibrate import calibrate_plan
from ..engine.executor import PlanExecutor
from ..engine.metrics import MissedLatencySummary
from ..mqo.merge import build_unshared_plan
from ..obs import trace

logger = logging.getLogger(__name__)

#: canonical approach names, in the paper's presentation order
APPROACHES = (
    "NoShare-Uniform",
    "NoShare-Nonuniform",
    "Share-Uniform",
    "iShare",
)

#: ablation variants of section 5.4
VARIANTS = (
    "iShare (w/o unshare)",
    "iShare (Brute-Force)",
)

#: approach or variant -> (optimizer, OptimizerConfig overrides)
OPTIMIZERS = {
    "NoShare-Uniform": (optimize_noshare_uniform, {}),
    "NoShare-Nonuniform": (optimize_noshare_nonuniform, {}),
    "Share-Uniform": (optimize_share_uniform, {}),
    "iShare": (optimize_ishare, {}),
    "iShare (w/o unshare)": (optimize_ishare, {"enable_unshare": False}),
    "iShare (Brute-Force)": (optimize_ishare, {"brute_force_split": True}),
}


class ApproachResult:
    """Everything measured for one approach under one constraint set."""

    def __init__(self, name, optimization, run, goals_seconds, missed):
        self.name = name
        self.optimization = optimization
        self.run = run
        self.goals_seconds = goals_seconds
        self.missed = missed

    @property
    def total_seconds(self):
        return self.run.total_seconds

    @property
    def total_work(self):
        return self.run.total_work

    @property
    def optimization_seconds(self):
        return self.optimization.optimization_seconds

    def __repr__(self):
        return "ApproachResult(%s, %.1fs, missed mean %.1f%%)" % (
            self.name,
            self.total_seconds,
            self.missed.mean_percent,
        )


class ExperimentRunner:
    """Runs the paper's approaches over one workload."""

    def __init__(self, catalog, queries, config=None):
        self.catalog = catalog
        self.queries = list(queries)
        self.config = config or OptimizerConfig()
        self._batch_latency = None
        self._constraint_cache = {}

    # -- reference measurements ------------------------------------------------

    def batch_latencies(self):
        """Measured per-query latency of separate one-batch execution."""
        if self._batch_latency is None:
            plan = build_unshared_plan(self.catalog, self.queries)
            calibration = calibrate_plan(plan, self.config.stream_config)
            self._batch_latency = dict(calibration.query_batch_latency)
        return self._batch_latency

    def absolute_constraints(self, relative_constraints):
        """Reference absolute final-work constraints (shared by approaches)."""
        key = tuple(sorted(relative_constraints.items()))
        cached = self._constraint_cache.get(key)
        if cached is None:
            cached = reference_absolute_constraints(
                self.catalog, self.queries, relative_constraints, self.config
            )
            self._constraint_cache[key] = cached
        return cached

    def latency_goals(self, relative_constraints):
        """Per-query latency goals in seconds (section 5.1)."""
        latencies = self.batch_latencies()
        return {
            qid: relative * latencies[qid]
            for qid, relative in relative_constraints.items()
        }

    # -- running an approach -----------------------------------------------------

    def run_approach(self, name, relative_constraints, pace_override=None):
        """Optimize and execute one approach; returns :class:`ApproachResult`.

        ``pace_override`` skips optimization and executes the approach's
        plan shape under the given pace configuration (used by the
        manual-tuning experiment, Figure 13).
        """
        if name not in OPTIMIZERS:
            raise ValueError("unknown approach %r" % (name,))
        optimizer, overrides = OPTIMIZERS[name]
        config = self.config.replace(**overrides) if overrides else self.config
        with trace.span("harness.approach", approach=name):
            absolute = self.absolute_constraints(relative_constraints)
            optimization = optimizer(
                self.catalog, self.queries, relative_constraints, config,
                absolute_constraints=absolute,
            )
            pace_config = dict(pace_override) if pace_override else optimization.pace_config
            executor = PlanExecutor(optimization.plan, self.config.stream_config)
            run = executor.run(pace_config, collect_results=False)
        goals = self.latency_goals(relative_constraints)
        missed = MissedLatencySummary()
        for qid, goal in goals.items():
            missed.add(run.query_latency_seconds(qid), goal)
        result = ApproachResult(name, optimization, run, goals, missed)
        logger.info(
            "%s: measured %.2fs total, missed mean %.1f%% / max %.1f%%",
            name, result.total_seconds,
            missed.mean_percent, missed.max_percent,
        )
        return result

    def run_all(self, relative_constraints, names=APPROACHES, jobs=1):
        """Run several approaches under the same constraints.

        ``jobs>1`` fans the independent approaches out over worker
        processes (:mod:`repro.harness.parallel`); ``jobs=1`` keeps the
        historical serial loop.  Result order always follows ``names``.
        """
        if jobs == 1:
            return [self.run_approach(name, relative_constraints) for name in names]
        from .parallel import ExperimentCell, run_cells

        cells = [ExperimentCell(name, relative_constraints) for name in names]
        return [outcome.result for outcome in run_cells(self, cells, jobs=jobs)]
