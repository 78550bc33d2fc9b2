"""End-to-end optimizers: iShare and the section 5.2 baselines.

Every optimizer takes the query batch plus per-query *relative* final-work
constraints, builds its plan shape, calibrates statistics (one batch run,
standing in for the historical statistics of recurring queries), and
searches a pace configuration:

* **NoShare-Uniform** -- each query is one separate subplan with one pace.
* **NoShare-Nonuniform** -- each query cut at blocking operators, one pace
  per part (Tang et al. [44] adapted).
* **Share-Uniform** -- the MQO shared plan, one pace per connected shared
  plan (the whole plan moves to meet its lowest constraint).
* **iShare** -- the MQO shared plan with per-subplan paces (section 3) and
  optional subplan decomposition (section 4).

The approaches differ only in their row of :data:`APPROACH_PLANS` (plan
shape and pace grouping) and in iShare's decomposition step; all run one
body.

For apples-to-apples comparisons all approaches should receive the same
``absolute_constraints`` (computed once from a reference cost model);
otherwise each computes its own from its calibrated statistics.
"""

import logging
import time

from ..cost.memo import PlanCostModel
from ..cost.model import CostConfig
from ..engine.calibrate import calibrate_plan
from ..engine.stream import StreamConfig
from ..mqo.merge import MQOOptimizer, build_blocking_cut_plan, build_unshared_plan
from .decompose import decompose_full_plan
from .greedy import PaceSearch
from .incrementability import unmet_queries

logger = logging.getLogger(__name__)


class OptimizerConfig:
    """Shared knobs of all optimizers."""

    def __init__(self, max_pace=100, stream_config=None, cost_config=None,
                 use_memo=True, enable_unshare=True, brute_force_split=False,
                 time_budget=None, stats_noise_seed=None):
        self.max_pace = max_pace
        self.stream_config = stream_config or StreamConfig()
        self.cost_config = cost_config or CostConfig(
            execution_overhead=self.stream_config.execution_overhead,
            state_factor=self.stream_config.state_factor,
        )
        self.use_memo = use_memo
        self.enable_unshare = enable_unshare
        self.brute_force_split = brute_force_split
        self.time_budget = time_budget
        #: when set, calibrated statistics are perturbed with this seed --
        #: the paper's (omitted) inaccurate-cardinality-estimation test
        self.stats_noise_seed = stats_noise_seed

    def replace(self, **overrides):
        """A copy of this config with ``overrides`` applied.

        Every attribute is carried over verbatim before the overrides, so
        a field added to ``__init__`` is never silently dropped (the
        hazard of hand-copied reconstructions).  Unknown names raise
        :class:`TypeError`.
        """
        unknown = [name for name in overrides if name not in self.__dict__]
        if unknown:
            raise TypeError(
                "unknown OptimizerConfig field(s): %s" % ", ".join(sorted(unknown))
            )
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        clone.__dict__.update(overrides)
        return clone


class OptimizationResult:
    """A chosen plan + pace configuration, with optimizer diagnostics."""

    def __init__(self, approach, plan, pace_config, evaluation, cost_model,
                 absolute_constraints, optimization_seconds, diagnostics=None):
        self.approach = approach
        self.plan = plan
        self.pace_config = pace_config
        self.evaluation = evaluation
        self.cost_model = cost_model
        self.absolute_constraints = absolute_constraints
        self.optimization_seconds = optimization_seconds
        self.diagnostics = diagnostics or {}

    def __repr__(self):
        return "OptimizationResult(%s, est_total=%.1f, opt=%.2fs)" % (
            self.approach,
            self.evaluation.total_work,
            self.optimization_seconds,
        )


def _report(result):
    """Shared logging epilogue of every optimizer."""
    logger.info(
        "%s optimized in %.3fs: est. total work %.1f, %d subplans",
        result.approach, result.optimization_seconds,
        result.evaluation.total_work, len(result.plan.subplans),
    )
    return result


def _prepare(plan, config):
    """Calibrate a plan's statistics and build its cost model."""
    calibrate_plan(plan, config.stream_config)
    if config.stats_noise_seed is not None:
        from ..cost.stats import perturb_stats

        perturb_stats(plan, seed=config.stats_noise_seed)
    return PlanCostModel(
        plan,
        config.cost_config,
        use_memo=config.use_memo,
        time_budget=config.time_budget,
    )


def _resolve_constraints(cost_model, relative_constraints, absolute_constraints):
    if absolute_constraints is not None:
        return dict(absolute_constraints)
    return cost_model.absolute_constraints(relative_constraints)


def reference_absolute_constraints(catalog, queries, relative_constraints, config):
    """Canonical absolute constraints from the unshared plan's estimates.

    The paper defines the relative constraint against "the final work of
    separately executing the query in one batch"; computing it once and
    handing the same absolute numbers to every approach keeps the
    comparison fair.
    """
    plan = build_unshared_plan(catalog, queries)
    cost_model = _prepare(plan, config)
    return cost_model.absolute_constraints(relative_constraints)


def _shared_plan(catalog, queries):
    return MQOOptimizer(catalog).build_shared_plan(queries)


#: the section 5.2 approaches: approach -> (plan builder, whether one pace
#: covers each connected component of the plan rather than each subplan)
APPROACH_PLANS = {
    "NoShare-Uniform": (build_unshared_plan, False),
    "NoShare-Nonuniform": (build_blocking_cut_plan, False),
    "Share-Uniform": (_shared_plan, True),
    "iShare": (_shared_plan, False),
}


def search(cost_model, constraints, max_pace, initial=None, groups=None,
           finish=None):
    """The one pace search of the optimizers and the service: a fresh
    ``time_budget`` deadline, the greedy search from ``initial`` (None:
    batch pace) over ``groups`` (None: one pace per subplan), then
    ``finish(chosen, constraints, diagnostics)`` on the searched ``(plan,
    pace_config, evaluation, cost_model)``, returning the one to keep.
    Returns ``(chosen, diagnostics)``."""
    cost_model.reset_deadline()
    result = PaceSearch(cost_model, constraints, max_pace,
                        groups=groups).find(initial=initial)
    diagnostics = {"iterations": result.iterations, "met": result.met_constraints}
    if groups is not None:
        diagnostics["components"] = len(groups)
    chosen = (cost_model.plan, result.pace_config, result.evaluation, cost_model)
    if finish is not None:
        chosen = finish(chosen, constraints, diagnostics)
    return chosen, diagnostics


def _optimize(approach, catalog, queries, relative_constraints, config,
              absolute_constraints, finish=None, name=None):
    """Build -> prepare -> resolve -> timed :func:`search` -> report: the
    body of every optimizer (``finish`` is iShare's decomposition)."""
    build, by_component = APPROACH_PLANS[approach]
    plan = build(catalog, queries)
    cost_model = _prepare(plan, config)
    constraints = _resolve_constraints(cost_model, relative_constraints,
                                       absolute_constraints)
    groups = _component_groups(plan) if by_component else None
    start = time.monotonic()
    chosen, diagnostics = search(cost_model, constraints, config.max_pace,
                                 groups=groups, finish=finish)
    elapsed = time.monotonic() - start
    return _report(OptimizationResult(
        name or approach, *chosen, constraints, elapsed, diagnostics,
    ))


def optimize_noshare_uniform(catalog, queries, relative_constraints, config,
                             absolute_constraints=None):
    """One subplan per query, one pace per query (section 5.2)."""
    return _optimize("NoShare-Uniform", catalog, queries, relative_constraints,
                     config, absolute_constraints)


def optimize_noshare_nonuniform(catalog, queries, relative_constraints, config,
                                absolute_constraints=None):
    """Per-query subplans at blocking operators, one pace per part."""
    return _optimize("NoShare-Nonuniform", catalog, queries,
                     relative_constraints, config, absolute_constraints)


def optimize_share_uniform(catalog, queries, relative_constraints, config,
                           absolute_constraints=None):
    """The MQO shared plan with a single pace per connected shared plan."""
    return _optimize("Share-Uniform", catalog, queries, relative_constraints,
                     config, absolute_constraints)


def _component_groups(plan):
    """Group subplans by the connected component of their query sets."""
    components = plan.connected_components()
    component_of = {}
    for index, component in enumerate(components):
        for qid in component:
            component_of[qid] = index
    groups = {}
    for subplan in plan.subplans:
        index = component_of[subplan.query_ids()[0]]
        groups.setdefault(index, []).append(subplan.sid)
    return list(groups.values())


def optimize_ishare(catalog, queries, relative_constraints, config,
                    absolute_constraints=None):
    """The full iShare pipeline: nonuniform paces + subplan decomposition."""

    def finish(chosen, constraints, diagnostics):
        plan, pace_config, evaluation, cost_model = chosen
        diagnostics["simulations"] = cost_model.simulation_count
        diagnostics["actions"] = []
        pool = cost_model.memo_pool
        searched = pool.simulations
        if config.enable_unshare:
            outcome = decompose_full_plan(
                plan, pace_config, constraints, config.max_pace,
                cost_config=config.cost_config,
                use_brute_force=config.brute_force_split,
                cost_model=cost_model,
            )
            evaluation = outcome.evaluation
            chosen = (outcome.plan, outcome.pace_config, evaluation,
                      outcome.cost_model)
            diagnostics["actions"] = outcome.actions
        # cost-model simulations the decomposition ran through the search's
        # memo pool, and the lookups a model was served from rows another
        # model of this call wrote (the split optimizer's local simulations
        # are not memo traffic and are not counted)
        diagnostics["decompose_simulations"] = pool.simulations - searched
        diagnostics["memo_pool_hits"] = pool.hits
        # each query the chosen plan is estimated to miss: estimate and bound
        final = evaluation.query_final_work
        diagnostics["unmet"] = {
            qid: {"estimated": final[qid], "bound": constraints[qid]}
            for qid in unmet_queries(evaluation, constraints)
        }
        return chosen

    name = "iShare" if config.enable_unshare else "iShare (w/o unshare)"
    if config.brute_force_split and config.enable_unshare:
        name = "iShare (Brute-Force)"
    return _optimize("iShare", catalog, queries, relative_constraints, config,
                     absolute_constraints, finish=finish, name=name)
