"""End-to-end tests of the four optimizers on a small workload."""

import pytest

from repro.core.optimizer import (
    OptimizerConfig,
    optimize_ishare,
    optimize_noshare_nonuniform,
    optimize_noshare_uniform,
    optimize_share_uniform,
    reference_absolute_constraints,
)
from repro.core.pace import validate_parent_child
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig

from .util import (
    assert_plan_correct,
    batch_reference,
    make_toy_catalog,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)

ALL_OPTIMIZERS = [
    optimize_noshare_uniform,
    optimize_noshare_nonuniform,
    optimize_share_uniform,
    optimize_ishare,
]


@pytest.fixture(scope="module")
def workload():
    catalog = make_toy_catalog(seed=31)
    queries = [
        toy_query_total(catalog, 0),
        toy_query_region(catalog, 1),
        toy_query_max(catalog, 2),
    ]
    reference = batch_reference(catalog, queries)
    config = OptimizerConfig(max_pace=24, stream_config=StreamConfig())
    relative = {0: 1.0, 1: 0.2, 2: 0.5}
    constraints = reference_absolute_constraints(
        catalog, queries, relative, config
    )
    return catalog, queries, reference, config, relative, constraints


class TestOptimizersEndToEnd:
    @pytest.mark.parametrize("optimize", ALL_OPTIMIZERS)
    def test_results_correct_under_found_paces(self, workload, optimize):
        catalog, queries, reference, config, relative, constraints = workload
        result = optimize(catalog, queries, relative, config,
                          absolute_constraints=constraints)
        assert_plan_correct(
            result.plan, queries, reference, paces=result.pace_config,
            stream_config=config.stream_config,
        )

    @pytest.mark.parametrize("optimize", ALL_OPTIMIZERS)
    def test_pace_configs_are_legal(self, workload, optimize):
        catalog, queries, reference, config, relative, constraints = workload
        result = optimize(catalog, queries, relative, config,
                          absolute_constraints=constraints)
        validate_parent_child(result.plan, result.pace_config)
        assert all(
            1 <= pace <= config.max_pace for pace in result.pace_config.values()
        )

    @pytest.mark.parametrize("optimize", ALL_OPTIMIZERS)
    def test_estimates_track_measurements(self, workload, optimize):
        catalog, queries, reference, config, relative, constraints = workload
        result = optimize(catalog, queries, relative, config,
                          absolute_constraints=constraints)
        run = PlanExecutor(result.plan, config.stream_config).run(
            result.pace_config, collect_results=False
        )
        assert result.evaluation.total_work == pytest.approx(
            run.total_work, rel=0.35
        )

    def test_ishare_no_worse_than_share_uniform(self, workload):
        catalog, queries, reference, config, relative, constraints = workload
        share = optimize_share_uniform(catalog, queries, relative, config,
                                       absolute_constraints=constraints)
        ishare = optimize_ishare(catalog, queries, relative, config,
                                 absolute_constraints=constraints)
        share_run = PlanExecutor(share.plan, config.stream_config).run(
            share.pace_config, collect_results=False
        )
        ishare_run = PlanExecutor(ishare.plan, config.stream_config).run(
            ishare.pace_config, collect_results=False
        )
        assert ishare_run.total_work <= share_run.total_work * 1.02

    def test_share_uniform_single_pace_per_component(self, workload):
        catalog, queries, reference, config, relative, constraints = workload
        result = optimize_share_uniform(catalog, queries, relative, config,
                                        absolute_constraints=constraints)
        components = result.plan.connected_components()
        for component in components:
            mask = 0
            for qid in component:
                mask |= 1 << qid
            paces = {
                result.pace_config[s.sid]
                for s in result.plan.subplans
                if s.query_mask & mask
            }
            assert len(paces) == 1

    def test_noshare_uniform_single_pace_per_query(self, workload):
        catalog, queries, reference, config, relative, constraints = workload
        result = optimize_noshare_uniform(catalog, queries, relative, config,
                                          absolute_constraints=constraints)
        assert len(result.plan.subplans) == len(queries)

    def test_disabling_unshare_skips_actions(self, workload):
        catalog, queries, reference, config, relative, constraints = workload
        no_unshare = OptimizerConfig(
            max_pace=config.max_pace, stream_config=config.stream_config,
            enable_unshare=False,
        )
        result = optimize_ishare(catalog, queries, relative, no_unshare,
                                 absolute_constraints=constraints)
        assert result.approach == "iShare (w/o unshare)"
        assert result.diagnostics["actions"] == []

    def test_ishare_names_its_unmet_queries(self, workload):
        catalog, queries, reference, config, relative, constraints = workload
        result = optimize_ishare(catalog, queries, relative, config,
                                 absolute_constraints=constraints)
        final = result.evaluation.query_final_work
        assert result.diagnostics["unmet"] == {
            qid: {"estimated": final[qid], "bound": bound}
            for qid, bound in constraints.items() if final[qid] > bound
        }
        # a bound no pace can meet: query 1 is named, with the estimate
        # of the plan the optimizer returned
        tight = dict(constraints)
        tight[1] = 1.0
        result = optimize_ishare(catalog, queries, relative, config,
                                 absolute_constraints=tight)
        assert result.diagnostics["met"] is False
        unmet = result.diagnostics["unmet"]
        assert unmet[1] == {
            "estimated": result.evaluation.query_final_work[1], "bound": 1.0}
        assert unmet[1]["estimated"] > 1.0
        assert all(
            result.evaluation.query_final_work[qid] <= bound
            for qid, bound in tight.items() if qid not in unmet
        )

    def test_constraints_resolved_internally_when_not_given(self, workload):
        catalog, queries, reference, config, relative, constraints = workload
        result = optimize_noshare_uniform(catalog, queries, relative, config)
        assert result.absolute_constraints
        for qid in relative:
            assert result.absolute_constraints[qid] > 0

    def test_optimization_time_recorded(self, workload):
        catalog, queries, reference, config, relative, constraints = workload
        result = optimize_ishare(catalog, queries, relative, config,
                                 absolute_constraints=constraints)
        assert result.optimization_seconds >= 0.0
        assert "iterations" in result.diagnostics
