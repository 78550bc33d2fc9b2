"""Calibration cache: hit fidelity, invalidation, end-to-end warm runs."""

import pytest

from repro.core.optimizer import OptimizerConfig
from repro.cost.cache import (
    CalibrationCache,
    calibration_key,
    get_default_cache,
    plan_signature,
    set_default_cache,
)
from repro.engine.calibrate import (
    _replay_cached,
    calibrate_plan,
    calibration_execution_count,
)
from repro.engine.stream import StreamConfig
from repro.harness.runner import ExperimentRunner
from repro.mqo.merge import MQOOptimizer, build_unshared_plan
from repro.workloads.constraints import uniform_constraints

from .util import make_toy_catalog, toy_query_region, toy_query_total

_STAT_FIELDS = (
    "kind", "scanned_total", "kept_total", "kept_per_q", "filter_sel_per_q",
    "in_left", "in_right", "in_left_per_q", "in_right_per_q", "join_out",
    "join_out_per_q", "agg_in", "agg_in_per_q", "groups_union", "groups_per_q",
    "agg_out", "has_minmax",
)


def _build(seed=31):
    catalog = make_toy_catalog(seed=seed)
    queries = [toy_query_total(catalog, 0), toy_query_region(catalog, 1)]
    return catalog, queries


def _shared_plan(catalog, queries):
    return MQOOptimizer(catalog).build_shared_plan(queries)


def _all_stats(plan):
    return [
        node.stats
        for subplan in plan.topological_order()
        for node in subplan.root.walk()
    ]


@pytest.fixture()
def cache(tmp_path):
    return CalibrationCache(str(tmp_path / "calib"))


@pytest.fixture(autouse=True)
def _no_default_cache():
    """Keep the process-wide default cache off for the rest of the suite."""
    previous = get_default_cache()
    set_default_cache(None)
    yield
    set_default_cache(previous)


class TestCacheHitFidelity:
    def test_warm_run_returns_identical_calibration(self, cache):
        catalog, queries = _build()
        plan = _shared_plan(catalog, queries)
        config = StreamConfig()
        cold = calibrate_plan(plan, config, cache=cache)
        assert cache.stores == 1 and cache.hits == 0

        catalog2, queries2 = _build()
        plan2 = _shared_plan(catalog2, queries2)
        before = calibration_execution_count()
        warm = calibrate_plan(plan2, config, cache=cache)
        assert calibration_execution_count() == before  # no recalibration
        assert cache.hits == 1

        assert warm.query_batch_work == cold.query_batch_work
        assert warm.query_batch_latency == cold.query_batch_latency
        assert warm.run.total_work == cold.run.total_work
        assert warm.run.subplan_total_quanta == cold.run.subplan_total_quanta
        for cold_stats, warm_stats in zip(_all_stats(plan), _all_stats(plan2)):
            for field in _STAT_FIELDS:
                assert getattr(cold_stats, field) == getattr(warm_stats, field), field

    def test_unshared_and_shared_plans_key_differently(self, cache):
        catalog, queries = _build()
        shared = _shared_plan(catalog, queries)
        unshared = build_unshared_plan(catalog, queries)
        config = StreamConfig()
        assert calibration_key(shared, config) != calibration_key(unshared, config)

    def test_plan_signature_stable_across_rebuilds(self):
        catalog, queries = _build()
        catalog2, queries2 = _build()
        assert plan_signature(_shared_plan(catalog, queries)) == plan_signature(
            _shared_plan(catalog2, queries2)
        )


class TestCacheInvalidation:
    def test_catalog_content_change_misses(self, cache):
        catalog, queries = _build()
        plan = _shared_plan(catalog, queries)
        config = StreamConfig()
        calibrate_plan(plan, config, cache=cache)

        catalog2, queries2 = _build()
        catalog2.get("events").append((0, 5.0, 1, "buy"))
        plan2 = _shared_plan(catalog2, queries2)
        calibrate_plan(plan2, config, cache=cache)
        assert cache.hits == 0
        assert cache.stores == 2

    def test_query_batch_change_misses(self, cache):
        catalog, queries = _build()
        config = StreamConfig()
        calibrate_plan(_shared_plan(catalog, queries), config, cache=cache)

        catalog2, _ = _build()
        other = [toy_query_total(catalog2, 0)]  # dropped the region query
        calibrate_plan(_shared_plan(catalog2, other), config, cache=cache)
        assert cache.hits == 0

    def test_stream_config_change_misses(self, cache):
        catalog, queries = _build()
        plan = _shared_plan(catalog, queries)
        calibrate_plan(plan, StreamConfig(), cache=cache)
        calibrate_plan(plan, StreamConfig(state_factor=0.7), cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_equal_rationals_share_one_entry(self, cache):
        catalog, queries = _build()
        plan = _shared_plan(catalog, queries)
        calibrate_plan(plan, StreamConfig(state_factor=0.3), cache=cache)
        calibrate_plan(plan, StreamConfig(state_factor="3/10"), cache=cache)
        assert cache.stores == 1 and cache.hits == 1

    @pytest.mark.parametrize("stored", [
        1234.5,  # work units as a float, not integer quanta
        "1234",
        True,
        None,
    ])
    def test_non_integer_work_payload_is_stale(self, cache, stored):
        catalog, queries = _build()
        plan = _shared_plan(catalog, queries)
        config = StreamConfig()
        calibrate_plan(plan, config, cache=cache)
        key = cache.key_for(plan, config)
        payload = cache.get(key)
        assert all(type(q) is int for q in payload["subplan_total_quanta"].values())
        position = next(iter(payload["subplan_total_quanta"]))
        payload["subplan_total_quanta"][position] = stored
        assert _replay_cached(plan, config, payload) is None

    def test_payload_without_quanta_is_stale(self, cache):
        catalog, queries = _build()
        plan = _shared_plan(catalog, queries)
        config = StreamConfig()
        calibrate_plan(plan, config, cache=cache)
        payload = cache.get(cache.key_for(plan, config))
        del payload["subplan_total_quanta"]
        assert _replay_cached(plan, config, payload) is None

    def test_clear_empties_the_store(self, cache):
        catalog, queries = _build()
        plan = _shared_plan(catalog, queries)
        config = StreamConfig()
        calibrate_plan(plan, config, cache=cache)
        cache.clear()
        calibrate_plan(_shared_plan(*_build()), config, cache=cache)
        assert cache.hits == 0


class TestWarmExperimentRuns:
    def test_warm_rerun_performs_no_recalibration(self, cache):
        relative = uniform_constraints(range(2), 0.5)
        config = OptimizerConfig(max_pace=5)
        set_default_cache(cache)

        catalog, queries = _build()
        cold = ExperimentRunner(catalog, queries, config).run_all(relative)

        before = calibration_execution_count()
        catalog2, queries2 = _build()
        warm = ExperimentRunner(catalog2, queries2, config).run_all(relative)
        assert calibration_execution_count() == before
        assert cache.hits > 0

        for cold_result, warm_result in zip(cold, warm):
            assert cold_result.total_work == warm_result.total_work
            assert cold_result.missed.row() == warm_result.missed.row()
            assert cold_result.goals_seconds == warm_result.goals_seconds

    def test_no_cache_still_recalibrates(self):
        relative = uniform_constraints(range(2), 0.5)
        config = OptimizerConfig(max_pace=5)
        catalog, queries = _build()
        before = calibration_execution_count()
        ExperimentRunner(catalog, queries, config).run_all(
            relative, names=("iShare",)
        )
        assert calibration_execution_count() > before
