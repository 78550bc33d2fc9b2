"""Tests for statistics perturbation, window quantization and TPC-H shapes."""

from fractions import Fraction

import pytest

from repro.cost.memo import PlanCostModel
from repro.cost.model import _window_bounds
from repro.cost.stats import perturb_stats
from repro.engine.calibrate import calibrate_plan
from repro.engine.stream import StreamConfig, TableStream
from repro.mqo.canonical import canonicalize
from repro.mqo.merge import MQOOptimizer, build_unshared_plan
from repro.relational.schema import INT, Schema
from repro.workloads.tpch import build_query, generate_catalog

from .util import make_toy_catalog, toy_query_region, toy_query_total


class TestWindowBounds:
    def test_continuous_stream_uniform(self):
        # a grid the pace divides splits the stream as a continuous one would
        assert _window_bounds(1, 4, 8) == (0.0, 0.25)
        assert _window_bounds(4, 4, 8) == (0.75, 1.0)

    def test_quantized_to_producer_grid(self):
        # producer at granularity 3, consumer at pace 2: windows snap to
        # thirds -- [0, 1/3), [1/3, 1]
        t0, t1 = _window_bounds(1, 2, 3)
        assert (t0, t1) == (0.0, pytest.approx(1 / 3))
        t0, t1 = _window_bounds(2, 2, 3)
        assert (t0, t1) == (pytest.approx(1 / 3), 1.0)

    def test_consumer_eagerer_than_producer_gets_empty_gaps(self):
        # producer granularity 2, consumer pace 4: two of the four
        # windows are empty
        widths = [
            _window_bounds(i, 4, 2)[1] - _window_bounds(i, 4, 2)[0]
            for i in range(1, 5)
        ]
        assert widths.count(0.0) == 2
        assert sum(widths) == pytest.approx(1.0)

    def test_windows_partition_unit_interval(self):
        for pace in (1, 3, 7):
            for granularity in (1, 2, 5, 12):
                boundaries = [
                    _window_bounds(i, pace, granularity) for i in range(1, pace + 1)
                ]
                assert boundaries[0][0] == 0.0
                assert boundaries[-1][1] == pytest.approx(1.0)
                for (_, prev_hi), (lo, _) in zip(boundaries, boundaries[1:]):
                    assert prev_hi == pytest.approx(lo)


class TestWholeRowArrivals:
    """Paper section 3.2 splits a subplan's input into one window per
    execution, so the final execution's share decides final work: the
    model prices each base-table window in the whole rows the stream
    delivers, never as a fractional ``n / p``."""

    def test_every_window_holds_the_rows_the_stream_delivers(self):
        # 12 / 61 / 901 rows: prime or coprime to most paces below
        catalog = make_toy_catalog(seed=29, n_items=61, n_events=901)
        items = catalog.get("items")
        items.apply_updates([  # churn: a log of 61 + 2 * 7 records
            (row, (row[0], row[1], row[2] + 1.0)) for row in items.rows[:7]
        ])
        catalog.create("empty", Schema.of(("id", INT)))
        plan = MQOOptimizer(catalog).build_shared_plan(
            [toy_query_total(catalog, 0), toy_query_region(catalog, 1)])
        calibrate_plan(plan)
        model = PlanCostModel(plan)
        lengths = set()
        for name in catalog.names():
            table = catalog.get(name)
            lengths.add(table.log_length())
            profile = model.table_stat(name)
            for pace in range(1, 21):
                stream = TableStream(table)
                for index in range(1, pace + 1):
                    delivered = stream.deltas_until(Fraction(index, pace))
                    assert profile.window(index, pace).total == len(delivered)
        assert lengths == {0, 12, 75, 901}


class TestPerturbStats:
    @pytest.fixture()
    def calibrated_plan(self):
        catalog = make_toy_catalog(seed=71)
        queries = [toy_query_total(catalog, 0), toy_query_region(catalog, 1)]
        plan = MQOOptimizer(catalog).build_shared_plan(queries)
        calibrate_plan(plan)
        return plan

    def test_perturbation_changes_estimates(self, calibrated_plan):
        before = [
            dict(node.stats.filter_sel_per_q)
            for subplan in calibrated_plan.subplans
            for node in subplan.root.walk()
        ]
        perturb_stats(calibrated_plan, seed=3)
        after = [
            dict(node.stats.filter_sel_per_q)
            for subplan in calibrated_plan.subplans
            for node in subplan.root.walk()
        ]
        assert before != after

    def test_selectivities_stay_in_unit_range(self, calibrated_plan):
        perturb_stats(calibrated_plan, seed=3, low=0.1, high=5.0)
        for subplan in calibrated_plan.subplans:
            for node in subplan.root.walk():
                for sel in node.stats.filter_sel_per_q.values():
                    assert 0.0 <= sel <= 1.0

    def test_group_counts_stay_positive_and_bounded(self, calibrated_plan):
        perturb_stats(calibrated_plan, seed=3, low=0.01, high=0.2)
        for subplan in calibrated_plan.subplans:
            for node in subplan.root.walk():
                stats = node.stats
                assert stats.groups_union >= 1.0 or stats.kind != "aggregate"
                for groups in stats.groups_per_q.values():
                    assert 1.0 <= groups <= stats.groups_union

    def test_deterministic_for_a_seed(self):
        def snapshot(seed):
            catalog = make_toy_catalog(seed=71)
            queries = [toy_query_total(catalog, 0)]
            plan = MQOOptimizer(catalog).build_shared_plan(queries)
            calibrate_plan(plan)
            perturb_stats(plan, seed=seed)
            return [
                (node.stats.join_out, node.stats.groups_union)
                for subplan in plan.subplans
                for node in subplan.root.walk()
            ]

        assert snapshot(9) == snapshot(9)
        assert snapshot(9) != snapshot(10)


class TestTpchQueryShapes:
    """Structural expectations on individual TPC-H query plans."""

    @pytest.fixture(scope="class")
    def catalog(self):
        return generate_catalog(scale=0.1, seed=2)

    def test_q15_revenue_view_is_consumed_twice(self, catalog):
        from repro.mqo.nodes import SubplanRef

        query = build_query(catalog, "Q15", 0)
        plan = MQOOptimizer(catalog).build_shared_plan([query])
        # the revenue view materializes once and feeds MAX + the value
        # join -- two source leaves reading the same buffer
        reads = {}
        for subplan in plan.subplans:
            for node in subplan.root.source_nodes():
                if isinstance(node.ref, SubplanRef):
                    sid = node.ref.subplan.sid
                    reads[sid] = reads.get(sid, 0) + 1
        assert max(reads.values(), default=0) >= 2, (
            "Q15's revenue view must be read twice from its buffer"
        )

    def test_q17_scans_lineitem_twice(self, catalog):
        query = build_query(catalog, "Q17", 0)
        node = canonicalize(query.root)
        lineitem_scans = [
            n for n in node.walk() if n.kind == "scan" and n.payload == "lineitem"
        ]
        assert len(lineitem_scans) == 2  # the correlated-subquery self-join

    def test_q13_has_two_level_aggregation(self, catalog):
        query = build_query(catalog, "Q13", 0)
        node = canonicalize(query.root)
        aggs = [n for n in node.walk() if n.kind == "aggregate"]
        assert len(aggs) == 2

    @pytest.mark.parametrize("name,tables", [
        ("Q3", {"customer", "orders", "lineitem"}),
        ("Q5", {"customer", "orders", "lineitem", "supplier", "nation", "region"}),
        ("Q11", {"partsupp", "supplier", "nation"}),
        ("Q14", {"lineitem", "part"}),
    ])
    def test_expected_tables(self, catalog, name, tables):
        query = build_query(catalog, name, 0)
        node = canonicalize(query.root)
        scanned = {n.payload for n in node.walk() if n.kind == "scan"}
        assert scanned == tables


class TestStreamConfigValidation:
    def test_defaults_are_valid(self):
        config = StreamConfig()
        assert config.load_seconds > 0 and config.work_rate > 0

    @pytest.mark.parametrize("kwargs", [
        {"load_seconds": 0.0},
        {"load_seconds": -5.0},
        {"work_rate": 0.0},
        {"work_rate": -1.0},
        {"execution_overhead": -0.1},
        {"state_factor": -0.3},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StreamConfig(**kwargs)

    def test_zero_state_factor_and_overhead_allowed(self):
        config = StreamConfig(execution_overhead=0.0, state_factor=0.0)
        assert config.state_factor == 0.0

    def test_repr_shows_state_factor_and_compaction(self):
        text = repr(StreamConfig(state_factor=0.25, compact_buffers=False))
        assert "state_factor=1/4" in text
        assert "compact_buffers=False" in text
        assert "state_factor=1/3" in repr(StreamConfig(state_factor="1/3"))

    @pytest.mark.parametrize("overhead, factor, exact, quantum", [
        (1.0, 0.3, (Fraction(1), Fraction(3, 10)), 10),
        (2.5, "1/3", (Fraction(5, 2), Fraction(1, 3)), 6),
        ("5/2", "3/10", (Fraction(5, 2), Fraction(3, 10)), 10),
        (0, 0, (Fraction(0), Fraction(0)), 1),
        (Fraction(7, 4), 2, (Fraction(7, 4), Fraction(2)), 4),
    ])
    def test_charges_are_exact_rationals(self, overhead, factor, exact, quantum):
        config = StreamConfig(execution_overhead=overhead, state_factor=factor)
        assert (config.execution_overhead, config.state_factor) == exact
        assert config.quantum == quantum

    @pytest.mark.parametrize("value", ["x", "1/0", float("nan"), "-1/3", None])
    def test_non_rationals_rejected(self, value):
        with pytest.raises(ValueError, match="non-negative rational"):
            StreamConfig(state_factor=value)
