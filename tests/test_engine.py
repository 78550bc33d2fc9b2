"""Tests for buffers, streams, the executor and run metrics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.buffers import Buffer
from repro.engine.compare import assert_results_close, normalize_rows, results_close
from repro.engine.executor import PlanExecutor, query_result_view
from repro.engine.metrics import (
    ZERO_GOAL_RELATIVE_MISS,
    MissedLatencySummary,
    missed_latency,
)
from repro.engine.stream import StreamConfig, TableStream, execution_fractions
from repro.errors import ExecutionError
from repro.mqo.merge import MQOOptimizer, build_blocking_cut_plan, build_unshared_plan
from repro.relational.tuples import Delta, INSERT

from .util import assert_plan_correct, make_toy_catalog


def _entries(reader):
    return [delta for segment in reader.read_new() for delta in segment]


class TestBuffer:
    def test_reader_sees_only_new(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append([Delta((1,), INSERT, 1)])
        assert len(_entries(reader)) == 1
        assert reader.read_new() == []
        buffer.append([Delta((2,), INSERT, 1), Delta((3,), INSERT, 1)])
        assert [d.row for d in _entries(reader)] == [(2,), (3,)]

    def test_independent_readers(self):
        buffer = Buffer("b")
        early = buffer.reader()
        buffer.append([Delta((1,), INSERT, 1)])
        assert len(_entries(early)) == 1
        late = buffer.reader()  # nothing was dropped yet: it sees it all
        assert len(_entries(late)) == 1
        assert early.offset == late.offset == buffer.end()


class TestStream:
    def test_execution_fractions(self):
        assert execution_fractions(1) == [Fraction(1)]
        assert execution_fractions(4) == [
            Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
        ]

    def test_pace_must_be_positive(self):
        with pytest.raises(ValueError):
            execution_fractions(0)

    def test_table_stream_delivers_prefixes(self, toy_catalog):
        stream = TableStream(toy_catalog.get("items"))
        total = stream.total_rows()
        first = stream.deltas_until(Fraction(1, 2))
        assert len(first) == total // 2
        rest = stream.deltas_until(Fraction(1))
        assert len(first) + len(rest) == total
        assert stream.deltas_until(Fraction(1)) == []

    def test_stream_config_seconds(self):
        config = StreamConfig(work_rate=100.0)
        assert config.seconds(250.0) == 2.5


class TestExecutorCorrectness:
    """Incremental execution at any pace must match batch results."""

    @pytest.mark.parametrize("pace", [1, 2, 3, 5, 8, 13])
    def test_unshared_plan_all_paces(self, toy_catalog, toy_queries, toy_reference, pace):
        plan = build_unshared_plan(toy_catalog, toy_queries)
        assert_plan_correct(
            plan, toy_queries, toy_reference,
            paces={s.sid: pace for s in plan.subplans},
        )

    @pytest.mark.parametrize("pace", [1, 2, 5, 9])
    def test_shared_plan_all_paces(self, toy_catalog, toy_queries, toy_reference, pace):
        plan = MQOOptimizer(toy_catalog).build_shared_plan(toy_queries)
        assert_plan_correct(
            plan, toy_queries, toy_reference,
            paces={s.sid: pace for s in plan.subplans},
        )

    @pytest.mark.parametrize("pace", [1, 4, 7])
    def test_blocking_cut_plan_all_paces(self, toy_catalog, toy_queries, toy_reference, pace):
        plan = build_blocking_cut_plan(toy_catalog, toy_queries)
        assert_plan_correct(
            plan, toy_queries, toy_reference,
            paces={s.sid: pace for s in plan.subplans},
        )

    def test_nonuniform_paces_parent_lazier(self, toy_catalog, toy_queries, toy_reference):
        plan = MQOOptimizer(toy_catalog).build_shared_plan(toy_queries)
        paces = {}
        for subplan in plan.topological_order():
            children = subplan.child_subplans()
            paces[subplan.sid] = 12 if not children else min(
                paces[c.sid] for c in children
            ) // 2 or 1
        assert_plan_correct(plan, toy_queries, toy_reference, paces=paces)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_randomized_paces_property(self, toy_catalog, toy_queries, toy_reference, seed):
        import random

        rng = random.Random(seed)
        plan = MQOOptimizer(toy_catalog).build_shared_plan(toy_queries)
        paces = {}
        for subplan in plan.topological_order():
            children = subplan.child_subplans()
            upper = min((paces[c.sid] for c in children), default=10)
            paces[subplan.sid] = rng.randint(1, max(upper, 1))
        assert_plan_correct(plan, toy_queries, toy_reference, paces=paces)


class TestExecutorMechanics:
    def test_rejects_missing_pace(self, toy_catalog, toy_queries):
        plan = build_unshared_plan(toy_catalog, toy_queries)
        executor = PlanExecutor(plan)
        with pytest.raises(ExecutionError, match="no pace"):
            executor.run({})

    def test_rejects_parent_eagerer_than_child(self, toy_catalog):
        from .util import toy_query_max

        query = toy_query_max(toy_catalog, 0)
        plan = build_blocking_cut_plan(toy_catalog, [query])
        executor = PlanExecutor(plan)
        root = plan.query_roots[0]
        child = root.child_subplans()[0]
        with pytest.raises(ExecutionError, match="pace"):
            executor.run({root.sid: 4, child.sid: 2})

    def test_total_work_is_sum_of_records(self, toy_catalog, toy_queries):
        plan = build_unshared_plan(toy_catalog, toy_queries)
        run = PlanExecutor(plan).run(
            {s.sid: 3 for s in plan.subplans}, collect_results=False
        )
        # integer quanta: the records sum to the total exactly
        assert run.total_quanta == sum(record.work for record in run.records)
        assert run.total_work == run.total_quanta / run.quantum
        assert len(run.records) == 3 * len(plan.subplans)

    def test_final_work_is_last_execution(self, toy_catalog, toy_queries):
        plan = build_unshared_plan(toy_catalog, toy_queries)
        run = PlanExecutor(plan).run(
            {s.sid: 4 for s in plan.subplans}, collect_results=False
        )
        for subplan in plan.subplans:
            finals = [
                r for r in run.executions_of(subplan.sid) if r.fraction == Fraction(1)
            ]
            assert len(finals) == 1
            assert run.subplan_final_quanta[subplan.sid] == finals[0].latency_work

    def test_eager_execution_costs_more_total(self, toy_catalog, toy_queries):
        plan = build_unshared_plan(toy_catalog, toy_queries)
        executor = PlanExecutor(plan)
        lazy = executor.run({s.sid: 1 for s in plan.subplans}, collect_results=False)
        eager = executor.run({s.sid: 16 for s in plan.subplans}, collect_results=False)
        assert eager.total_work > lazy.total_work

    def test_eager_execution_cuts_final_work(self, toy_catalog, toy_queries):
        plan = build_unshared_plan(toy_catalog, toy_queries)
        executor = PlanExecutor(plan)
        lazy = executor.run({s.sid: 1 for s in plan.subplans}, collect_results=False)
        eager = executor.run({s.sid: 16 for s in plan.subplans}, collect_results=False)
        # queries 0/1 are scan/join/agg pipelines: eagerness reduces their
        # final work; query 2 (MAX over SUM) is the non-incrementable one
        for qid in (0, 1):
            assert eager.query_final_work[qid] < lazy.query_final_work[qid]

    def test_latency_seconds_conversion(self, toy_catalog, toy_queries):
        config = StreamConfig(work_rate=1000.0)
        plan = build_unshared_plan(toy_catalog, toy_queries)
        run = PlanExecutor(plan, config).run(
            {s.sid: 1 for s in plan.subplans}, collect_results=False
        )
        qid = toy_queries[0].query_id
        assert run.query_latency_seconds(qid) == pytest.approx(
            run.query_final_work[qid] / 1000.0
        )


class TestQueryResultView:
    def test_projects_to_query_columns(self, toy_catalog, toy_queries):
        plan = MQOOptimizer(toy_catalog).build_shared_plan(toy_queries)
        run = PlanExecutor(plan).run({s.sid: 1 for s in plan.subplans})
        for query in toy_queries:
            rows = run.query_results[query.query_id]
            width = len(query.root.schema)
            assert all(len(row) == width for row in rows)


class TestMissedLatency:
    def test_missed_latency_basic(self):
        absolute, relative = missed_latency(12.0, 10.0)
        assert absolute == pytest.approx(2.0)
        assert relative == pytest.approx(0.2)

    def test_no_miss_clamps_to_zero(self):
        assert missed_latency(5.0, 10.0) == (0.0, 0.0)

    def test_zero_goal_with_positive_latency_is_fully_missed(self):
        # regression: this used to report relative 0.0 -- a "perfect"
        # score for a goal that was missed by an unbounded factor
        absolute, relative = missed_latency(5.0, 0.0)
        assert absolute == 5.0
        assert relative == ZERO_GOAL_RELATIVE_MISS

    def test_zero_goal_met_exactly_is_zero_miss(self):
        assert missed_latency(0.0, 0.0) == (0.0, 0.0)

    def test_zero_goal_miss_dominates_summary_maximum(self):
        summary = MissedLatencySummary()
        summary.add(12.0, 10.0)
        summary.add(5.0, 0.0)
        _, _, max_pct, max_sec = summary.row()
        assert max_pct == pytest.approx(ZERO_GOAL_RELATIVE_MISS * 100.0)
        assert max_sec == pytest.approx(5.0)

    def test_summary_rows(self):
        summary = MissedLatencySummary()
        summary.add(12.0, 10.0)
        summary.add(8.0, 10.0)
        mean_pct, mean_sec, max_pct, max_sec = summary.row()
        assert mean_sec == pytest.approx(1.0)
        assert max_sec == pytest.approx(2.0)
        assert mean_pct == pytest.approx(10.0)
        assert max_pct == pytest.approx(20.0)

    def test_empty_summary_is_zero(self):
        assert MissedLatencySummary().row() == (0.0, 0.0, 0.0, 0.0)


class TestResultComparison:
    def test_normalize_rounds_floats(self):
        a = {(1, 2.00000001): 1}
        b = {(1, 2.0): 1}
        assert normalize_rows(a) == normalize_rows(b)

    def test_results_close_detects_real_differences(self):
        assert not results_close({(1,): 1}, {(2,): 1})
        assert not results_close({(1,): 1}, {(1,): 2})

    def test_assert_results_close_message(self):
        with pytest.raises(AssertionError, match="only-left"):
            assert_results_close({(1,): 1}, {(2,): 1}, context="demo")

    def test_one_ulp_across_rounding_boundary_is_close(self):
        # 5e-05 rounds to 0.0001 at 4 digits while its 1-ulp lower
        # neighbor rounds to 0.0 -- the old round()-bucketed comparison
        # called these unequal
        import math

        x = 5e-05
        y = math.nextafter(x, 0.0)
        assert round(x, 4) != round(y, 4)  # the boundary the bug needs
        assert normalize_rows({("g", x): 1}) != normalize_rows({("g", y): 1})
        assert results_close({("g", x): 1}, {("g", y): 1})
        assert_results_close({("g", x): 1}, {("g", y): 1})

    def test_negative_zero_matches_positive_zero(self):
        assert results_close({(-0.0,): 1}, {(0.0,): 1})
        assert_results_close({("a", -0.0): 2}, {("a", 0.0): 2})

    def test_count_split_across_ulp_neighbors(self):
        # batch may net {v: 2} where incremental nets two rows one ulp
        # apart; tolerance matching must pair them up
        import math

        v = 123.456
        w = math.nextafter(v, 1000.0)
        assert results_close({(v,): 2}, {(v,): 1, (w,): 1})

    def test_relative_tolerance_scales_with_magnitude(self):
        big = 1.0e9
        assert results_close({(big,): 1}, {(big * (1 + 1e-9),): 1})
        assert not results_close({(big,): 1}, {(big * 1.01,): 1})

    def test_int_components_compare_exactly(self):
        # int results (counts, int sums) are exact on every path; a
        # one-off large count must not slip through the relative tolerance
        assert not results_close({(10_000_000,): 1}, {(10_000_001,): 1})

    def test_sign_mismatch_is_not_close(self):
        assert not results_close({(1.0,): 1}, {(1.0,): -1})

    def test_nan_matches_only_nan(self):
        nan = float("nan")
        assert results_close({(nan,): 1}, {(nan,): 1})
        assert not results_close({(nan,): 1}, {(0.0,): 1})
