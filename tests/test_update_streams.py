"""Tests for update/delete churn on base-table streams (section 2.3)."""

import random
from fractions import Fraction

import pytest

from repro.engine.executor import PlanExecutor
from repro.engine.stream import TableStream
from repro.errors import SchemaError
from repro.logical.builder import PlanBuilder
from repro.mqo.merge import MQOOptimizer, build_unshared_plan
from repro.relational.expressions import agg_max, col
from repro.relational.schema import Schema, INT, FLOAT
from repro.relational.table import Catalog, Table
from repro.relational.tuples import DELETE, INSERT
from repro.workloads.tpch import (
    add_lineitem_updates,
    build_workload,
    generate_catalog,
)

from .util import assert_plan_correct, batch_reference


class TestTableChurn:
    def _table(self):
        table = Table("t", Schema.of(("k", INT), ("v", FLOAT)))
        table.extend([(1, 1.0), (2, 2.0), (3, 3.0)])
        return table

    def test_default_log_is_pure_inserts(self):
        table = self._table()
        log = table.delta_log()
        assert [sign for _, sign in log] == [INSERT] * 3
        assert table.log_length() == 3
        assert table.delete_count() == 0

    def test_apply_updates_appends_delete_insert_pair(self):
        table = self._table()
        table.apply_updates([((2, 2.0), (2, 20.0))])
        log = table.delta_log()
        assert table.log_length() == 5
        assert table.delete_count() == 1
        assert log[-2] == ((2, 2.0), DELETE)
        assert log[-1] == ((2, 20.0), INSERT)

    def test_apply_updates_randomized_position_after_arrival(self):
        table = self._table()
        table.apply_updates([((1, 1.0), (1, 10.0))], rng=random.Random(3))
        log = table.delta_log()
        arrival = log.index(((1, 1.0), INSERT))
        delete_pos = log.index(((1, 1.0), DELETE))
        assert delete_pos > arrival
        assert log[delete_pos + 1] == ((1, 10.0), INSERT)

    def test_update_of_missing_row_rejected(self):
        table = self._table()
        with pytest.raises(SchemaError, match="not found"):
            table.apply_updates([((9, 9.0), (9, 90.0))])

    def test_stream_replays_churn_log(self):
        table = self._table()
        table.apply_updates([((2, 2.0), (2, 20.0))])
        stream = TableStream(table)
        deltas = stream.deltas_until(Fraction(1))
        assert len(deltas) == 5
        assert sum(1 for d in deltas if d.sign == DELETE) == 1


def quadratic_apply_updates(rows, updates, rng=None):
    """The log ``Table.apply_updates`` built by scanning it for every
    update: the oracle its gap-indexed construction must reproduce."""
    log = [(row, INSERT) for row in rows]
    for old_row, new_row in updates:
        arrival = None
        for position, (row, sign) in enumerate(log):
            if sign == INSERT and row == old_row:
                arrival = position
                break
        if arrival is None:
            raise SchemaError("update target %r not found" % (old_row,))
        if rng is not None:
            position = rng.randint(arrival + 1, len(log))
        else:
            position = len(log)
        log.insert(position, (old_row, DELETE))
        log.insert(position + 1, (tuple(new_row), INSERT))
    return log


class TestApplyUpdatesAgainstTheScan:
    @pytest.mark.parametrize("seed", [5, 6, 11, 17])
    @pytest.mark.parametrize("fraction", [0.01, 0.25, 1.0])
    def test_lineitem_churn_is_identical(self, seed, fraction):
        lineitem = generate_catalog(scale=0.05, seed=seed).get("lineitem")
        rows = list(lineitem.rows)
        count = max(1, int(len(rows) * fraction))
        updates = [(row, row[::-1])
                   for row in random.Random(seed).sample(rows, count)]
        ours, theirs = random.Random(seed), random.Random(seed)
        lineitem.apply_updates(updates, ours)
        assert lineitem.churn == quadratic_apply_updates(rows, updates, theirs)
        assert ours.getstate() == theirs.getstate()  # the same draws

    @pytest.mark.parametrize("seed", range(12))
    def test_repeated_and_duplicate_targets(self, seed):
        """Rows that repeat, updates of updated rows and of rows an
        update inserted: the first insertion in the log so far wins."""
        rng = random.Random(seed)
        rows = [(rng.randint(0, 4), 0.0) for _ in range(rng.randint(1, 30))]
        updates = []
        live = list(rows)
        for _ in range(rng.randint(1, 40)):
            old = rng.choice(live)
            new = (old[0], float(rng.randint(0, 3)))
            updates.append((old, new))
            live.append(new)
        for draws in (None, random.Random(seed)):
            table = Table("t", Schema.of(("k", INT), ("v", FLOAT)), rows)
            oracle_rng = random.Random(seed) if draws is not None else None
            table.apply_updates(updates, draws)
            assert table.churn == quadratic_apply_updates(
                rows, updates, oracle_rng)

    def test_missing_target_after_updates_rejected(self):
        table = Table("t", Schema.of(("k", INT), ("v", FLOAT)),
                      [(1, 1.0), (2, 2.0)])
        with pytest.raises(SchemaError, match="not found"):
            table.apply_updates(
                [((1, 1.0), (1, 5.0)), ((1, 5.0), (1, 6.0)), ((3, 3.0), (3, 0.0))],
                random.Random(1))
        assert table.churn is None


class TestChurnExecution:
    @pytest.fixture(scope="class")
    def churn_catalog(self):
        catalog = generate_catalog(scale=0.15, seed=6)
        return add_lineitem_updates(catalog, fraction=0.08, seed=2)

    def test_batch_results_reflect_updates(self, churn_catalog):
        clean = generate_catalog(scale=0.15, seed=6)
        queries_clean = build_workload(clean, ("Q1",))
        queries_churn = build_workload(churn_catalog, ("Q1",))
        clean_ref = batch_reference(clean, queries_clean)
        churn_ref = batch_reference(churn_catalog, queries_churn)
        assert clean_ref[0] != churn_ref[0]

    @pytest.mark.parametrize("pace", [1, 3, 7])
    def test_incremental_equals_batch_with_churn_unshared(self, churn_catalog, pace):
        queries = build_workload(churn_catalog, ("Q1", "Q6", "Q18"))
        reference = batch_reference(churn_catalog, queries)
        plan = build_unshared_plan(churn_catalog, queries)
        assert_plan_correct(
            plan, queries, reference,
            paces={s.sid: pace for s in plan.subplans},
        )

    @pytest.mark.parametrize("pace", [1, 5])
    def test_incremental_equals_batch_with_churn_shared(self, churn_catalog, pace):
        queries = build_workload(churn_catalog, ("Q3", "Q5", "Q10"))
        reference = batch_reference(churn_catalog, queries)
        plan = MQOOptimizer(churn_catalog).build_shared_plan(queries)
        assert_plan_correct(
            plan, queries, reference,
            paces={s.sid: pace for s in plan.subplans},
        )

    def test_q15_with_churn_exercises_rescans(self, churn_catalog):
        queries = build_workload(churn_catalog, ("Q15",))
        plan = build_unshared_plan(churn_catalog, queries)
        reference = batch_reference(churn_catalog, queries)
        run = assert_plan_correct(
            plan, queries, reference, paces={0: 10}
        )
        assert run.total_work > 0

    def test_q15_churn_charges_rescan_units(self, churn_catalog):
        # the section 5.3 effect must show up in the work meter itself:
        # deleting the extremum rescans the group's stored value multiset
        queries = build_workload(churn_catalog, ("Q15",))
        plan = build_unshared_plan(churn_catalog, queries)
        executor = PlanExecutor(plan)
        executor.run({0: 10}, collect_results=False)
        rescans = sum(
            unit.meter.rescan_units for unit in executor.compiled.values()
        )
        assert rescans > 0

    def test_cost_model_sees_table_deletes(self, churn_catalog):
        from repro.cost.memo import PlanCostModel
        from repro.engine.calibrate import calibrate_plan

        queries = build_workload(churn_catalog, ("Q1",))
        plan = build_unshared_plan(churn_catalog, queries)
        calibrate_plan(plan)
        model = PlanCostModel(plan)
        profile = model.table_stat("lineitem")
        assert profile.stat.deletes > 0
        assert profile.stat.total == churn_catalog.get("lineitem").log_length()


class TestMinMaxRescanUnderUpdates:
    """Rescan charging through a real aggregate fed an update stream."""

    def _run_max_stream(self, rows, updates):
        catalog = Catalog()
        table = catalog.create("t", Schema.of(("k", INT), ("v", FLOAT)))
        table.extend(rows)
        table.apply_updates(updates)
        builder = PlanBuilder.scan(catalog, "t").aggregate(
            ["k"], [agg_max(col("v"), "hi")]
        )
        queries = [builder.as_query(0, "max_q")]
        plan = build_unshared_plan(catalog, queries)
        executor = PlanExecutor(plan)
        run = executor.run({0: 1})
        rescans = sum(
            unit.meter.rescan_units for unit in executor.compiled.values()
        )
        return run, rescans

    def test_extremum_update_rescans_full_multiset(self):
        rows = [(1, float(v)) for v in range(1, 6)]  # multiset {1..5}
        run, rescans = self._run_max_stream(rows, [((1, 5.0), (1, 0.5))])
        # deleting 5.0 leaves 4 stored values to rescan; re-inserting 0.5
        # then makes it 5 values with max 4.0
        assert rescans == 4
        assert run.query_results[0] == {(1, 4.0): 1}

    def test_duplicate_extremum_update_does_not_rescan(self):
        rows = [(1, 5.0), (1, 5.0), (1, 3.0)]
        run, rescans = self._run_max_stream(rows, [((1, 5.0), (1, 1.0))])
        assert rescans == 0  # another copy of 5.0 still stored
        assert run.query_results[0] == {(1, 5.0): 1}

    def test_non_extremum_update_does_not_rescan(self):
        rows = [(1, float(v)) for v in range(1, 6)]
        run, rescans = self._run_max_stream(rows, [((1, 2.0), (1, 2.5))])
        assert rescans == 0
        assert run.query_results[0] == {(1, 5.0): 1}


class TestAvgStateChurn:
    """Regression: AVG must not accumulate float drift under churn."""

    def _meter(self):
        from repro.physical.work import WorkMeter

        return WorkMeter()

    def test_full_cancellation_returns_exact_zero_state(self):
        from repro.physical.operators import _AvgState

        state = _AvgState()
        meter = self._meter()
        values = [0.1 * i for i in range(1, 401)]
        for value in values:
            state.update(value, INSERT, meter, "avg")
        for value in values:
            state.update(value, DELETE, meter, "avg")
        # the old running float total kept ~1e-12 of residue here; the
        # compensated accumulator must land on exactly zero
        assert state.count == 0
        assert state.total == 0
        assert state.current() is None

    def test_delete_heavy_churn_matches_exact_fraction_average(self):
        from fractions import Fraction

        from repro.physical.operators import _AvgState

        state = _AvgState()
        meter = self._meter()
        rng = random.Random(17)
        live = []
        exact = []
        for _ in range(3000):
            if live and rng.random() < 0.49:
                value = live.pop(rng.randrange(len(live)))
                exact.remove(value)
                state.update(value, DELETE, meter, "avg")
            else:
                value = rng.random() * 10.0 - 5.0
                live.append(value)
                exact.append(value)
                state.update(value, INSERT, meter, "avg")
        expected = float(
            sum(Fraction(v) for v in exact) / len(exact)
        )
        assert state.count == len(exact)
        assert state.current() == pytest.approx(expected, abs=1e-12, rel=1e-12)

    def test_int_inputs_stay_exact_ints(self):
        from repro.physical.operators import _AvgState

        state = _AvgState()
        meter = self._meter()
        for value in (10**15, 7, -(10**15)):
            state.update(value, INSERT, meter, "avg")
        state.update(7, DELETE, meter, "avg")
        assert state.total == 0 and isinstance(state.total, int)
        assert state.count == 2

    def test_avg_query_correct_under_churn(self):
        catalog = generate_catalog(scale=0.12, seed=21)
        add_lineitem_updates(catalog, fraction=0.2, seed=4)
        queries = build_workload(catalog, ("Q1",))  # Q1 carries three AVGs
        reference = batch_reference(catalog, queries)
        plan = build_unshared_plan(catalog, queries)
        assert_plan_correct(
            plan, queries, reference,
            paces={s.sid: 5 for s in plan.subplans},
        )
