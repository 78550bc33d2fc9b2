"""Data-only rebind: a new catalog moves the streams, not the tree.

``PlanExecutor.rebind(catalog=...)`` promises that consecutive trigger
windows over an unchanged plan reuse the compiled operator tree.  Every
test here runs one long-lived executor next to a fresh
``PlanExecutor(plan, catalog=today)`` per window and requires the two to
be indistinguishable, while counting how often the tree was compiled.
"""

import pytest

from repro.core.optimizer import OptimizerConfig
from repro.engine.executor import PlanExecutor
from repro.fuzz.reference import ReferenceExecutor
from repro.relational.schema import STR, Column, Schema
from repro.relational.table import Catalog
from repro.service.core import QueryService

from .util import (
    make_toy_catalog,
    shared_plan_for,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)


def toy_queries(catalog):
    return [
        toy_query_total(catalog, 0),
        toy_query_region(catalog, 1),
        toy_query_max(catalog, 2),
    ]


def mixed_paces(plan):
    return {s.sid: 2 if s.child_subplans() else 6 for s in plan.subplans}


def fingerprint(run):
    """Everything a window reports, exact (floats bit for bit)."""
    return {
        "records": [
            (r.sid, r.fraction, r.work, r.latency_work, r.output_count)
            for r in run.records
        ],
        "total_work": run.total_work,
        "subplan_total_work": run.subplan_total_work,
        "subplan_final_work": run.subplan_final_work,
        "query_final_work": run.query_final_work,
        "arrangement_summary": run.metadata.get("arrangement_summary"),
        "query_results": run.query_results,
    }


@pytest.fixture
def compiles(monkeypatch):
    """``compiles(executor)``: how many operator trees it has compiled."""
    compiled = []
    original = PlanExecutor._compile

    def logging(self):
        compiled.append(self)
        return original(self)

    monkeypatch.setattr(PlanExecutor, "_compile", logging)
    return lambda executor: sum(1 for each in compiled if each is executor)


@pytest.fixture(scope="module")
def days():
    """Three windows of toy data; the plan is built on the first."""
    return [make_toy_catalog(seed=seed) for seed in (13, 14, 15)]


def widened(catalog, name):
    """``catalog`` with one more (trailing) column on table ``name``."""
    wide = Catalog()
    for table in catalog:
        if table.name != name:
            wide.add(table)
            continue
        schema = Schema(table.schema.columns + (Column("note", STR),))
        wide.create(name, schema, [row + ("n",) for row in table.rows])
    return wide


def assert_rebound_windows_match_fresh(plan, catalogs, compiles,
                                      executor_class=PlanExecutor):
    paces = mixed_paces(plan)
    executor = executor_class(plan, catalog=catalogs[0])
    for today in catalogs:
        recompile = executor.rebind(catalog=today)
        assert recompile is False
        kept = fingerprint(executor.run(paces))
        assert compiles(executor) == 1
        fresh = fingerprint(executor_class(plan, catalog=today).run(paces))
        assert kept == fresh, "window over %r" % (today,)
        assert executor.catalog is today


class TestDataOnlyRebind:
    def test_three_catalogs_and_back_reuse_one_tree(self, days, compiles):
        plan = shared_plan_for(days[0], toy_queries(days[0]))
        assert_rebound_windows_match_fresh(
            plan, days + [days[0], days[1]], compiles
        )

    def test_reference_backend(self, days, compiles):
        plan = shared_plan_for(days[0], toy_queries(days[0]))
        assert_rebound_windows_match_fresh(
            plan, days + [days[0]], compiles, ReferenceExecutor
        )

    def test_window_program_survives_a_data_rebind(self, days):
        plan = shared_plan_for(days[0], toy_queries(days[0]))
        executor = PlanExecutor(plan, catalog=days[0])
        executor.run(mixed_paces(plan))
        tree, program = executor._runtime, executor._program
        executor.rebind(catalog=days[1])
        executor.run(mixed_paces(plan))
        assert executor._runtime is tree
        assert executor._program is program

    def test_rebinding_the_same_plan_and_catalog_is_a_no_op(self, days):
        plan = shared_plan_for(days[0], toy_queries(days[0]))
        executor = PlanExecutor(plan, catalog=days[0])
        executor.run(mixed_paces(plan))
        tree = executor._runtime
        assert executor.rebind(plan=plan, catalog=days[0]) is False
        assert executor._runtime is tree


class TestRecompiles:
    def test_a_plan_change_recompiles(self, days, compiles):
        queries = toy_queries(days[0])
        plan = shared_plan_for(days[0], queries)
        other = shared_plan_for(days[0], queries[:2])
        executor = PlanExecutor(plan, catalog=days[0])
        executor.run(mixed_paces(plan))
        assert executor.rebind(plan=other, catalog=days[1]) is True
        assert executor._runtime is None and executor._program is None
        kept = fingerprint(executor.run(mixed_paces(other)))
        assert compiles(executor) == 2
        fresh = PlanExecutor(other, catalog=days[1]).run(mixed_paces(other))
        assert kept == fingerprint(fresh)

    def test_a_schema_mismatch_recompiles(self, days, compiles):
        plan = shared_plan_for(days[0], toy_queries(days[0]))
        paces = mixed_paces(plan)
        wide = widened(days[1], "events")
        executor = PlanExecutor(plan, catalog=days[0])
        executor.run(paces)
        assert executor.rebind(catalog=wide) is True
        kept = fingerprint(executor.run(paces))
        assert compiles(executor) == 2
        assert kept == fingerprint(PlanExecutor(plan, catalog=wide).run(paces))
        # and back to the narrow schema: the streams were built wide
        assert executor.rebind(catalog=days[2]) is True

    def test_a_missing_table_fails_like_a_fresh_executor(self, days):
        plan = shared_plan_for(days[0], toy_queries(days[0]))
        paces = mixed_paces(plan)
        partial = Catalog(t for t in days[1] if t.name != "items")
        executor = PlanExecutor(plan, catalog=days[0])
        executor.run(paces)
        assert executor.rebind(catalog=partial) is True
        errors = []
        for candidate in (executor, PlanExecutor(plan, catalog=partial)):
            with pytest.raises(Exception) as caught:
                candidate.run(paces)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]

    def test_rebind_before_the_first_run_compiles_once(self, days, compiles):
        plan = shared_plan_for(days[0], toy_queries(days[0]))
        executor = PlanExecutor(plan, catalog=days[0])
        assert executor.rebind(catalog=days[1]) is False
        kept = fingerprint(executor.run(mixed_paces(plan)))
        assert compiles(executor) == 1
        fresh = PlanExecutor(plan, catalog=days[1]).run(mixed_paces(plan))
        assert kept == fingerprint(fresh)


class TestServiceWindowsReuseTheTree:
    def service(self):
        return QueryService(
            lambda window: make_toy_catalog(seed=41 + window),
            OptimizerConfig(max_pace=6),
        )

    def test_tree_reuse_counts_steady_windows(self, compiles):
        service = self.service()
        catalog = service.basis_catalog
        service.register(toy_query_total(catalog, 0), "a", 50.0)
        service.run_window()
        executor = service._executor
        assert compiles(executor) == 1
        for _ in range(3):
            service.run_window()
            assert compiles(executor) == 1
        # churn: the re-merged plan is a new plan, so the tree goes
        service.register(toy_query_max(catalog, 1), "b", 50.0)
        service.run_window()
        assert compiles(executor) == 2
        service.run_window()
        assert compiles(executor) == 2
