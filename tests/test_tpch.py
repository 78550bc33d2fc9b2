"""Tests for the TPC-H workload: datagen, queries, variants, paper queries."""

import pytest

from repro.engine.executor import PlanExecutor
from repro.mqo.canonical import canonicalize, canonicalize_optimized
from repro.mqo.merge import MQOOptimizer, build_unshared_plan
from repro.workloads.constraints import (
    CONSTRAINT_LEVELS,
    random_constraints,
    uniform_constraints,
)
from repro.workloads.tpch import (
    ALL_QUERY_NAMES,
    SHARING_FRIENDLY,
    build_pair,
    build_query,
    build_variant_workload,
    build_workload,
    generate_catalog,
    mutate_query,
    rows_for,
)
from repro.workloads.tpch import schema as tpch_schema
from repro.workloads.tpch.datagen import BASE_ROWS

from .util import assert_plan_correct, batch_reference


class TestDataGenerator:
    def test_deterministic(self):
        a = generate_catalog(scale=0.1, seed=9)
        b = generate_catalog(scale=0.1, seed=9)
        for name in a.names():
            assert a.get(name).rows == b.get(name).rows

    def test_seed_changes_data(self):
        a = generate_catalog(scale=0.1, seed=1)
        b = generate_catalog(scale=0.1, seed=2)
        assert a.get("lineitem").rows != b.get("lineitem").rows

    def test_row_counts_scale(self):
        catalog = generate_catalog(scale=0.5)
        for name, base in BASE_ROWS.items():
            assert len(catalog.get(name)) == pytest.approx(base * 0.5, abs=1)
        assert len(catalog.get("region")) == 5
        assert len(catalog.get("nation")) == 25

    def test_rows_for_fixed_tables(self):
        assert rows_for("region", 10.0) == 5
        assert rows_for("nation", 0.01) == 25

    def test_foreign_keys_resolve(self):
        catalog = generate_catalog(scale=0.2)
        n_parts = len(catalog.get("part"))
        n_suppliers = len(catalog.get("supplier"))
        n_orders = len(catalog.get("orders"))
        partsupp_pairs = {
            (row[0], row[1]) for row in catalog.get("partsupp").rows
        }
        for row in catalog.get("lineitem").rows:
            assert 0 <= row[0] < n_orders
            assert 0 <= row[1] < n_parts
            assert 0 <= row[2] < n_suppliers
            # dbgen invariant: the lineitem's supplier supplies the part
            assert (row[1], row[2]) in partsupp_pairs

    def test_dates_in_domain(self):
        catalog = generate_catalog(scale=0.2)
        schema = catalog.get("lineitem").schema
        ship = schema.index_of("l_shipdate")
        for row in catalog.get("lineitem").rows:
            assert tpch_schema.DATE_MIN <= row[ship] <= tpch_schema.DATE_MAX + 160

    def test_value_domains(self):
        catalog = generate_catalog(scale=0.2)
        schema = catalog.get("part").schema
        brand = schema.index_of("p_brand")
        assert all(
            row[brand] in tpch_schema.BRANDS for row in catalog.get("part").rows
        )


class TestQueries:
    def test_all_22_queries_build(self, tpch_tiny):
        queries = build_workload(tpch_tiny)
        assert [q.name for q in queries] == list(ALL_QUERY_NAMES)
        assert [q.query_id for q in queries] == list(range(22))

    def test_all_queries_return_rows_at_half_scale(self):
        catalog = generate_catalog(scale=0.5)
        queries = build_workload(catalog)
        plan = build_unshared_plan(catalog, queries)
        run = PlanExecutor(plan).run({s.sid: 1 for s in plan.subplans})
        empty = [q.name for q in queries if not run.query_results[q.query_id]]
        assert empty == []

    def test_sharing_friendly_subset_is_shared(self, tpch_tiny):
        queries = build_workload(tpch_tiny, SHARING_FRIENDLY)
        plan = MQOOptimizer(tpch_tiny).build_shared_plan(queries)
        assert plan.shared_subplans(), "the 10-query subset must overlap"

    def test_full_workload_shares_substantially(self, tpch_tiny):
        queries = build_workload(tpch_tiny)
        plan = MQOOptimizer(tpch_tiny).build_shared_plan(queries)
        shared_queries = set()
        for subplan in plan.shared_subplans():
            shared_queries.update(subplan.query_ids())
        assert len(shared_queries) >= 10

    def test_shared_execution_is_correct(self, tpch_tiny):
        queries = build_workload(tpch_tiny)
        reference = batch_reference(tpch_tiny, queries)
        plan = MQOOptimizer(tpch_tiny).build_shared_plan(queries)
        assert_plan_correct(plan, queries, reference)

    def test_shared_incremental_execution_is_correct(self, tpch_tiny):
        queries = build_workload(tpch_tiny, ("Q3", "Q5", "Q10", "Q15", "Q18"))
        reference = batch_reference(tpch_tiny, queries)
        plan = MQOOptimizer(tpch_tiny).build_shared_plan(queries)
        paces = {}
        for subplan in plan.topological_order():
            children = subplan.child_subplans()
            paces[subplan.sid] = min(
                (paces[c.sid] for c in children), default=6
            )
        assert_plan_correct(plan, queries, reference, paces=paces)

    def test_q15_contains_max_aggregate(self, tpch_tiny):
        query = build_query(tpch_tiny, "Q15", 0)
        node = canonicalize(query.root)
        has_max = any(
            n.kind == "aggregate"
            and any(spec.func == "max" for spec in n.payload[1])
            for n in node.walk()
        )
        assert has_max


class TestPaperQueries:
    def test_pair_builds_and_runs(self, tpch_tiny):
        queries = build_pair(tpch_tiny)
        assert [q.name for q in queries] == ["QA", "QB"]
        reference = batch_reference(tpch_tiny, queries)
        assert reference[0], "Q_A must produce a total"

    def test_pair_shares_figure2_block(self, tpch_tiny):
        plan = MQOOptimizer(tpch_tiny).build_shared_plan(build_pair(tpch_tiny))
        assert len(plan.shared_subplans()) == 1

    def test_qb_filter_is_mark_in_shared_plan(self, tpch_tiny):
        plan = MQOOptimizer(tpch_tiny).build_shared_plan(build_pair(tpch_tiny))
        shared = plan.shared_subplans()[0]
        marks = [n for n in shared.root.walk() if 1 in n.filters]
        assert marks and all(0 not in n.filters for n in marks)


def filter_signatures(query):
    """Every canonical node's filter signature, pre-order."""
    return [
        None if node.filter is None else node.filter.signature()
        for node in canonicalize_optimized(query.root).walk()
    ]


class TestVariants:
    def test_variant_keeps_structure(self, tpch_tiny):
        base = build_query(tpch_tiny, "Q5", 0)
        variant = mutate_query(base, 1, seed=3)
        assert (
            canonicalize_optimized(base.root).structure_key()
            == canonicalize_optimized(variant.root).structure_key()
        )

    def test_variant_changes_some_predicate(self, tpch_tiny):
        base = build_query(tpch_tiny, "Q5", 0)
        variant = mutate_query(base, 1, seed=3)
        assert filter_signatures(base) != filter_signatures(variant)

    def test_variant_is_deterministic(self, tpch_tiny):
        base = build_query(tpch_tiny, "Q5", 0)
        a = mutate_query(base, 1, seed=3)
        b = mutate_query(base, 1, seed=3)
        assert filter_signatures(a) == filter_signatures(b)

    def test_range_shift_keeps_half_overlap(self, tpch_tiny):
        from repro.relational.expressions import col
        from repro.workloads.tpch.variants import PredicateMutator
        import random

        predicate = (col("d") >= 100) & (col("d") < 200)
        mutator = PredicateMutator(random.Random(0))
        shifted = mutator.mutate_predicate(predicate)
        # both bounds move by half the window: [150, 250)
        text = shifted.signature()
        assert "150" in text and "250" in text

    def test_variant_workload_shares_with_originals(self, tpch_tiny):
        queries = build_variant_workload(
            tpch_tiny, ("Q5", "Q18"), build_query, seed=1
        )
        assert len(queries) == 4
        plan = MQOOptimizer(tpch_tiny).build_shared_plan(queries)
        # each original must share at least one subplan with its variant
        shared_masks = [s.query_mask for s in plan.shared_subplans()]
        assert any(mask & 0b0101 == 0b0101 for mask in shared_masks)

    def test_variant_workload_executes_correctly(self, tpch_tiny):
        queries = build_variant_workload(
            tpch_tiny, ("Q5", "Q18"), build_query, seed=1
        )
        reference = batch_reference(tpch_tiny, queries)
        plan = MQOOptimizer(tpch_tiny).build_shared_plan(queries)
        assert_plan_correct(
            plan, queries, reference, paces={s.sid: 3 for s in plan.subplans}
        )


class TestConstraints:
    def test_uniform(self):
        constraints = uniform_constraints(range(4), 0.5)
        assert constraints == {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5}

    def test_uniform_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            uniform_constraints(range(2), 0.0)
        with pytest.raises(ValueError):
            uniform_constraints(range(2), 1.5)

    def test_random_is_seeded(self):
        a = random_constraints(range(10), seed=4)
        b = random_constraints(range(10), seed=4)
        c = random_constraints(range(10), seed=5)
        assert a == b
        assert a != c
        assert set(a.values()) <= set(CONSTRAINT_LEVELS)
