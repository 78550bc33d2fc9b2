"""Tests for the MQO merge, shared-plan DAG and plan-shape builders."""

import pytest

from repro.errors import PlanError
from repro.cost.cache import node_signature
from repro.logical.builder import PlanBuilder
from repro.mqo.merge import (
    MQOOptimizer,
    build_blocking_cut_plan,
    build_unshared_plan,
)
from repro.mqo.nodes import OpNode, SharedQueryPlan, Subplan, SubplanRef, TableRef
from repro.relational import bitvec
from repro.fuzz.naive import naive_result
from repro.relational.expressions import agg_avg, agg_count, agg_max, agg_sum, col
from repro.sqlparser.lower import parse_query
from repro.workloads.tpch import build_pair, build_query, generate_catalog

from .util import (
    assert_plan_correct,
    batch_reference,
    make_toy_catalog,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)


@pytest.fixture()
def catalog(toy_catalog):
    return toy_catalog


class TestSharedPlanConstruction:
    def test_identical_queries_fully_merge(self, catalog):
        a = toy_query_total(catalog, 0)
        b = toy_query_total(catalog, 1)
        plan = MQOOptimizer(catalog).build_shared_plan([a, b])
        # one fully-shared subplan serving both queries
        assert len(plan.subplans) == 1
        assert plan.subplans[0].query_mask == 0b11
        assert plan.query_roots[0] is plan.query_roots[1]

    def test_partially_overlapping_queries_cut_at_shared_node(self, catalog):
        a = toy_query_total(catalog, 0)
        b = toy_query_region(catalog, 1)
        plan = MQOOptimizer(catalog).build_shared_plan([a, b])
        shared = plan.shared_subplans()
        assert len(shared) == 1
        assert shared[0].query_mask == 0b11
        # the shared join pipeline is consumed by two per-query tops
        assert plan.consumer_count(shared[0]) == 2

    def test_disjoint_queries_do_not_share(self, catalog):
        a = toy_query_total(catalog, 0)
        b = toy_query_max(catalog, 1)
        plan = MQOOptimizer(catalog).build_shared_plan([a, b])
        assert plan.shared_subplans() == []
        assert plan.connected_components() == [[0], [1]]

    def test_paper_pair_shapes_like_figure_2(self):
        tpch = generate_catalog(scale=0.1)
        plan = MQOOptimizer(tpch).build_shared_plan(build_pair(tpch))
        shared = plan.shared_subplans()
        assert len(shared) == 1
        # the shared block is part |X| SUM(lineitem): join over agg over scan
        kinds = sorted(n.kind for n in shared[0].root.walk())
        assert kinds.count("join") == 1
        assert kinds.count("aggregate") == 1
        # Q_B's brand/size selection is a mark on the shared part scan
        marked = [
            n for n in shared[0].root.walk()
            if n.kind == "source" and 1 in n.filters
        ]
        assert marked, "sigma_B* mark missing from the shared subplan"

    def test_duplicate_subtree_within_one_query_becomes_buffer(self, catalog):
        # the same aggregate consumed twice (Q15 shape) must materialize once
        inner = (
            PlanBuilder.scan(catalog, "events")
            .aggregate(["ev_item"], [agg_sum(col("qty"), "item_qty")])
        )
        top = inner.aggregate([], [agg_max(col("item_qty"), "max_qty")])
        query = inner.join(top, "item_qty", "max_qty").as_query(0, "top_item")
        plan = MQOOptimizer(catalog).build_shared_plan([query])
        inner_subplans = [
            s for s in plan.subplans if s is not plan.query_roots[0]
        ]
        assert len(inner_subplans) == 1
        reads = [
            node.ref.subplan for node in plan.query_roots[0].root.source_nodes()
        ]
        assert reads == inner_subplans * 2
        assert_plan_correct(plan, [query], batch_reference(catalog, [query]))

    def test_projection_conflict_falls_back_to_separate_nodes(self, catalog):
        base = PlanBuilder.scan(catalog, "items")
        a = base.project([("v", col("price") * 2)]).aggregate(
            [], [agg_sum(col("v"), "s")]
        ).as_query(0, "a")
        b = base.project([("v", col("price") * 3)]).aggregate(
            [], [agg_sum(col("v"), "s")]
        ).as_query(1, "b")
        plan = MQOOptimizer(catalog).build_shared_plan([a, b])
        # conflicting alias "v" forces the queries apart; both still valid
        plan.validate()
        assert plan.query_roots[0] is not plan.query_roots[1]


class TestPlanInvariants:
    def test_validate_checks_subsumption(self, catalog):
        a = toy_query_total(catalog, 0)
        b = toy_query_region(catalog, 1)
        plan = MQOOptimizer(catalog).build_shared_plan([a, b])
        shared = plan.shared_subplans()[0]
        shared.query_mask = 0b01  # break subsumption manually
        with pytest.raises(PlanError, match="subsumption"):
            plan.validate()

    def test_topological_order_children_first(self, catalog):
        a = toy_query_total(catalog, 0)
        b = toy_query_region(catalog, 1)
        plan = MQOOptimizer(catalog).build_shared_plan([a, b])
        order = [s.sid for s in plan.topological_order()]
        for subplan in plan.subplans:
            for child in subplan.child_subplans():
                assert order.index(child.sid) < order.index(subplan.sid)

    def test_clone_preserves_structure_and_sids(self, catalog):
        a = toy_query_total(catalog, 0)
        b = toy_query_region(catalog, 1)
        plan = MQOOptimizer(catalog).build_shared_plan([a, b])
        clone = plan.clone()
        assert sorted(s.sid for s in clone.subplans) == sorted(
            s.sid for s in plan.subplans
        )
        assert clone.describe() == plan.describe()
        # deep copy: mutating the clone leaves the original intact
        clone.subplans[0].query_mask = 0
        assert plan.subplans[0].query_mask != 0

    def test_subplans_of_query(self, catalog):
        a = toy_query_total(catalog, 0)
        b = toy_query_region(catalog, 1)
        plan = MQOOptimizer(catalog).build_shared_plan([a, b])
        for qid in (0, 1):
            subplans = plan.subplans_of_query(qid)
            assert all(s.query_mask & (1 << qid) for s in subplans)
            assert plan.query_roots[qid] in subplans

    def test_describe_mentions_every_subplan(self, catalog):
        a = toy_query_total(catalog, 0)
        b = toy_query_region(catalog, 1)
        plan = MQOOptimizer(catalog).build_shared_plan([a, b])
        text = plan.describe()
        for subplan in plan.subplans:
            assert "subplan %d" % subplan.sid in text


class TestBaselinePlanShapes:
    def test_unshared_one_subplan_per_query(self, catalog, toy_queries):
        plan = build_unshared_plan(catalog, toy_queries)
        assert len(plan.subplans) == len(toy_queries)
        for subplan in plan.subplans:
            assert bitvec.popcount(subplan.query_mask) == 1

    def test_blocking_cut_splits_at_aggregates(self, catalog):
        query = toy_query_max(catalog, 0)  # agg over agg
        plan = build_blocking_cut_plan(catalog, [query])
        # inner sum-agg becomes its own subplan below the max-agg root
        assert len(plan.subplans) == 2
        root = plan.query_roots[0]
        children = root.child_subplans()
        assert len(children) == 1
        inner_kinds = [n.kind for n in children[0].root.walk()]
        assert "aggregate" in inner_kinds

    def test_blocking_cut_no_aggregates_single_subplan(self, catalog):
        query = (
            PlanBuilder.scan(catalog, "events")
            .join(PlanBuilder.scan(catalog, "items"), "ev_item", "item_id")
            .aggregate([], [agg_count("n")])
            .as_query(0, "flat")
        )
        plan = build_blocking_cut_plan(catalog, [query])
        # the root aggregate IS the root: one subplan only
        assert len(plan.subplans) == 1

    def test_noshare_shapes_pin_sids_labels_and_roots(self, catalog, toy_queries):
        unshared = build_unshared_plan(catalog, toy_queries)
        assert [(s.sid, s.label, s.query_mask) for s in unshared.subplans] == [
            (0, "toy_total_0", 0b001),
            (1, "toy_region_1", 0b010),
            (2, "toy_max_2", 0b100),
        ]
        assert {q: s.sid for q, s in unshared.query_roots.items()} == {
            0: 0, 1: 1, 2: 2,
        }
        cut = build_blocking_cut_plan(catalog, toy_queries)
        assert [(s.sid, s.label, s.query_mask) for s in cut.subplans] == [
            (0, "toy_total_0", 0b001),
            (1, "toy_region_1", 0b010),
            (2, "toy_max_2.part2", 0b100),
            (3, "toy_max_2", 0b100),
        ]
        assert {q: s.sid for q, s in cut.query_roots.items()} == {
            0: 0, 1: 1, 2: 3,
        }
        assert cut.query_roots[2].child_subplans() == [cut.subplans[2]]

    def test_noshare_shapes_never_hash_cons(self):
        # Q15 reads its revenue view twice: only the shared plan merges
        # the two reads into one buffer
        tpch = generate_catalog(scale=0.05, seed=5)
        queries = [build_query(tpch, "Q15", 0)]
        cut = build_blocking_cut_plan(tpch, queries)
        assert [s.label for s in cut.subplans] == [
            "Q15.part0", "Q15.part1", "Q15.part2", "Q15",
        ]
        view, copy = cut.subplans[0], cut.subplans[1]
        # the same core tree: equal once decorations are stripped
        assert node_signature(view.root.clone(keep_queries=()), {}) == (
            node_signature(copy.root.clone(keep_queries=()), {}))
        assert cut.query_roots[0].child_subplans() == [view, cut.subplans[2]]
        assert cut.subplans[2].child_subplans() == [copy]

        unshared = build_unshared_plan(tpch, queries)
        assert len(unshared.subplans) == 1
        assert unshared.subplans[0].base_tables() == ["lineitem", "supplier"]
        scans = [n.ref.name for n in unshared.subplans[0].root.source_nodes()]
        assert scans == ["lineitem", "lineitem", "supplier"]

        shared = MQOOptimizer(tpch).build_shared_plan(queries)
        assert len(shared.subplans) == 2
        root = shared.query_roots[0]
        reads = [
            n.ref.subplan for n in root.root.source_nodes()
            if isinstance(n.ref, SubplanRef)
        ]
        assert reads == [shared.subplans[0], shared.subplans[0]]


class TestWithinQueryDuplicates:
    """One query reaching the same core subtree twice keeps one node only
    when both occurrences carry the same filter and interchangeable
    projections; otherwise each occurrence is its own node."""

    def _check(self, catalog, sql):
        query = parse_query(catalog, sql, 0, "q")
        plan = MQOOptimizer(catalog).build_shared_plan([query])
        reference = batch_reference(catalog, [query])
        run = assert_plan_correct(plan, [query], reference)
        truth = naive_result(query, catalog)
        assert reference[0] == truth
        assert run.query_results[0] == truth
        return plan

    def test_differently_filtered_and_projected_scans(self, catalog):
        plan = self._check(
            catalog,
            "SELECT c.cid, COUNT(*) AS n FROM "
            "(SELECT item_cat AS cid FROM items WHERE price < 20) c JOIN "
            "(SELECT item_cat AS did FROM items WHERE price > 80) d "
            "ON c.cid = d.did GROUP BY c.cid",
        )
        scans = [n for n in plan.subplans[0].root.walk() if n.kind == "source"]
        assert len(scans) == 2
        assert scans[0].projections != scans[1].projections

    def test_same_filter_projected_on_one_side_grouped_on_the_other(self, catalog):
        self._check(
            catalog,
            "SELECT c.cid, g.n FROM "
            "(SELECT item_cat AS cid FROM items WHERE price < 20) c JOIN "
            "(SELECT item_cat, COUNT(*) AS n FROM items WHERE price < 20 "
            "GROUP BY item_cat) g ON c.cid = g.item_cat",
        )

    def test_differently_projected_aggregate_is_not_a_buffer(self, catalog):
        inner = (
            PlanBuilder.scan(catalog, "events")
            .aggregate(["ev_item"], [agg_sum(col("qty"), "item_qty")])
        )
        query = inner.project([("k", col("ev_item")), ("v", col("item_qty"))]).join(
            inner.project([("k2", col("ev_item")), ("v2", col("item_qty"))]),
            "k", "k2",
        ).as_query(0, "self_join")
        plan = MQOOptimizer(catalog).build_shared_plan([query])
        assert len(plan.subplans) == 1
        assert_plan_correct(plan, [query], batch_reference(catalog, [query]))


class TestOpNodeBasics:
    def test_union_projection_keeps_identity_for_non_projecting_query(self, catalog):
        items = catalog.get("items")
        node = OpNode(
            "source",
            ref=TableRef("items", items.schema),
            projections={1: (("double", col("price") * 2),)},
            query_mask=0b11,
        )
        names = [alias for alias, _ in node.union_projection()]
        assert names[:3] == ["item_id", "item_cat", "price"]
        assert "double" in names

    def test_union_projection_pure_when_all_project(self, catalog):
        items = catalog.get("items")
        node = OpNode(
            "source",
            ref=TableRef("items", items.schema),
            projections={
                0: (("a", col("price")),),
                1: (("b", col("item_id")),),
            },
            query_mask=0b11,
        )
        names = [alias for alias, _ in node.union_projection()]
        assert names == ["a", "b"]

    def test_conflicting_union_projection_raises(self, catalog):
        items = catalog.get("items")
        node = OpNode(
            "source",
            ref=TableRef("items", items.schema),
            projections={
                0: (("v", col("price")),),
                1: (("v", col("item_id")),),
            },
            query_mask=0b11,
        )
        with pytest.raises(PlanError, match="conflicting"):
            node.union_projection()

    def test_clone_restricts_decorations_and_mask(self, catalog):
        items = catalog.get("items")
        node = OpNode(
            "source",
            ref=TableRef("items", items.schema),
            filters={0: col("price") > 1, 1: col("price") > 2},
            query_mask=0b11,
        )
        restricted = node.clone(keep_queries={1})
        assert list(restricted.filters) == [1]
        assert restricted.query_mask == 0b10
        assert node.query_mask == 0b11
