"""Tests for logical plans: builder, schemas, signatures, blocking cuts."""

import pytest

from repro.errors import PlanError
from repro.logical.builder import PlanBuilder, validate_query_ids
from repro.logical.ops import (
    Aggregate,
    Join,
    Project,
    Query,
    Scan,
    Select,
    format_plan,
)
from repro.mqo.canonical import canonicalize_optimized
from repro.relational.expressions import agg_count, agg_sum, col


@pytest.fixture()
def catalog(toy_catalog):
    return toy_catalog


class TestBuilder:
    def test_scan_resolves_schema(self, catalog):
        builder = PlanBuilder.scan(catalog, "items")
        assert builder.schema.names() == ("item_id", "item_cat", "price")

    def test_where_keeps_schema(self, catalog):
        builder = PlanBuilder.scan(catalog, "items").where(col("price") > 5)
        assert builder.schema.names() == ("item_id", "item_cat", "price")

    def test_project_with_shorthand(self, catalog):
        builder = PlanBuilder.scan(catalog, "items").project(
            ["item_id", ("double_price", col("price") * 2)]
        )
        assert builder.schema.names() == ("item_id", "double_price")

    def test_join_schema_concatenates(self, catalog):
        builder = PlanBuilder.scan(catalog, "items").join(
            PlanBuilder.scan(catalog, "categories"), "item_cat", "cat_id"
        )
        assert builder.schema.names() == (
            "item_id", "item_cat", "price", "cat_id", "cat_name", "region",
        )

    def test_join_accepts_string_keys(self, catalog):
        a = PlanBuilder.scan(catalog, "items")
        b = PlanBuilder.scan(catalog, "categories")
        joined = a.join(b, "item_cat", "cat_id")
        assert isinstance(joined.op, Join)
        assert joined.op.left_keys == ("item_cat",)

    def test_aggregate_schema(self, catalog):
        builder = PlanBuilder.scan(catalog, "items").aggregate(
            "item_cat", [agg_sum(col("price"), "total"), agg_count("n")]
        )
        assert builder.schema.names() == ("item_cat", "total", "n")

    def test_as_query(self, catalog):
        query = PlanBuilder.scan(catalog, "items").as_query(3, "scan_items")
        assert isinstance(query, Query)
        assert query.query_id == 3


class TestOperatorValidation:
    def test_join_requires_keys(self, catalog):
        left = Scan("items", catalog.get("items").schema)
        right = Scan("categories", catalog.get("categories").schema)
        with pytest.raises(PlanError):
            Join(left, right, [], [])

    def test_join_key_must_exist(self, catalog):
        left = Scan("items", catalog.get("items").schema)
        right = Scan("categories", catalog.get("categories").schema)
        with pytest.raises(Exception):
            Join(left, right, ["missing"], ["cat_id"])

    def test_aggregate_requires_specs(self, catalog):
        scan = Scan("items", catalog.get("items").schema)
        with pytest.raises(PlanError):
            Aggregate(scan, ["item_cat"], [])

    def test_project_requires_exprs(self, catalog):
        scan = Scan("items", catalog.get("items").schema)
        with pytest.raises(PlanError):
            Project(scan, [])

    def test_select_requires_expression(self, catalog):
        scan = Scan("items", catalog.get("items").schema)
        with pytest.raises(PlanError):
            Select(scan, "not an expression")

    def test_query_requires_logical_root(self):
        with pytest.raises(PlanError):
            Query(0, "bad", "nope")


def structure(root):
    """The key the MQO merge shares on: decorations excluded."""
    return canonicalize_optimized(root).structure_key()


def decorations(root):
    """Every canonical node's filter and projection signature, pre-order."""
    return [
        (
            None if node.filter is None else node.filter.signature(),
            None if node.projection is None else tuple(
                (alias, expr.signature()) for alias, expr in node.projection
            ),
        )
        for node in canonicalize_optimized(root).walk()
    ]


class TestSignatures:
    def test_differing_selects_share_structure(self, catalog):
        base = PlanBuilder.scan(catalog, "items")
        a = base.where(col("price") > 5).build()
        b = base.where(col("price") > 50).build()
        assert structure(a) == structure(b)
        assert decorations(a) != decorations(b)

    def test_differing_projects_share_structure(self, catalog):
        base = PlanBuilder.scan(catalog, "items")
        a = base.project(["item_id"]).build()
        b = base.project(["price"]).build()
        assert structure(a) == structure(b)
        assert decorations(a) != decorations(b)

    def test_differing_aggregates_do_not_share(self, catalog):
        base = PlanBuilder.scan(catalog, "items")
        a = base.aggregate("item_cat", [agg_sum(col("price"), "t")]).build()
        b = base.aggregate("item_cat", [agg_count("t")]).build()
        assert structure(a) != structure(b)

    def test_differing_tables_do_not_share(self, catalog):
        a = PlanBuilder.scan(catalog, "items").build()
        b = PlanBuilder.scan(catalog, "categories").build()
        assert structure(a) != structure(b)

    def test_differing_join_keys_do_not_share(self, catalog):
        items = PlanBuilder.scan(catalog, "events")
        other = PlanBuilder.scan(catalog, "items")
        a = items.join(other, "ev_item", "item_id").build()
        b = items.join(other, "qty", "price").build()
        assert structure(a) != structure(b)


class TestStructureHelpers:
    def test_walk_and_count(self, catalog):
        plan = (
            PlanBuilder.scan(catalog, "items")
            .where(col("price") > 1)
            .aggregate("item_cat", [agg_count("n")])
            .build()
        )
        kinds = [op.kind for op in plan.walk()]
        assert kinds == ["aggregate", "select", "scan"]
        assert plan.operator_count() == 3

    def test_blocking_flags(self, catalog):
        scan = Scan("items", catalog.get("items").schema)
        assert not scan.is_blocking()
        agg = Aggregate(scan, ["item_cat"], [agg_count("n")])
        assert agg.is_blocking()

    def test_format_plan_is_indented(self, catalog):
        plan = (
            PlanBuilder.scan(catalog, "items")
            .where(col("price") > 1)
            .build()
        )
        text = format_plan(plan)
        assert "Select" in text and "Scan" in text
        assert "\n  " in text


class TestQueryIdValidation:
    def test_dense_ids_pass(self, catalog):
        queries = [
            PlanBuilder.scan(catalog, "items").as_query(0, "a"),
            PlanBuilder.scan(catalog, "items").as_query(1, "b"),
        ]
        validate_query_ids(queries)

    def test_sparse_ids_pass(self, catalog):
        # a bitvector slot only has to be the query's own: holes and
        # out-of-order ids are what a service under churn produces
        queries = [
            PlanBuilder.scan(catalog, "items").as_query(5, "a"),
            PlanBuilder.scan(catalog, "items").as_query(2, "b"),
        ]
        validate_query_ids(queries)

    def test_duplicate_ids_rejected(self, catalog):
        queries = [
            PlanBuilder.scan(catalog, "items").as_query(1, "a"),
            PlanBuilder.scan(catalog, "items").as_query(1, "b"),
        ]
        with pytest.raises(PlanError, match=r"unique; id 1 .*'b'"):
            validate_query_ids(queries)

    @pytest.mark.parametrize("bad", [-1, True, 1.0, "1", None])
    def test_non_slot_ids_rejected(self, catalog, bad):
        queries = [
            PlanBuilder.scan(catalog, "items").as_query(0, "a"),
            PlanBuilder.scan(catalog, "items").as_query(bad, "b"),
        ]
        with pytest.raises(PlanError, match="non-negative integers") as err:
            validate_query_ids(queries)
        assert repr(bad) in str(err.value) and "'b'" in str(err.value)
