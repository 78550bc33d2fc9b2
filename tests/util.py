"""Shared test helpers: tiny workloads and cross-plan result checks."""

import random

from repro.engine.calibrate import CalibrationResult, _collect_stats, calibrate_plan
from repro.engine.columns import ColumnBatch
from repro.engine.compare import assert_results_close
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.fuzz.reference import ReferenceExecutor
from repro.logical.builder import PlanBuilder
from repro.mqo.merge import MQOOptimizer, build_unshared_plan
from repro.relational.expressions import agg_avg, agg_count, agg_max, agg_sum, col
from repro.relational.schema import Schema, INT, FLOAT, STR
from repro.relational.table import Catalog
from repro.relational.tuples import Delta


def batch_of(deltas, width):
    """The row-backed ``ColumnBatch`` carrying ``deltas`` (a production
    tree's form of that Delta list)."""
    if not deltas:
        return ColumnBatch.empty(width)
    rows = [d.row for d in deltas] if width else [()] * len(deltas)
    return ColumnBatch.from_rows(
        rows, [d.sign for d in deltas], [d.bits for d in deltas], width
    )


def deltas_of(out):
    """An operator output or buffer segment, of either tree's form, as a
    Delta list (every value a Python scalar)."""
    if isinstance(out, ColumnBatch):
        return [
            Delta(row, sign, bits)
            for row, sign, bits in zip(
                out.rows(), out.sign_list(), out.bit_list()
            )
        ]
    return out


def make_toy_catalog(seed=13, n_categories=12, n_items=60, n_events=900):
    """A 3-table star: categories <- items <- events."""
    rng = random.Random(seed)
    catalog = Catalog()
    categories = catalog.create(
        "categories", Schema.of(("cat_id", INT), ("cat_name", STR), ("region", STR))
    )
    for cid in range(n_categories):
        categories.append((cid, "cat%d" % cid, rng.choice(["EU", "US", "APAC"])))
    items = catalog.create(
        "items", Schema.of(("item_id", INT), ("item_cat", INT), ("price", FLOAT))
    )
    for iid in range(n_items):
        items.append((iid, rng.randrange(n_categories), float(rng.randint(1, 100))))
    events = catalog.create(
        "events",
        Schema.of(("ev_item", INT), ("qty", FLOAT), ("day", INT), ("kind", STR)),
    )
    for _ in range(n_events):
        events.append((
            rng.randrange(n_items),
            float(rng.randint(1, 9)),
            rng.randrange(100),
            rng.choice(["view", "buy", "ship"]),
        ))
    return catalog


def toy_query_total(catalog, query_id=0, day_filter=None):
    """SUM(qty) per category over events |X| items |X| categories."""
    events = PlanBuilder.scan(catalog, "events")
    if day_filter is not None:
        events = events.where(col("day") < day_filter)
    return (
        events
        .join(PlanBuilder.scan(catalog, "items"), "ev_item", "item_id")
        .join(PlanBuilder.scan(catalog, "categories"), "item_cat", "cat_id")
        .aggregate(["cat_name"], [agg_sum(col("qty"), "total_qty")])
        .as_query(query_id, "toy_total_%d" % query_id)
    )


def toy_query_region(catalog, query_id=1, region="EU"):
    """Same join chain, filtered to one region, counting events."""
    return (
        PlanBuilder.scan(catalog, "events")
        .join(PlanBuilder.scan(catalog, "items"), "ev_item", "item_id")
        .join(PlanBuilder.scan(catalog, "categories"), "item_cat", "cat_id")
        .where(col("region") == region)
        .aggregate(["cat_name"], [agg_count("n_events"), agg_avg(col("qty"), "avg_qty")])
        .as_query(query_id, "toy_region_%d" % query_id)
    )


def toy_query_max(catalog, query_id=2):
    """Two-level aggregate with a MAX on top (Q15-shaped)."""
    return (
        PlanBuilder.scan(catalog, "events")
        .aggregate(["ev_item"], [agg_sum(col("qty"), "item_qty")])
        .aggregate([], [agg_max(col("item_qty"), "max_qty")])
        .as_query(query_id, "toy_max_%d" % query_id)
    )


def batch_reference(catalog, queries, stream_config=None):
    """Reference results: each query separately, one batch."""
    plan = build_unshared_plan(catalog, queries)
    run = PlanExecutor(plan, stream_config).run({s.sid: 1 for s in plan.subplans})
    return {q.query_id: run.query_results[q.query_id] for q in queries}


def assert_plan_correct(plan, queries, reference, paces=None, stream_config=None):
    """Execute ``plan`` and require every query's results match ``reference``."""
    if paces is None:
        paces = {s.sid: 1 for s in plan.subplans}
    run = PlanExecutor(plan, stream_config).run(paces)
    for query in queries:
        assert_results_close(
            run.query_results[query.query_id],
            reference[query.query_id],
            context="%s paces=%s" % (query.name, sorted(set(paces.values()))),
        )
    return run


def shared_plan_for(catalog, queries):
    return MQOOptimizer(catalog).build_shared_plan(queries)


def reference_calibration(plan, stream_config=None):
    """What an uncached :func:`calibrate_plan` does, on the per-tuple
    reference family: a pace-1 stats run whose retiring subplans fill the
    plan's statistics."""
    run = ReferenceExecutor(plan, stream_config, stats_mode=True).run(
        {s.sid: 1 for s in plan.subplans},
        collect_results=False, on_retire=_collect_stats,
    )
    return CalibrationResult(plan, run)


def calibrated_shared_plan(catalog, queries, stream_config=None):
    plan = shared_plan_for(catalog, queries)
    calibrate_plan(plan, stream_config or StreamConfig())
    return plan
