"""Generative property tests: random workloads, full-pipeline equivalence.

Hypothesis generates small star-schema datasets and random query batches
(filters, group-bys, optional aggregates over joins); for every generated
case the shared incremental execution at random paces must produce the
same net results as separate one-batch execution.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.engine.compare import assert_results_close
from repro.engine.executor import PlanExecutor
from repro.logical.builder import PlanBuilder
from repro.mqo.merge import MQOOptimizer, build_unshared_plan
from repro.relational.expressions import agg_avg, agg_count, agg_max, agg_min, agg_sum, col
from repro.relational.schema import Schema, INT, FLOAT, STR
from repro.relational.table import Catalog


def build_catalog(rng, n_dim, n_fact):
    catalog = Catalog()
    dim = catalog.create(
        "dim", Schema.of(("d_id", INT), ("d_group", STR), ("d_weight", FLOAT))
    )
    for key in range(n_dim):
        dim.append((key, "g%d" % rng.randrange(4), float(rng.randint(1, 20))))
    fact = catalog.create(
        "fact", Schema.of(("f_dim", INT), ("f_value", FLOAT), ("f_tag", INT))
    )
    for _ in range(n_fact):
        fact.append((rng.randrange(n_dim), float(rng.randint(1, 50)),
                     rng.randrange(10)))
    return catalog


AGG_FACTORIES = [
    lambda: agg_sum(col("f_value"), "s"),
    lambda: agg_count("n"),
    lambda: agg_avg(col("f_value"), "m"),
    lambda: agg_min(col("f_value"), "lo"),
    lambda: agg_max(col("f_value"), "hi"),
]


def build_random_query(catalog, rng, query_id):
    fact = PlanBuilder.scan(catalog, "fact")
    if rng.random() < 0.7:
        fact = fact.where(col("f_tag") < rng.randint(1, 10))
    plan = fact.join(PlanBuilder.scan(catalog, "dim"), "f_dim", "d_id")
    if rng.random() < 0.5:
        plan = plan.where(col("d_weight") > rng.randint(1, 15))
    group_by = rng.choice([["d_group"], ["f_dim"], []])
    aggs = [factory() for factory in rng.sample(AGG_FACTORIES, rng.randint(1, 3))]
    plan = plan.aggregate(group_by, aggs)
    return plan.as_query(query_id, "rq%d" % query_id)


def random_paces(plan, rng, ceiling):
    paces = {}
    for subplan in plan.topological_order():
        upper = min(
            (paces[c.sid] for c in subplan.child_subplans()), default=ceiling
        )
        paces[subplan.sid] = rng.randint(1, max(1, upper))
    return paces


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_queries=st.integers(min_value=1, max_value=4),
    ceiling=st.integers(min_value=1, max_value=11),
)
def test_shared_incremental_matches_batch(seed, n_queries, ceiling):
    rng = random.Random(seed)
    catalog = build_catalog(rng, n_dim=rng.randint(3, 15), n_fact=rng.randint(20, 150))
    queries = [build_random_query(catalog, rng, qid) for qid in range(n_queries)]

    reference_plan = build_unshared_plan(catalog, queries)
    reference = PlanExecutor(reference_plan).run(
        {s.sid: 1 for s in reference_plan.subplans}
    )

    shared = MQOOptimizer(catalog).build_shared_plan(queries)
    run = PlanExecutor(shared).run(random_paces(shared, rng, ceiling))
    for query in queries:
        assert_results_close(
            run.query_results[query.query_id],
            reference.query_results[query.query_id],
            context="seed=%d %s" % (seed, query.name),
        )


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_work_accounting_consistency(seed):
    """Total work equals the sum of execution records; finals are recorded."""
    rng = random.Random(seed)
    catalog = build_catalog(rng, n_dim=8, n_fact=80)
    queries = [build_random_query(catalog, rng, qid) for qid in range(2)]
    plan = MQOOptimizer(catalog).build_shared_plan(queries)
    paces = random_paces(plan, rng, 7)
    run = PlanExecutor(plan).run(paces, collect_results=False)
    assert run.total_quanta == sum(r.work for r in run.records)
    assert set(run.subplan_final_quanta) == {s.sid for s in plan.subplans}
    assert sum(paces.values()) == len(run.records)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_churned_stream_equivalence(seed):
    """Random update churn on the fact stream preserves equivalence."""
    rng = random.Random(seed)
    catalog = build_catalog(rng, n_dim=6, n_fact=60)
    fact = catalog.get("fact")
    updates = []
    for row in rng.sample(fact.rows, rng.randint(1, 8)):
        new_row = (row[0], float(rng.randint(1, 50)), row[2])
        updates.append((row, new_row))
    fact.apply_updates(updates, rng)

    queries = [build_random_query(catalog, rng, 0)]
    reference_plan = build_unshared_plan(catalog, queries)
    reference = PlanExecutor(reference_plan).run({0: 1})
    pace = rng.randint(2, 9)
    run = PlanExecutor(reference_plan).run({0: pace})
    assert_results_close(
        run.query_results[0], reference.query_results[0],
        context="seed=%d pace=%d" % (seed, pace),
    )
