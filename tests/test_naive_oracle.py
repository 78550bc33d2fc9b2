"""All 22 TPC-H queries against ground truth that shares no engine code.

:mod:`repro.fuzz.naive` recomputes each query from its tables' final
contents with dicts and loops; the shared plan, run incrementally over
an update stream at the pipeline benchmark's lazy (1/3) and eager
(16/48) paces, must land on the same multisets.  A self-test shows the
oracle notices an engine bug -- and its own source is held to the rule
that makes it worth having: no import from the engine.
"""

import ast

import pytest

from repro.engine.compare import results_close
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.fuzz import naive as naive_oracle
from repro.physical.faults import inject_fault
from repro.workloads.tpch import (
    ALL_QUERY_NAMES,
    add_lineitem_updates,
    build_workload,
    generate_catalog,
)

from .util import shared_plan_for

PACES = {"lazy": (1, 3), "eager": (16, 48)}


@pytest.fixture(scope="module")
def workload():
    # the benchmark's eager scale: at 0.05 nine of the 22 answers are empty
    catalog = generate_catalog(scale=0.25, seed=5)
    add_lineitem_updates(catalog, fraction=0.25, seed=11)
    queries = build_workload(catalog, ALL_QUERY_NAMES)
    truth = {
        query.query_id: naive_oracle.naive_result(query, catalog)
        for query in queries
    }
    return catalog, queries, truth


def _run(workload, regime):
    catalog, queries, _ = workload
    plan = shared_plan_for(catalog, queries)
    parent_pace, leaf_pace = PACES[regime]
    paces = {
        subplan.sid: parent_pace if subplan.child_subplans() else leaf_pace
        for subplan in plan.subplans
    }
    return PlanExecutor(plan, StreamConfig()).run(paces)


def _wrong(workload, run):
    _, queries, truth = workload
    return [
        query.name for query in queries
        if not results_close(
            run.query_results[query.query_id], truth[query.query_id])
    ]


def test_oracle_imports_nothing_from_the_engine():
    # relative imports resolve against the module's own package
    package = naive_oracle.__name__.split(".")[:-1]
    seen = set()
    with open(naive_oracle.__file__) as handle:
        source = handle.read()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            seen.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            seen.add(".".join(base + [node.module or ""]))
    assert seen <= {"operator", "repro.relational.expressions"}, seen
    assert len(source.splitlines()) <= 160


def test_truth_is_not_vacuous(workload):
    _, queries, truth = workload
    assert len(queries) == 22
    # (Q17 and Q19 find nothing at this scale)
    assert sum(1 for rows in truth.values() if rows) >= 20
    assert sum(len(rows) for rows in truth.values()) > 250


@pytest.mark.parametrize("regime", sorted(PACES))
def test_shared_plan_matches_the_naive_oracle(workload, regime):
    assert _wrong(workload, _run(workload, regime)) == []


def test_oracle_catches_a_dropped_retraction(workload):
    # every engine leg that compiles the production aggregate shares this
    # bug; ground truth that shares no code with them still sees it
    with inject_fault(drop_agg_retraction=True):
        run = _run(workload, "eager")
    assert _wrong(workload, run)
