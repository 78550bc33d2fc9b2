"""Intra-trigger parallelism: component partition + serial bit-identity.

``repro.engine.parallel`` executes independent subplan components in
worker processes.  The contract is *bit-identity* with the serial
executor at every job count -- query results, total work, every
execution record, subplan final work, metadata (including the
arrangement summary).  These tests pin the partition's structural
invariants and the identity on the fig11-shaped workload for both the
production operators and the per-tuple reference.
"""

import pytest

from repro.engine.executor import PlanExecutor
from repro.engine.parallel import plan_components, run_parallel
from repro.engine.stream import StreamConfig
from repro.errors import ExecutionError
from repro.physical.hotpath import clear_compiled_caches, engine_mode
from repro.workloads.tpch import (
    ALL_QUERY_NAMES,
    add_lineitem_updates,
    build_workload,
    generate_catalog,
)

from .util import shared_plan_for


@pytest.fixture(scope="module")
def fig11_plan():
    catalog = generate_catalog(scale=0.05, seed=5)
    add_lineitem_updates(catalog, fraction=0.25, seed=11)
    queries = build_workload(catalog, ALL_QUERY_NAMES)
    plan = shared_plan_for(catalog, queries)
    paces = {
        subplan.sid: 1 if subplan.child_subplans() else 3
        for subplan in plan.subplans
    }
    return plan, paces


def _record_tuples(result):
    return [
        (r.sid, r.fraction, r.work, r.latency_work, r.output_count)
        for r in result.records
    ]


def assert_bit_identical(serial, parallel):
    assert parallel.query_results == serial.query_results
    assert parallel.total_work == serial.total_work
    assert parallel.subplan_final_work == serial.subplan_final_work
    assert parallel.subplan_total_work == serial.subplan_total_work
    assert parallel.query_final_work == serial.query_final_work
    assert _record_tuples(parallel) == _record_tuples(serial)
    assert parallel.metadata == serial.metadata


# -- partition structure ---------------------------------------------------------


def test_components_partition_all_subplans(fig11_plan):
    plan, _ = fig11_plan
    components = plan_components(plan)
    seen = [sid for component in components for sid in component]
    assert sorted(seen) == sorted(sp.sid for sp in plan.subplans)
    assert len(seen) == len(set(seen))


def test_components_closed_under_dependencies(fig11_plan):
    plan, _ = fig11_plan
    component_of = {}
    for index, component in enumerate(plan_components(plan)):
        for sid in component:
            component_of[sid] = index
    for subplan in plan.subplans:
        for child in subplan.child_subplans():
            assert component_of[child.sid] == component_of[subplan.sid]


def test_components_in_topological_order(fig11_plan):
    plan, _ = fig11_plan
    position = {
        subplan.sid: index
        for index, subplan in enumerate(plan.topological_order())
    }
    for component in plan_components(plan):
        positions = [position[sid] for sid in component]
        assert positions == sorted(positions)


def test_fig11_plan_actually_splits(fig11_plan):
    # the whole point: the shared TPC-H plan is not one monolith
    plan, _ = fig11_plan
    assert len(plan_components(plan)) > 1


# -- serial identity -------------------------------------------------------------


def _serial_and_parallel(plan, paces, jobs, **mode):
    config = StreamConfig()
    clear_compiled_caches()
    with engine_mode(**mode):
        serial = PlanExecutor(plan, config).run(paces)
        parallel = run_parallel(plan, paces, config, jobs=jobs)
    return serial, parallel


def test_parallel_columnar_bit_identical(fig11_plan):
    plan, paces = fig11_plan
    serial, parallel = _serial_and_parallel(plan, paces, jobs=2, batched=True)
    assert serial.metadata["engine_mode"] == "columnar"
    assert_bit_identical(serial, parallel)


def test_parallel_reference_bit_identical(fig11_plan):
    plan, paces = fig11_plan
    serial, parallel = _serial_and_parallel(plan, paces, jobs=2, batched=False)
    assert serial.metadata["engine_mode"] == "reference"
    assert_bit_identical(serial, parallel)


def test_parallel_without_arrangements(fig11_plan):
    plan, paces = fig11_plan
    serial, parallel = _serial_and_parallel(
        plan, paces, jobs=2, batched=True, arrangements=False
    )
    assert_bit_identical(serial, parallel)


def test_jobs_one_is_the_serial_path(fig11_plan):
    plan, paces = fig11_plan
    config = StreamConfig()
    clear_compiled_caches()
    serial = PlanExecutor(plan, config).run(paces)
    again = run_parallel(plan, paces, config, jobs=1)
    assert_bit_identical(serial, again)


def test_parallel_validates_paces_in_driver(fig11_plan):
    plan, _ = fig11_plan
    with pytest.raises(ExecutionError):
        run_parallel(plan, {}, StreamConfig(), jobs=2)


# -- component-restricted executor ----------------------------------------------


def test_only_subset_runs_just_that_component(fig11_plan):
    plan, paces = fig11_plan
    component = plan_components(plan)[-1]
    clear_compiled_caches()
    executor = PlanExecutor(plan, StreamConfig(), only=component)
    result = executor.run(paces)
    assert {r.sid for r in result.records} == set(component)
    full = PlanExecutor(plan, StreamConfig()).run(paces)
    for sid in component:
        assert result.subplan_final_work[sid] == full.subplan_final_work[sid]
    # only the component's query roots are reported
    owned = {
        qid for qid, root in plan.query_roots.items() if root.sid in component
    }
    assert set(result.query_results) == owned
    for qid in owned:
        assert result.query_results[qid] == full.query_results[qid]
