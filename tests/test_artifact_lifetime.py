"""Compiled kernels die with their plan node.

Every artifact compiled for a plan node -- row kernels, aggregate
kernels, the oracle's key getters and decorations -- is memoized on the
node itself (:func:`repro.physical.hotpath.cached_artifacts`), so it
lives exactly as long as some plan holds the node.  A service re-merges
its plan into fresh nodes on every registration and departure; what it
keeps compiled must follow the live plan, not its history.  Generated
functions are out of their own globals, so a dead kernel is freed by
reference counting, with the cyclic collector off.
"""

import gc
import pickle
import weakref
from types import FunctionType


from repro.core.optimizer import OptimizerConfig
from repro.engine.calibrate import calibrate_plan
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.physical import fused, hotpath
from repro.service.core import QueryService
from repro.workloads.tpch import (
    ALL_QUERY_NAMES,
    build_workload,
    generate_catalog,
)

from .util import (
    make_toy_catalog,
    shared_plan_for,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)

BUILDERS = (toy_query_total, toy_query_region, toy_query_max)


def _toy_plan():
    catalog = make_toy_catalog(seed=23)
    plan = shared_plan_for(
        catalog, [build(catalog, qid) for qid, build in enumerate(BUILDERS)])
    paces = {s.sid: 2 if s.child_subplans() else 4 for s in plan.subplans}
    return plan, paces, catalog


def _plan_nodes(plan):
    return sum(1 for subplan in plan.subplans for _ in subplan.root.walk())


def test_a_dropped_plan_frees_its_compiled_kernels(monkeypatch):
    built = []

    def spy(builder, functions):
        def build(*args):
            artifact = builder(*args)
            built.extend(weakref.ref(f) for f in functions(artifact))
            return artifact
        return build

    monkeypatch.setattr(fused, "_build_row_kernel", spy(
        fused._build_row_kernel, lambda kernel: [kernel]))
    monkeypatch.setattr(fused, "_build_aggregate_kernels", spy(
        fused._build_aggregate_kernels,
        lambda kernels: (kernels.absorb, kernels.emit)))
    gc.collect()
    gc.disable()
    try:
        plan, paces, catalog = _toy_plan()
        executor = PlanExecutor(plan, StreamConfig(), catalog=catalog)
        executor.run(paces)
        assert len(built) > 5 and all(ref() is not None for ref in built)
        del plan, executor
        assert [ref() for ref in built if ref() is not None] == []
    finally:
        gc.enable()


def _churn(service, cycles):
    """``cycles`` x (register, window, deregister, window) around one
    anchor query; yields after each cycle."""
    catalog = service.basis_catalog
    assert service.register(
        toy_query_total(catalog, 0), "anchor", 50.0).status == "admitted"
    for cycle in range(cycles):
        qid = 100 + cycle
        build = BUILDERS[1 + cycle % 2]
        assert service.register(
            build(catalog, qid), "churn", 50.0).status == "admitted"
        service.run_window()
        service.deregister(qid)
        service.run_window()
        yield


def test_a_churning_service_keeps_only_the_live_plans_artifacts():
    gc.collect()
    before = len(hotpath._ARTIFACTS)
    misses = hotpath.compile_cache_stats["misses"]
    service = QueryService(
        lambda window: make_toy_catalog(seed=41 + window % 4),
        OptimizerConfig(max_pace=6))
    gc.disable()
    try:
        for _ in _churn(service, 30):
            # entries hang off nodes: at most one per node of the live plan
            live = _plan_nodes(service.plan)
            assert len(hotpath._ARTIFACTS) - before <= live
        # and what died was freed by refcount: no kernel left in a cycle
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        generated = [
            obj for obj in gc.garbage if isinstance(obj, FunctionType)
            and obj.__code__.co_filename.startswith("<fused:")
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert generated == []
    # the artifacts compiled, each once per node: 228 source chains,
    # 106 aggregate chains, 244 join side kernels (a join filters and
    # projects inside them, calibration included) and 106 aggregate
    # kernel pairs
    assert hotpath.compile_cache_stats["misses"] - misses == 684


def test_a_calibrated_plans_joins_hold_only_their_side_kernels():
    # the 22-query plan: some of its joins filter and project
    catalog = generate_catalog(scale=0.02, seed=5)
    plan = shared_plan_for(catalog, build_workload(catalog, ALL_QUERY_NAMES))
    calibrate_plan(plan, cache=None)
    joins = [node for subplan in plan.subplans
             for node in subplan.root.walk() if node.kind == "join"]
    assert any(node.filters and node.projections for node in joins)
    for node in joins:
        kinds = hotpath._ARTIFACTS[node]
        assert "fused-row" not in kinds
        sides = [kind for kind in kinds if kind[0] == "fused-join"]
        assert sorted(kind[1] for kind in sides) == [0, 1], sides
        assert all(len(kind) == 3 for kind in sides), sides


def test_a_compiled_plan_still_pickles():
    plan, paces, catalog = _toy_plan()
    first = PlanExecutor(plan, StreamConfig(), catalog=catalog).run(paces)
    assert any(node in hotpath._ARTIFACTS
               for subplan in plan.subplans for node in subplan.root.walk())
    shipped = pickle.loads(pickle.dumps(plan))
    again = PlanExecutor(shipped, StreamConfig(), catalog=catalog).run(paces)
    assert again.total_quanta == first.total_quanta
    assert again.query_final_quanta == first.query_final_quanta
