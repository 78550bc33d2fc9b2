"""Reference cycles: a window's state dies with the window, by refcount.

A run pauses CPython's cyclic collector and releases its operator state
before the collector resumes (``repro.engine.executor``), so what the
window built is freed by reference counting, never traversed.  That only
holds if nothing the engine or the planner builds sits in a reference
cycle: each operation below runs with the collector off, and a
collection afterwards must find nothing to free.  The pause itself must
hand the collector back as it found it, a failed window included.
"""

import gc
from collections import Counter

import pytest

from repro.core.optimizer import OptimizerConfig, optimize_ishare
from repro.cost.cache import (
    CalibrationCache,
    get_default_cache,
    set_default_cache,
)
from repro.engine.arrangements import PrivateSide
from repro.engine.calibrate import (
    _collect_stats,
    calibrate_plan,
    calibration_execution_count,
)
from repro.engine.executor import PlanExecutor, collector_paused
from repro.engine.stream import StreamConfig
from repro.errors import ExecutionError
from repro.fuzz.reference import ReferenceExecutor
from repro.physical.hotpath import clear_compiled_caches
from repro.service.core import QueryService
from repro.workloads import random_constraints
from repro.workloads.tpch import build_workload, generate_catalog

from .util import (
    make_toy_catalog,
    shared_plan_for,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)


@pytest.fixture(autouse=True)
def _empty_compiled_caches():
    # Compiled artifacts hang off their plan nodes and die with them by
    # refcount; the code-text cache under them is bounded and cleared
    # wholesale when full.  Each test starts from empty caches, so what
    # an operation compiles or drops does not depend on the tests before.
    clear_compiled_caches()


def cyclic_garbage(operation):
    """What ``operation()`` left in reference cycles, counted by type.

    The collector is off while it runs, so nothing it drops is collected
    early; a collection then reports every object only a cycle kept.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        operation()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == sum(kinds.values())
    return kinds


@pytest.fixture(scope="module")
def toy_plan():
    catalog = make_toy_catalog(seed=19)
    queries = [
        toy_query_total(catalog, 0),
        toy_query_region(catalog, 1),
        toy_query_max(catalog, 2),
    ]
    plan = shared_plan_for(catalog, queries)
    paces = {s.sid: 2 if s.child_subplans() else 4 for s in plan.subplans}
    return plan, paces


@pytest.mark.parametrize(
    "executor_class", (PlanExecutor, ReferenceExecutor),
    ids=("production", "reference"))
class TestEngine:
    def test_a_warm_window(self, toy_plan, executor_class):
        plan, paces = toy_plan
        executor = executor_class(plan, StreamConfig())
        executor.run(paces)  # compiles the tree and its kernels
        for collect_results in (False, True):
            assert cyclic_garbage(
                lambda: executor.run(paces, collect_results=collect_results)
            ) == {}

    def test_a_dropped_executor(self, toy_plan, executor_class):
        plan, paces = toy_plan
        held = [executor_class(plan, StreamConfig())]
        held[0].run(paces)
        assert cyclic_garbage(held.clear) == {}

    def test_a_stats_run_dropped_with_its_state(self, toy_plan, executor_class):
        plan, paces = toy_plan
        held = [executor_class(plan, StreamConfig(), stats_mode=True)]
        held[0].run(paces)
        assert cyclic_garbage(held.clear) == {}

    def test_calibration(self, toy_plan, executor_class, tmp_path):
        # cold without a cache, cold into one, then replayed from it; and
        # the stats run calibration makes, on this family's operators
        plan, _ = toy_plan
        cache = CalibrationCache(str(tmp_path))
        previous = get_default_cache()
        set_default_cache(None)
        try:
            before = calibration_execution_count()
            for use in (None, cache, cache):
                assert cyclic_garbage(
                    lambda: calibrate_plan(plan, StreamConfig(), cache=use)
                ) == {}
        finally:
            set_default_cache(previous)
        assert calibration_execution_count() == before + 2
        assert cache.hits == 1
        stats = executor_class(plan, StreamConfig(), stats_mode=True)
        assert cyclic_garbage(lambda: stats.run(
            {s.sid: 1 for s in plan.subplans},
            collect_results=False, on_retire=_collect_stats,
        )) == {}


def test_optimize_ishare():
    catalog = generate_catalog(scale=0.03, seed=5)
    queries = build_workload(catalog, ("Q1", "Q3", "Q6", "Q14"))
    goals = random_constraints([q.query_id for q in queries], seed=5)
    config = OptimizerConfig(max_pace=4)
    optimize_ishare(catalog, queries, goals, config)  # warm the code caches
    assert cyclic_garbage(
        lambda: optimize_ishare(catalog, queries, goals, config)
    ) == {}


def test_a_service_registration_window_and_departure():
    service = QueryService(
        lambda window: make_toy_catalog(seed=41 + window),
        OptimizerConfig(max_pace=6),
    )
    catalog = service.basis_catalog
    service.register(toy_query_total(catalog, 0), "a", 50.0)
    service.run_window()  # compiles the tree and its kernels
    steps = [
        lambda: service.register(toy_query_region(catalog, 1), "b", 50.0),
        service.run_window,
        lambda: service.run_window(collect_results=True),
        lambda: service.deregister(1),
        service.run_window,
    ]
    for step in steps:
        assert cyclic_garbage(step) == {}
    assert sorted(service.registrations) == [0]


def _operators(root_exec):
    stack = [root_exec]
    while stack:
        op = stack.pop()
        yield op
        stack.extend(
            getattr(op, attr) for attr in ("left", "right", "child")
            if hasattr(op, attr)
        )


def _held(executor):
    """Entries the tree holds: buffered, arranged, privately joined and
    grouped."""
    _, table_buffers, compiled, _, store = executor._runtime
    buffers = [*table_buffers.values(), *(u.buffer for u in compiled.values())]
    held = store.resident_entries()
    held += sum(b.held + len(b.view_cache) for b in buffers)
    for unit in compiled.values():
        for op in _operators(unit.root_exec):
            for side in getattr(op, "states", ()):
                if isinstance(side, PrivateSide):
                    held += side.entries
            if hasattr(op, "group_count"):
                held += op.group_count()
    return held


class TestThePause:
    def test_windows_free_state_and_stats_runs_keep_arrangements(
        self, toy_plan
    ):
        plan, paces = toy_plan
        production = PlanExecutor(plan, StreamConfig())
        summary = production.run(paces).metadata["arrangement_summary"]
        assert summary["resident_entries"] > 0
        assert _held(production) == 0
        # every subplan's private state died with its final execution and
        # every buffer was drained behind its readers; the arrangements
        # several subplans share live until the window ends, and a stats
        # run leaves them (with its counters) for inspection
        stats = PlanExecutor(plan, StreamConfig(), stats_mode=True)
        stats.run(paces)
        assert _held(stats) == summary["resident_entries"]

    def test_a_failed_window_turns_the_collector_back_on(self, toy_plan):
        plan, paces = toy_plan
        executor = PlanExecutor(plan, StreamConfig())
        executor.run(paces)
        unit = executor.compiled[plan.query_roots[0].sid]
        advance = unit.root_exec.advance
        seen = []

        def failing():
            seen.append(gc.isenabled())
            raise ExecutionError("injected mid-window failure")

        unit.root_exec.advance = failing
        assert gc.isenabled()
        with pytest.raises(ExecutionError, match="injected"):
            executor.run(paces)
        assert seen == [False]  # paused inside the window
        assert gc.isenabled()
        unit.root_exec.advance = advance
        assert executor.run(paces).query_results

    def test_a_callers_paused_collector_stays_paused(self, toy_plan):
        plan, paces = toy_plan
        executor = PlanExecutor(plan, StreamConfig())
        gc.disable()
        try:
            executor.run(paces)
            assert not gc.isenabled()
            with collector_paused():
                executor.run(paces)
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_the_pause_nests(self):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("out")
        assert gc.isenabled()
