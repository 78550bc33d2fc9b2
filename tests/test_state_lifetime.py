"""A subplan's state dies with its final execution.

Every subplan executes at the trigger point and never again in the
window, so it retires right after that execution: its private join
sides and aggregate group records are released while the subplans still
running keep theirs (``repro.engine.executor``).  Calibration reads each
subplan's statistics as it retires, so its peak follows the subplans
still running, not the whole plan.  Results are folded as they are
read, so a query root's buffer is compacted like any other.
"""

import tracemalloc

import pytest

from repro.cost.cache import get_default_cache, set_default_cache
from repro.engine.calibrate import calibrate_plan
from repro.engine.executor import PlanExecutor, query_result_view
from repro.engine.stream import StreamConfig
from repro.fuzz.reference import ReferenceExecutor
from repro.mqo.merge import build_unshared_plan
from repro.physical import columnar
from repro.workloads.tpch import generate_catalog
from repro.workloads.tpch.queries import build_query

from .util import (
    make_toy_catalog,
    shared_plan_for,
    toy_query_max,
    toy_query_region,
    toy_query_total,
)

FAMILIES = pytest.mark.parametrize(
    "executor_class", (PlanExecutor, ReferenceExecutor),
    ids=("production", "reference"))


@pytest.fixture(scope="module")
def toy_plan():
    catalog = make_toy_catalog(seed=23)
    queries = [
        toy_query_total(catalog, 0),
        toy_query_region(catalog, 1),
        toy_query_max(catalog, 2),
    ]
    plan = shared_plan_for(catalog, queries)
    paces = {s.sid: 2 if s.child_subplans() else 4 for s in plan.subplans}
    return plan, paces


# -- calibration ----------------------------------------------------------


def _calibration_peak(plan):
    """Traced peak bytes of one uncached calibration of ``plan``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        calibrate_plan(plan, StreamConfig(), cache=None)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _copies_over_one(copies):
    """Peak of calibrating ``copies`` unshared copies of Q3 over one copy.

    Each plan is calibrated once first, so the code caches are warm and
    the peaks hold what a run holds, not what compiling its kernels
    does.
    """
    catalog = generate_catalog(scale=0.5, seed=5)
    one = build_unshared_plan(catalog, [build_query(catalog, "Q3", 0)])
    many = build_unshared_plan(
        catalog, [build_query(catalog, "Q3", q) for q in range(copies)])
    previous = get_default_cache()
    set_default_cache(None)
    try:
        for plan in (one, many):
            calibrate_plan(plan, StreamConfig(), cache=None)
        return _calibration_peak(many) / _calibration_peak(one)
    finally:
        set_default_cache(previous)


def test_calibrating_eight_copies_peaks_near_one_copy():
    # each copy's join tables die once its subplan has run; the parent,
    # which held every copy's state to the end, read 4.8x
    assert _copies_over_one(8) <= 1.5


def test_without_retirement_the_copies_add_up(monkeypatch):
    # the measurement sees the mechanism: with the state-holding
    # operators' release patched out, every copy's state is alive at once
    for cls in (columnar.ColumnarJoinExec, columnar.ColumnarAggregateExec):
        monkeypatch.setattr(cls, "release", lambda operator: None)
    assert _copies_over_one(8) > 3.0


# -- a window ------------------------------------------------------------------


def _operators(root_exec):
    stack = [root_exec]
    while stack:
        op = stack.pop()
        yield op
        stack.extend(
            getattr(op, attr) for attr in ("left", "right", "child")
            if hasattr(op, attr)
        )


def _private_state(unit):
    """Join-side entries and group records a unit's operators hold
    (shared arrangements are the window's, not the unit's)."""
    held = 0
    for op in _operators(unit.root_exec):
        for name in ("_left_state", "_right_state"):  # production join
            side = getattr(op, name, None)
            if side is not None:
                held += len(side.net)
        for name in ("_left_table", "_right_table"):  # reference join
            held += len(getattr(op, name, ()))
        if hasattr(op, "group_count"):
            held += op.group_count()
    return held


@FAMILIES
def test_state_is_released_at_the_final_execution_only(toy_plan, executor_class):
    plan, paces = toy_plan
    executor = executor_class(plan, StreamConfig())
    executor.run(paces)  # compile
    units = executor.compiled
    snapshots = []  # (sid about to advance, {sid: private state})

    def tap(unit, advance):
        def tapped():
            snapshots.append((unit.subplan.sid, {
                sid: _private_state(other)
                for sid, other in units.items()
            }))
            return advance()
        return tapped

    for unit in units.values():
        unit.root_exec.advance = tap(unit, unit.root_exec.advance)
    executor.run(paces)
    executions = {}
    for index, (sid, _) in enumerate(snapshots):
        executions.setdefault(sid, []).append(index)
    assert {sid: len(at) for sid, at in executions.items()} == paces
    kept = 0
    for sid, at in executions.items():
        first, final = at[0], at[-1]
        # once its final execution has returned, nothing is left ...
        for _, held in snapshots[final + 1:]:
            assert held[sid] == 0, sid
        # ... while between its first and its final execution it keeps
        # what its earlier executions built
        if snapshots[final][1][sid]:
            kept += 1
            for _, held in snapshots[first + 1:final + 1]:
                assert held[sid] > 0, sid
    assert kept >= 2  # not vacuous: subplans whose state must survive


def _fingerprint(run):
    return (
        run.total_work,
        [(r.sid, r.fraction, r.work, r.latency_work, r.output_count)
         for r in run.records],
        run.subplan_total_work, run.subplan_final_work, run.query_final_work,
        [(qid, list(rows.items())) for qid, rows in run.query_results.items()],
        run.metadata,
    )


@FAMILIES
def test_consecutive_runs_on_one_executor_are_identical(toy_plan, executor_class):
    plan, paces = toy_plan
    executor = executor_class(plan, StreamConfig())
    first = _fingerprint(executor.run(paces))
    second = _fingerprint(executor.run(paces))
    assert first == second
    assert any(rows for _, rows in first[5])


@FAMILIES
def test_folded_results_equal_one_view_of_the_whole_window(toy_plan, executor_class):
    # a stats run leaves its buffers as the window did: extra readers
    # registered before the run still hold every root segment after it
    plan, paces = toy_plan
    executor = executor_class(plan, StreamConfig(), stats_mode=True)
    executor.run(paces)  # compile
    whole = {
        qid: executor.compiled[root.sid].buffer.reader()
        for qid, root in plan.query_roots.items()
    }
    folded = executor.run(paces).query_results
    viewed = {
        qid: query_result_view(plan, qid, reader.read_new())
        for qid, reader in whole.items()
    }
    assert list(folded) == list(viewed)
    for qid in viewed:
        assert list(folded[qid].items()) == list(viewed[qid].items())
    assert any(viewed.values())
