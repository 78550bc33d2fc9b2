"""The one segment log: retention by readers, results as one more reader.

``Buffer`` holds whole segments for its registered readers and nothing
for anybody else (``repro.engine.buffers``).  A state machine drives it
through random append / read / compact interleavings; the rest checks
what that buys the executor on the pipeline benchmark's 22-query shared
plan: a window that collects no results leaves no entry behind, and
collecting, not collecting and collecting again on one executor gives
the same answers -- on the production tree and on the per-tuple
reference, both equal to the engine-free ground truth.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.engine.buffers import Buffer
from repro.engine.compare import results_close
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.errors import ExecutionError
from repro.fuzz.reference import ReferenceExecutor

from .test_naive_oracle import PACES, workload  # noqa: F401 (fixture)
from .util import make_toy_catalog, shared_plan_for, toy_query_total


class SegmentLogMachine(RuleBasedStateMachine):
    """1-3 readers over one log of random-length (also empty) segments.

    Entries are consecutive integers, so "every appended entry exactly
    once and in order" is ``seen == appended[:len(seen)]`` at a glance.
    """

    @initialize(readers=st.integers(min_value=1, max_value=3))
    def start(self, readers):
        self.buffer = Buffer("log")
        self.readers = [self.buffer.reader() for _ in range(readers)]
        self.seen = [[] for _ in range(readers)]
        self.appended = []
        self.last_end = 0

    @rule(length=st.integers(min_value=0, max_value=6))
    def append(self, length):
        first = len(self.appended)
        # the log is told nothing about a segment but its length
        segment = tuple(range(first, first + length))
        self.buffer.append(segment)
        self.appended.extend(segment)

    @rule(which=st.integers(min_value=0, max_value=2))
    def read(self, which):
        which %= len(self.readers)
        for segment in self.readers[which].read_new():
            assert len(segment)  # empty segments are never handed out
            self.seen[which].extend(segment)
        assert self.seen[which] == self.appended
        assert self.readers[which].offset == self.buffer.end()

    @rule()
    def compact(self):
        buffer = self.buffer
        held = buffer.held
        dropped = buffer.compact()
        assert buffer.held == held - dropped
        # never past an entry some reader has not read
        assert buffer.base <= min(len(seen) for seen in self.seen)
        if all(reader.offset == buffer.end() for reader in self.readers):
            assert buffer.held == 0 and buffer._segments == []

    @invariant()
    def offsets_are_logical_and_monotone(self):
        buffer = self.buffer
        assert buffer.end() == len(self.appended) >= self.last_end
        self.last_end = buffer.end()
        assert buffer.held == sum(map(len, buffer._segments))
        # what is held is exactly the tail of what was appended
        tail = [entry for segment in buffer._segments for entry in segment]
        assert tail == self.appended[buffer.base:]


TestSegmentLog = SegmentLogMachine.TestCase
TestSegmentLog.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None
)


def _paces(plan, regime):
    parent_pace, leaf_pace = PACES[regime]
    return {
        subplan.sid: parent_pace if subplan.child_subplans() else leaf_pace
        for subplan in plan.subplans
    }


def _buffers(executor):
    _, table_buffers, compiled, _, _ = executor._runtime
    return list(table_buffers.values()) + [
        unit.buffer for unit in compiled.values()
    ]


@pytest.mark.parametrize("regime", sorted(PACES))
def test_a_window_without_results_leaves_nothing_behind(workload, regime):
    # before buffers were held for their readers alone, the pinned
    # query-root buffers still held every delta of the window here.  A
    # production run releases its buffers as the window ends; a stats
    # run is the same tree and leaves its logs' offsets as the window
    # did
    catalog, queries, _ = workload
    plan = shared_plan_for(catalog, queries)
    executor = PlanExecutor(plan, StreamConfig(), stats_mode=True)
    run = executor.run(_paces(plan, regime), collect_results=False)
    assert run.query_results == {}
    for buffer in _buffers(executor):
        assert buffer.held == 0, buffer
        assert buffer.end() == buffer.base
    roots = {root.sid for root in plan.query_roots.values()}
    assert sum(executor.compiled[sid].buffer.end() for sid in roots) > 0


@pytest.mark.parametrize(
    "executor_class", (PlanExecutor, ReferenceExecutor),
    ids=("production", "reference"))
@pytest.mark.parametrize("regime", sorted(PACES))
def test_results_are_one_more_reader(workload, regime, executor_class):
    catalog, queries, truth = workload
    plan = shared_plan_for(catalog, queries)
    paces = _paces(plan, regime)
    executor = executor_class(plan, StreamConfig())
    first = executor.run(paces, collect_results=True)
    registered = [len(buffer._cells) for buffer in _buffers(executor)]
    without = executor.run(paces, collect_results=False)
    again = executor.run(paces, collect_results=True)
    assert first.metadata["engine_mode"] == executor_class.family.label
    assert without.query_results == {}
    assert first.query_results == again.query_results
    assert first.total_work == without.total_work == again.total_work
    for query in queries:
        assert results_close(
            first.query_results[query.query_id], truth[query.query_id]
        ), query.name
    # the result readers came and went: only the tree's own readers stay
    assert registered == [
        len(buffer._cells) for buffer in _buffers(executor)
    ]
    assert all(buffer.held == 0 for buffer in _buffers(executor))


def test_a_failed_window_still_detaches_its_result_readers():
    catalog = make_toy_catalog()
    plan = shared_plan_for(catalog, [toy_query_total(catalog, 0)])
    executor = PlanExecutor(plan, StreamConfig())
    paces = {subplan.sid: 2 for subplan in plan.subplans}
    good = executor.run(paces)
    registered = [len(buffer._cells) for buffer in _buffers(executor)]
    root = executor.compiled[plan.query_roots[0].sid]
    advance = root.root_exec.advance
    calls = []

    def failing():
        calls.append(1)
        if len(calls) == 2:
            raise ExecutionError("injected mid-window failure")
        return advance()

    root.root_exec.advance = failing
    with pytest.raises(ExecutionError, match="injected"):
        executor.run(paces)
    root.root_exec.advance = advance
    assert registered == [
        len(buffer._cells) for buffer in _buffers(executor)
    ]
    assert executor.run(paces).query_results == good.query_results
