"""Bit-identity of the production operators against the per-tuple reference.

The engine keeps the original per-tuple delta application as the work
oracle (``repro.fuzz.reference.ReferenceExecutor``).  These tests are
the hard constraint: the production operators, the compiled-artifact
cache, operator tree reuse, and in-place buffer compaction must leave
every RunResult work/latency number and every query result
*bit-identical* on the fig11 workload (TPC-H, all 22 queries,
update-stream churn included).  The artifact cache and tree reuse are
unconditional, so they are checked by comparing a fresh executor over
cleared caches against a second ``run()`` on a warm one.
"""

import pytest

from repro.engine.buffers import Buffer
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.errors import ExecutionError
from repro.fuzz.reference import ReferenceExecutor
from repro.physical.hotpath import clear_compiled_caches
from repro.relational.tuples import Delta
from repro.workloads.tpch import (
    ALL_QUERY_NAMES,
    add_lineitem_updates,
    build_workload,
    generate_catalog,
)

from .util import shared_plan_for


def fingerprint(result):
    """Every numeric surface of a RunResult, exact (no tolerance)."""
    return {
        "total_work": result.total_work,
        "records": [
            (r.sid, r.fraction, r.work, r.latency_work, r.output_count)
            for r in result.records
        ],
        "subplan_total_work": result.subplan_total_work,
        "subplan_final_work": result.subplan_final_work,
        "query_final_work": result.query_final_work,
        "query_results": result.query_results,
    }


@pytest.fixture(scope="module")
def fig11_setup():
    catalog = generate_catalog(scale=0.08, seed=5)
    add_lineitem_updates(catalog, fraction=0.05, seed=11)
    queries = build_workload(catalog, ALL_QUERY_NAMES)
    plan = shared_plan_for(catalog, queries)
    # a valid mixed pace configuration: leaves eager, parents lazier
    paces = {
        subplan.sid: 2 if subplan.child_subplans() else 6
        for subplan in plan.subplans
    }
    return plan, paces


def run_with(plan, paces, executor=PlanExecutor):
    clear_compiled_caches()
    return executor(plan, StreamConfig()).run(paces)


class TestFig11BitIdentity:
    def test_batched_matches_reference(self, fig11_setup):
        plan, paces = fig11_setup
        batched = run_with(plan, paces)
        reference = run_with(plan, paces, ReferenceExecutor)
        assert batched.metadata["engine_mode"] == "columnar"
        assert reference.metadata["engine_mode"] == "reference"
        assert fingerprint(batched) == fingerprint(reference)

    def test_warm_caches_and_reused_tree_are_neutral(self, fig11_setup):
        # the baseline above is a fresh executor over cleared caches; a
        # second run() hits the artifact cache and reuses the tree
        plan, paces = fig11_setup
        for family in (ReferenceExecutor, PlanExecutor):
            clear_compiled_caches()
            executor = family(plan, StreamConfig())
            cold = fingerprint(executor.run(paces))
            warm = fingerprint(executor.run(paces))
            # a second executor compiles a new tree from cached artifacts
            cached = fingerprint(family(plan, StreamConfig()).run(paces))
            assert cold == warm == cached, family

    def test_uniform_pace_identity(self, fig11_setup):
        plan, _ = fig11_setup
        paces = {subplan.sid: 3 for subplan in plan.subplans}
        batched = run_with(plan, paces)
        reference = run_with(plan, paces, ReferenceExecutor)
        assert fingerprint(batched) == fingerprint(reference)


class TestTreeReuse:
    def test_reused_tree_matches_fresh_executor(self, fig11_setup):
        plan, paces = fig11_setup
        executor = PlanExecutor(plan, StreamConfig())
        first = fingerprint(executor.run(paces))
        assert executor._runtime is not None
        second = fingerprint(executor.run(paces))  # reused tree
        fresh = fingerprint(PlanExecutor(plan, StreamConfig()).run(paces))
        assert first == second == fresh

    def test_reuse_across_different_paces(self, fig11_setup):
        plan, paces = fig11_setup
        lazy = {subplan.sid: 1 for subplan in plan.subplans}
        executor = PlanExecutor(plan, StreamConfig())
        executor.run(paces)
        reused = fingerprint(executor.run(lazy))
        fresh = fingerprint(PlanExecutor(plan, StreamConfig()).run(lazy))
        assert reused == fresh

    def test_stats_mode_counters_reset_on_reuse(self, fig11_setup):
        plan, paces = fig11_setup
        executor = PlanExecutor(plan, StreamConfig(), stats_mode=True)
        executor.run(paces)
        first = {
            sid: unit.meter.snapshot()
            for sid, unit in executor.compiled.items()
        }
        executor.run(paces)
        second = {
            sid: unit.meter.snapshot()
            for sid, unit in executor.compiled.items()
        }
        assert first == second


class TestBufferCompaction:
    def _deltas(self, n, bits=1):
        return [Delta(("r%d" % i,), 1, bits) for i in range(n)]

    def test_compact_drops_only_consumed_prefix(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        first = self._deltas(10)
        buffer.append(first)
        assert reader.read_new() == [first]
        buffer.append(self._deltas(3))
        dropped = buffer.compact()
        assert dropped == 10
        assert buffer.end() == 13  # logical length unchanged
        assert buffer.held == 3
        assert [len(segment) for segment in reader.read_new()] == [3]
        assert reader.offset == buffer.end()

    def test_unread_buffer_holds_nothing(self):
        # retention is by readers: a log nobody reads only counts
        buffer = Buffer("b")
        buffer.append(self._deltas(5))
        assert buffer.held == 0 and buffer.base == buffer.end() == 5
        assert buffer.compact() == 0

    def test_late_reader_fails_loudly(self):
        # a reader registered after entries were discarded starts at
        # logical offset 0, which is behind the horizon: it must raise
        # on its first read -- with or without anything new to read --
        # and never skip the rows it missed
        buffer = Buffer("b")
        buffer.append(self._deltas(5))
        late = buffer.reader()
        with pytest.raises(ExecutionError, match="compaction horizon"):
            late.read_new()
        buffer.append(self._deltas(2))
        assert buffer.held == 2  # held for the reader that cannot use it
        with pytest.raises(ExecutionError, match="compaction horizon"):
            late.read_new()

    def test_reader_behind_horizon_raises(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append(self._deltas(4))
        reader.read_new()
        buffer.compact()
        stale = buffer.reader()  # new reader starts at logical offset 0
        with pytest.raises(ExecutionError):
            stale.read_new()

    def test_reset_rewinds_readers_and_base(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append(self._deltas(4))
        reader.read_new()
        buffer.compact()
        buffer.reset()
        assert buffer.base == 0 and buffer.held == 0 and reader.offset == 0
        buffer.append(self._deltas(2))
        assert [len(segment) for segment in reader.read_new()] == [2]

