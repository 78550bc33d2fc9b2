"""The compiled window program: integer targets, replay, targeted drains."""

from fractions import Fraction

import pytest

from repro import obs
from repro.engine.executor import PlanExecutor, TriggerPoint
from repro.engine.stream import StreamConfig, TableStream
from repro.errors import ExecutionError
from repro.fuzz.reference import ReferenceExecutor
from repro.mqo.merge import build_unshared_plan
from repro.obs import OBS

from .test_columnar_equivalence import fig11_setup  # noqa: F401 (fixture)
from .test_executor_rebind import fingerprint, mixed_paces, toy_queries
from .util import shared_plan_for, toy_query_total


class TestIntegerTargets:
    def test_match_the_rational_product_for_every_pace_up_to_64(
        self, toy_catalog
    ):
        stream = TableStream(toy_catalog.get("items"))
        sizes = (0, 1, 2, 3, 63, 64, 65, 999, 1000, 2 ** 31 + 7)
        for k in range(1, 65):
            for i in range(1, k + 1):
                fraction = Fraction(i, k)
                point = TriggerPoint(fraction, [])
                assert point.final == (i == k)
                for n in sizes:
                    stream.log = range(n)  # only its length is read
                    assert stream._target(point) == int(fraction * n), (i, k, n)
                    assert stream._target(fraction) == int(fraction * n)

    def test_past_the_trigger_point_clamps_to_the_log(self, toy_catalog):
        stream = TableStream(toy_catalog.get("items"))
        assert stream._target(Fraction(3, 2)) == len(stream.log)
        assert len(stream.deltas_until(Fraction(3, 2))) == len(stream.log)
        assert stream.delivered == len(stream.log)

    def test_records_keep_carrying_fractions(self, toy_catalog):
        plan = shared_plan_for(toy_catalog, toy_queries(toy_catalog))
        executor = PlanExecutor(plan)
        for _ in range(2):  # compiled, then replayed from the memo
            run = executor.run(mixed_paces(plan))
            assert {type(r.fraction) for r in run.records} == {Fraction}
            assert [r.fraction for r in run.executions_of(0)] == [
                Fraction(i, 6) for i in range(1, 7)
            ]


class TestReplayEqualsFreshExecutors:
    def test_alternating_and_repeated_pace_configurations(self, toy_catalog):
        plan = shared_plan_for(toy_catalog, toy_queries(toy_catalog))
        eager = mixed_paces(plan)
        lazy = {sid: 1 for sid in eager}
        executor = PlanExecutor(plan)
        for paces in (eager, lazy, lazy, eager, eager, lazy):
            kept = executor.run(paces)
            fresh = PlanExecutor(plan).run(paces)
            assert fingerprint(kept) == fingerprint(fresh)
            assert kept.pace_config == paces

    def test_same_paces_reuse_the_program_and_new_paces_replace_it(
        self, toy_catalog
    ):
        plan = shared_plan_for(toy_catalog, toy_queries(toy_catalog))
        eager = mixed_paces(plan)
        executor = PlanExecutor(plan)
        executor.run(eager)
        program = executor._program[1]
        executor.run(dict(eager))  # an equal configuration, another dict
        assert executor._program[1] is program
        executor.run({sid: 1 for sid in eager})
        assert executor._program[1] is not program

    def test_explicit_schedules_are_not_memoised(self, toy_catalog):
        plan = shared_plan_for(toy_catalog, toy_queries(toy_catalog))
        eager = mixed_paces(plan)
        executor = PlanExecutor(plan)
        by_pace = executor.run(eager)
        memo = executor._program
        explicit = executor.run_schedule({
            sid: [Fraction(i, pace) for i in range(1, pace + 1)]
            for sid, pace in eager.items()
        })
        assert executor._program is memo
        assert fingerprint(explicit) == fingerprint(by_pace)
        assert explicit.pace_config == eager


HALF = Fraction(1, 2)

#: the rejected schedules of tests/test_engine_edge_cases.py
BAD_SCHEDULES = [
    ("trigger point", {0: [HALF]}),
    (r"outside \(0, 1\]", {0: [Fraction(0), Fraction(1)]}),
    (r"outside \(0, 1\]", {0: [HALF, Fraction(3, 2), Fraction(1)]}),
    ("strictly", {0: [HALF, HALF, Fraction(1)]}),
    ("no execution fractions", {}),
]


class TestErrorsRaiseEveryTime:
    @pytest.mark.parametrize("match, schedule", BAD_SCHEDULES)
    def test_bad_schedule(self, toy_catalog, match, schedule):
        plan = build_unshared_plan(toy_catalog, [toy_query_total(toy_catalog, 0)])
        executor = PlanExecutor(plan)
        for _ in range(2):
            with pytest.raises(ExecutionError, match=match):
                executor.run_schedule(schedule)
        # and the executor still runs a good one afterwards
        assert len(executor.run_schedule({0: [Fraction(1)]}).records) == 1

    def test_bad_paces(self, toy_catalog):
        plan = shared_plan_for(toy_catalog, toy_queries(toy_catalog))
        good = mixed_paces(plan)
        parent = next(s for s in plan.subplans if s.child_subplans())
        inverted = {**good, parent.sid: 12}
        missing = {sid: p for sid, p in good.items() if sid != parent.sid}
        executor = PlanExecutor(plan)
        for _ in range(2):
            with pytest.raises(ExecutionError, match="exceeds child"):
                executor.run(inverted)
            with pytest.raises(ExecutionError, match="no pace for subplan"):
                executor.run(missing)
        reference = fingerprint(PlanExecutor(plan).run(good))
        assert fingerprint(executor.run(good)) == reference
        # a rejected configuration does not displace the kept program
        memo = executor._program
        with pytest.raises(ExecutionError, match="exceeds child"):
            executor.run(inverted)
        assert executor._program is memo
        assert fingerprint(executor.run(good)) == reference


class TestTargetedCompaction:
    """A step drains only buffers a due subplan reads; the old loop swept
    every buffer after every step.  Both must leave the same memory.

    Each buffer's compaction counter fixes its end state: what a window
    appends is the same either way, and whatever no reader was
    registered for is dropped on append in both, so equal counters mean
    equal ``(base, held)`` as the window ends.
    """

    def buffers(self, executor):
        _, table_buffers, compiled, _, _ = executor._runtime
        every = list(table_buffers.values())
        every.extend(unit.buffer for unit in compiled.values())
        return every

    def compacted(self):
        return {
            key: metric["value"]
            for key, metric in OBS.metrics.snapshot().items()
            if key.startswith("engine.buffer.compacted_deltas")
        }

    @pytest.mark.parametrize("batched", (True, False))
    def test_equals_the_full_sweep_on_fig11(self, fig11_setup, batched):
        # the production tree (True) and the per-tuple reference's
        plan, paces, _ = fig11_setup
        executor_class = PlanExecutor if batched else ReferenceExecutor
        executor = executor_class(plan, StreamConfig())
        obs.enable(process_name="test-compaction")
        try:
            targeted, swept = self.targeted_then_swept(executor, paces)
        finally:
            obs.disable()
        assert any(targeted.values())
        assert targeted == swept

    def targeted_then_swept(self, executor, paces):
        executor.run(paces, collect_results=False)
        targeted = self.compacted()
        steps = executor._program[1].steps
        every = self.buffers(executor)
        assert any(len(step.drains) < len(every) / 2 for step in steps)
        for step in steps:
            step.drains = every
        obs.reset()
        executor.run(paces, collect_results=False)
        return targeted, self.compacted()
