"""Cross-validation: emission profiles vs the physical engine's buffers.

The cost model's emission profiles predict what a consumer reads from a
child subplan's compacted buffer at each pace.  These tests compare those
predictions against the record counts the physical engine actually
delivers, for both lazy and eager consumers.
"""

import pytest

from repro.cost.memo import PlanCostModel
from repro.cost.model import CostConfig
from repro.engine.calibrate import calibrate_plan
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.mqo.merge import build_blocking_cut_plan
from repro.physical.columnar import ColumnarSourceExec

from .util import make_toy_catalog, toy_query_max


@pytest.fixture(scope="module")
def chain():
    """A two-subplan chain: SUM-per-key below, MAX above (Q15 shape)."""
    catalog = make_toy_catalog(seed=51, n_events=600)
    query = toy_query_max(catalog, 0)
    plan = build_blocking_cut_plan(catalog, [query])
    config = StreamConfig()
    calibrate_plan(plan, config)
    model = PlanCostModel(plan, CostConfig(state_factor=config.state_factor))
    root = plan.query_roots[0]
    bottom = root.child_subplans()[0]
    return catalog, plan, config, model, root, bottom


def _consumed_records(plan, config, paces, top_sid):
    """Count the delta records the top subplan's source actually scanned.

    A stats run is the production run plus tallies, and it keeps them
    for the statistics walk that follows it: the source's
    ``scanned_total`` is the count calibration reports as its
    ``NodeStats.scanned_total``.
    """
    executor = PlanExecutor(plan, config, stats_mode=True)
    executor.run(paces, collect_results=False)
    unit = executor.compiled[top_sid]

    def find_source(exec_op):
        if isinstance(exec_op, ColumnarSourceExec):
            return exec_op
        for attr in ("child", "left", "right"):
            child = getattr(exec_op, attr, None)
            if child is not None:
                found = find_source(child)
                if found is not None:
                    return found
        return None

    return find_source(unit.root_exec).scanned_total


class TestProfileVsEngine:
    def test_lazy_consumer_record_counts_match(self, chain):
        catalog, plan, config, model, root, bottom = chain
        paces = {bottom.sid: 12, root.sid: 1}
        evaluation = model.evaluate(paces, collect_inputs=True)
        profile = evaluation.subplan_outputs[bottom.sid]
        predicted = profile.window(1, 1).total
        actual = _consumed_records(plan, config, paces, root.sid)
        assert predicted == pytest.approx(actual, rel=0.35)

    def test_eager_consumer_record_counts_match(self, chain):
        catalog, plan, config, model, root, bottom = chain
        paces = {bottom.sid: 12, root.sid: 12}
        evaluation = model.evaluate(paces, collect_inputs=True)
        profile = evaluation.subplan_outputs[bottom.sid]
        predicted = sum(profile.window(i, 12).total for i in range(1, 13))
        actual = _consumed_records(plan, config, paces, root.sid)
        assert predicted == pytest.approx(actual, rel=0.35)

    def test_lazy_consumer_reads_far_less_than_eager(self, chain):
        catalog, plan, config, model, root, bottom = chain
        lazy = _consumed_records(
            plan, config, {bottom.sid: 12, root.sid: 1}, root.sid
        )
        eager = _consumed_records(
            plan, config, {bottom.sid: 12, root.sid: 12}, root.sid
        )
        assert lazy < eager * 0.7

    def test_profile_reflects_compaction(self, chain):
        catalog, plan, config, model, root, bottom = chain
        paces = {bottom.sid: 12, root.sid: 1}
        evaluation = model.evaluate(paces, collect_inputs=True)
        profile = evaluation.subplan_outputs[bottom.sid]
        lazy_read = profile.window(1, 1).total
        eager_read = sum(profile.window(i, 12).total for i in range(1, 13))
        assert lazy_read < eager_read

    def test_window_totals_sum_consistently(self, chain):
        """Profile windows at the producer's own pace sum to total_stat."""
        catalog, plan, config, model, root, bottom = chain
        evaluation = model.evaluate({bottom.sid: 8, root.sid: 1})
        profile = evaluation.subplan_outputs[bottom.sid]
        summed = sum(profile.window(i, 8).total for i in range(1, 9))
        assert summed == pytest.approx(profile.total_stat().total, rel=1e-6)
