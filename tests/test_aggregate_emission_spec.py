"""The production aggregate against its spec: a recorded replay.

The spec is the per-tuple reference ``AggregateExec`` (per-state
classes, one global ``(row, sign)`` dict, ``(sign, _sort_key(row))``
order).  Every batch a real run feeds an aggregate node is recorded,
then replayed -- advance by advance, the empty ones included -- through
the reference and through the production operator (group records, a
generated absorb and a generated per-group emission) on every lane
choice: all vector, the default dispatch, all row, and lanes alternating
batch by batch over the same records.  Each advance must emit the same
``(row, sign, bits)`` sequence with the same value types, charge the
WorkMeter the same (MIN/MAX rescans and state included) and leave the
same ``state_count``.
"""

import random

import pytest

from repro.engine.columns import ColumnBatch
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.mqo.nodes import OpNode, TableRef
from repro.physical import columnar, fused, operators
from repro.physical.hotpath import clear_compiled_caches
from repro.physical.operators import AggregateExec, _sort_key
from repro.physical.work import WorkMeter
from repro.relational.expressions import (
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    col,
)
from repro.relational.schema import Schema
from repro.relational.tuples import Delta
from repro.workloads.tpch import (
    ALL_QUERY_NAMES,
    add_lineitem_updates,
    build_workload,
    generate_catalog,
)

from .test_columnar_equivalence import fig11_setup, needs_numpy  # noqa: F401
from .util import (
    batch_of,
    deltas_of,
    make_toy_catalog,
    shared_plan_for,
    toy_query_total,
)

#: leg -> the ROW_LANE_MAX of its n-th advance
LANES = {
    "vector": lambda n: 0,
    "default": lambda n: columnar.ROW_LANE_MAX,
    "row": lambda n: 1 << 30,
    "alternating": lambda n: 0 if n % 2 else 1 << 30,
}


class _Feed:
    batch = ()

    def advance(self):
        return self.batch

    def reset(self):
        pass


def record_aggregate_inputs(monkeypatch, plan, paces):
    """Run ``plan`` once; ``(node, subplan mask, batch)`` for every
    advance of every production aggregate, in order."""
    recorded = []
    init = columnar.ColumnarAggregateExec.__init__

    class Tap:
        def __init__(self, op, child):
            self.op, self.child = op, child

        def advance(self):
            op = self.op
            batch = self.child.advance()
            recorded.append((op.node, op.subplan_mask, batch))
            return batch

        def release(self):
            self.child.release()

        def rewind(self):
            self.child.rewind()

    def tapped(self, node, child, *args, **kwargs):
        init(self, node, child, *args, **kwargs)
        self.child = Tap(self, child)

    with monkeypatch.context() as patch:
        patch.setattr(columnar.ColumnarAggregateExec, "__init__", tapped)
        clear_compiled_caches()
        PlanExecutor(plan, StreamConfig()).run(paces)
    return recorded


def _typed(out):
    # value types ride along: (3,) == (3.0,) == (True,)
    return [
        (d.row, tuple(map(type, d.row)), d.sign, d.bits)
        for d in deltas_of(out)
    ]


def replay(recorded, monkeypatch):
    """Feed ``recorded`` to the reference and to one production operator
    per lane schedule; returns every production emission, per node uid."""
    operators = {}
    emissions = {}
    lane_max = columnar.ROW_LANE_MAX
    for node, mask, batch in recorded:
        ops = operators.get(node.uid)
        if ops is None:
            ops = operators[node.uid] = [
                ("reference", AggregateExec(
                    node, _Feed(), mask, WorkMeter(), state_factor=0.3)),
            ] + [
                (lane, columnar.ColumnarAggregateExec(
                    node, _Feed(), mask, WorkMeter(), state_factor=0.3))
                for lane in LANES
            ]
            ops.append(0)  # advances so far
        advance = ops[-1]
        ops[-1] += 1
        outcomes = []
        for lane, op in ops[:-1]:
            if lane == "reference":
                op.child.batch = deltas_of(batch)
            else:
                monkeypatch.setattr(
                    columnar, "ROW_LANE_MAX",
                    lane_max if lane == "default" else LANES[lane](advance))
                op.child.batch = batch
            out = op.advance()
            outcomes.append(
                (_typed(out), op.meter.snapshot(), op.state_count))
            if lane == "row":
                emissions.setdefault(node.uid, []).append(outcomes[-1][0])
        monkeypatch.setattr(columnar, "ROW_LANE_MAX", lane_max)
        for (lane, op), outcome in zip(ops[1:-1], outcomes[1:]):
            assert outcome == outcomes[0], (node.uid, advance, lane)
            # whichever lanes absorbed them, the same values have flipped
            # the same SUM/AVG exactness ledgers
            assert op._exact_ok == ops[1][1]._exact_ok, (node.uid, lane)
    return emissions


def _batches(*batches):
    return [batch_of(list(batch), 2) for batch in batches]


def _node(group_by, aggs, mask):
    source = OpNode(
        "source", ref=TableRef("t", Schema.of("g", "v")), query_mask=mask)
    return OpNode("aggregate", children=[source], group_by=group_by,
                  aggs=aggs, query_mask=mask)


ALL_SPECS = [
    agg_sum(col("v"), "s"), agg_avg(col("v"), "a"), agg_count("c"),
    agg_min(col("v"), "lo"), agg_max(col("v") * 2, "hi"),
]


@needs_numpy
class TestRecordedReplay:
    def test_fig11_plan(self, fig11_setup, monkeypatch):  # noqa: F811
        plan, paces, _ = fig11_setup
        recorded = record_aggregate_inputs(monkeypatch, plan, paces)
        assert len({node.uid for node, _, _ in recorded}) >= 20
        assert any(len(batch) == 0 for _, _, batch in recorded)
        emissions = replay(recorded, monkeypatch)
        assert sum(len(out) for outs in emissions.values() for out in outs) > 400

    def test_one_aggregate_serving_three_filtered_queries(self, monkeypatch):
        # the service_churn shape: one aggregate node, three queries whose
        # filters differ, so one group's queries emit different rows
        catalog = make_toy_catalog()
        events = catalog.get("events")
        rng = random.Random(3)
        updates = [
            (row, row[:1] + (float(rng.randint(1, 9)),) + row[2:])
            for row in rng.sample(sorted(set(events.rows)), 120)
        ]
        events.apply_updates(updates, rng)
        queries = [
            toy_query_total(catalog, qid, day_filter)
            for qid, day_filter in enumerate((None, 60, 25))
        ]
        plan = shared_plan_for(catalog, queries)
        recorded = record_aggregate_inputs(
            monkeypatch, plan, {subplan.sid: 7 for subplan in plan.subplans})
        shared = [mask for _, mask, _ in recorded if mask == 0b111]
        assert shared, "the three queries do not share their aggregate"
        emissions = replay(recorded, monkeypatch)
        # the tie-break case fired: one group, one sign, two different rows
        assert any(
            len({(row[0], sign) for row, _, sign, _ in out}) < len(out)
            for outs in emissions.values() for out in outs
        )

    def test_edge_cases(self, monkeypatch):
        a, b = 0b01, 0b10
        both = a | b
        node = _node(["g"], ALL_SPECS, both)
        recorded = [(node, both, batch) for batch in _batches(
            [Delta(("x", 2.0), 1, both), Delta(("y", 0.5), 1, a)],
            # a group emptied and re-created inside one batch
            [Delta(("x", 2.0), -1, both), Delta(("x", 7.0), 1, both)],
            # its queries now emit different rows (the tie-break), and a
            # retraction of the extremum rescans
            [Delta(("x", 9.0), 1, a), Delta(("x", 1.0), 1, b)],
            [Delta(("x", 9.0), -1, a)],
            # a delete of a group's only row, and one query leaving a
            # group another keeps
            [Delta(("y", 0.5), -1, a), Delta(("x", 1.0), -1, b)],
            [],
            # rows no query of the mask wants touch nothing
            [Delta(("z", 1.0), 1, 0b100)],
            # a group created and emptied in one batch never emits
            [Delta(("w", 3.0), 1, both), Delta(("w", 3.0), -1, both)],
            [Delta(("x", 7.0), -1, both)],
        )]
        emissions = replay(recorded, monkeypatch)[node.uid]
        assert [len(out) for out in emissions] == [2, 2, 3, 2, 3, 0, 0, 0, 1]
        assert emissions[2] == sorted(
            emissions[2], key=lambda e: (e[2], _sort_key(e[0])))

    def test_global_and_wide_key_aggregates(self, monkeypatch):
        recorded = []
        for group_by, mask in (([], 0b1), ([], 0b11), (["g", "v"], 0b11)):
            node = _node(group_by, ALL_SPECS, mask)
            recorded += [(node, mask, batch) for batch in _batches(
                [Delta(("x", 2.5), 1, 0b11), Delta(("y", 4.0), 1, 0b01)],
                [Delta(("x", 2.5), -1, 0b11), Delta(("y", 1.0), 1, 0b10)],
                [],
                [Delta(("y", 4.0), -1, 0b01), Delta(("y", 1.0), -1, 0b10)],
            )]
        emissions = replay(recorded, monkeypatch)
        assert all(out for outs in emissions.values()
                   for out in (outs[0], outs[1], outs[3]))
        assert all(outs[2] == [] for outs in emissions.values())

    def test_negative_multiplicity_raises_like_the_reference(self):
        from repro.errors import ExecutionError

        for mask in (0b1, 0b11):
            node = _node(["g"], [agg_sum(col("v"), "s")], mask)
            for cls in (AggregateExec, columnar.ColumnarAggregateExec):
                feed = _Feed()
                feed.batch = [Delta(("x", 1.0), -1, mask)]
                if cls is columnar.ColumnarAggregateExec:
                    feed.batch = batch_of(feed.batch, 2)
                with pytest.raises(ExecutionError, match="negative multiplicity"
                                   r" in group \('x',\) for q0"):
                    cls(node, feed, mask, WorkMeter()).advance()


@needs_numpy
class TestEmissionCosts:
    """What the eager regime no longer pays, as counts that repeat."""

    @pytest.fixture(scope="class")
    def eager_plan(self):
        catalog = generate_catalog(scale=0.05, seed=5)
        add_lineitem_updates(catalog, fraction=0.25, seed=11)
        queries = build_workload(catalog, ALL_QUERY_NAMES)
        plan = shared_plan_for(catalog, queries)
        paces = {
            subplan.sid: 16 if subplan.child_subplans() else 48
            for subplan in plan.subplans
        }
        return plan, paces

    def test_sort_keys_per_new_group_and_nothing_per_row(
        self, eager_plan, monkeypatch
    ):
        plan, paces = eager_plan
        keyed, coalesced, emits = [], [], []
        current = []

        def sort_key(row):
            # always a group key, never aggregate values
            assert len(row) == len(current[-1].node.group_by)
            keyed.append(row)
            return _sort_key(row)

        monkeypatch.setattr(fused, "_sort_key", sort_key)
        monkeypatch.setattr(
            fused, "_coalesce", lambda *args: coalesced.append(args))
        emit = columnar.ColumnarAggregateExec._emit

        def spy(op):
            touched = len(op._touched)
            kernel_calls = []
            kernels = op._kernels
            op._kernels = kernels._replace(emit=lambda *args: (
                kernel_calls.append(1) or kernels.emit(*args)))
            current.append(op)
            out = emit(op)
            current.pop()
            op._kernels = kernels
            emits.append((op.node, deltas_of(out)))
            if not touched:
                # nothing touched: the shared empty batch, no kernel call
                assert out is ColumnBatch.empty(out.width)
                assert not kernel_calls
            return out

        monkeypatch.setattr(columnar.ColumnarAggregateExec, "_emit", spy)

        def reference_only(self, *args):
            raise AssertionError(
                "a production run built a %s" % type(self).__name__)

        for name in ("_GroupQueryState", "_SumState", "_CountState",
                     "_AvgState"):
            monkeypatch.setattr(
                getattr(operators, name), "__init__", reference_only)
        clear_compiled_caches()  # kernels bind _sort_key when generated
        executor = PlanExecutor(plan, StreamConfig())
        try:
            executor.run(paces, collect_results=False)
            first = len(keyed), len(emits)
            executor.run(paces, collect_results=False)
        finally:
            clear_compiled_caches()  # and must not outlive the spies
        # the counts repeat exactly, window after window
        assert (len(keyed), len(emits)) == (2 * first[0], 2 * first[1])
        del keyed[first[0]:], emits[first[1]:]
        # every aggregate of the 22-query plan serves one query: nothing
        # is coalesced, so no container keyed by emitted rows is built
        assert not coalesced
        # one _sort_key call per group (re)appearing in a node's output
        live = {}
        appearances = 0
        for node, out in emits:
            before = {}
            for d in out:
                key = (node.uid, d.row[:len(node.group_by)])
                before.setdefault(key, live.get(key, 0))
                live[key] = live.get(key, 0) + d.sign
            appearances += sum(
                1 for key, n in before.items() if not n and live[key])
        assert len(keyed) == appearances > 100
        assert sum(len(out) for _, out in emits) > 3 * len(keyed)
        assert sum(1 for _, out in emits if not out) > 100
