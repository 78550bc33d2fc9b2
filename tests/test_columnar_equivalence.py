"""The production operators' two lanes against the per-tuple reference.

Mirror of ``test_hotpath_equivalence``: on the fig11 workload the
production operators (docs/PERFORMANCE.md) must charge the WorkMeter
*exactly* like the reference at every lane choice -- the default size
dispatch, every batch forced onto the vector lane, every batch forced
onto the row lane -- because all of them count the same logical deltas,
just in different memory layouts.  Query results are bit-identical on
the row lane and compared with the engine's standard float tolerance
wherever the vector lane may run (array segment sums may associate
differently).

The buffer segment log (producers append ``ColumnBatch`` segments,
readers get the same objects back, nothing converts them to deltas)
gets direct unit coverage at the bottom, then the two inputs that rule
the vector lane out -- no NumPy, query ids of 62 and above -- and, at
the very end, that NumPy runs only once a batch takes the vector lane.
"""

import subprocess
import sys

import pytest

from repro.engine import columns
from repro.engine.buffers import Buffer
from repro.engine.columns import ColumnBatch
from repro.engine.compare import assert_results_close
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.fuzz.naive import evaluate
from repro.fuzz.reference import ReferenceExecutor
from repro.physical.hotpath import clear_compiled_caches
from repro.relational.tuples import Delta
from repro.workloads.tpch import (
    ALL_QUERY_NAMES,
    add_lineitem_updates,
    build_workload,
    generate_catalog,
)

from .util import (
    batch_of,
    deltas_of,
    reference_calibration,
    shared_plan_for,
)

needs_numpy = pytest.mark.skipif(
    not columns.available(), reason="the vector lane needs numpy",
)


def work_fingerprint(result):
    """Every WorkMeter-derived surface of a RunResult, exact."""
    return {
        "total_work": result.total_work,
        "records": [
            (r.sid, r.fraction, r.work, r.latency_work, r.output_count)
            for r in result.records
        ],
        "subplan_total_work": result.subplan_total_work,
        "subplan_final_work": result.subplan_final_work,
        "query_final_work": result.query_final_work,
    }


@pytest.fixture(scope="module")
def fig11_setup():
    catalog = generate_catalog(scale=0.08, seed=5)
    add_lineitem_updates(catalog, fraction=0.05, seed=11)
    queries = build_workload(catalog, ALL_QUERY_NAMES)
    plan = shared_plan_for(catalog, queries)
    paces = {
        subplan.sid: 2 if subplan.child_subplans() else 6
        for subplan in plan.subplans
    }
    return plan, paces, queries


def run_with(plan, paces, executor=PlanExecutor):
    clear_compiled_caches()
    return executor(plan, StreamConfig()).run(paces)


def assert_columnar_equivalent(columnar, reference, queries):
    """Exactly equal work, tolerance-close results."""
    assert work_fingerprint(columnar) == work_fingerprint(reference)
    assert set(columnar.query_results) == set(reference.query_results)
    for query in queries:
        assert_results_close(
            columnar.query_results[query.query_id],
            reference.query_results[query.query_id],
            context="columnar vs reference: %s" % query.name,
        )


@needs_numpy
class TestFig11WorkIdentity:
    def test_columnar_matches_reference(self, fig11_setup):
        plan, paces, queries = fig11_setup
        reference = run_with(plan, paces, ReferenceExecutor)
        columnar = run_with(plan, paces)
        assert columnar.metadata["engine_mode"] == "columnar"
        assert reference.metadata["engine_mode"] == "reference"
        assert_columnar_equivalent(columnar, reference, queries)

    def test_uniform_pace_identity(self, fig11_setup, monkeypatch):
        # a threshold inside this catalog's batch sizes (its largest
        # table has 528 rows): lanes alternate batch by batch, operator
        # by operator, over shared state
        from repro.physical import columnar as columnar_mod

        plan, _, queries = fig11_setup
        paces = {subplan.sid: 3 for subplan in plan.subplans}
        reference = run_with(plan, paces, ReferenceExecutor)
        monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", 64)
        columnar = run_with(plan, paces)
        assert_columnar_equivalent(columnar, reference, queries)

    def test_forced_vector_lane(self, fig11_setup, monkeypatch):
        # ROW_LANE_MAX = 0 sends every non-empty batch of every operator
        # -- source chain, decorations, join probe, aggregate absorb --
        # through the fused/vectorised kernels, including the
        # single-digit trickles the default keeps on the row lane; it
        # must charge and emit exactly the same (docs/PERFORMANCE.md)
        from repro.physical import columnar as columnar_mod

        plan, paces, queries = fig11_setup
        reference = run_with(plan, paces, ReferenceExecutor)
        monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", 0)
        columnar = run_with(plan, paces)
        assert_columnar_equivalent(columnar, reference, queries)

    def test_forced_row_lane(self, fig11_setup, monkeypatch):
        # the inverse: a huge threshold keeps every batch of every
        # operator on the row lane, which is the reference bit for bit
        from repro.physical import columnar as columnar_mod

        plan, paces, _ = fig11_setup
        reference = run_with(plan, paces, ReferenceExecutor)
        monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", 1 << 30)
        columnar = run_with(plan, paces)
        assert work_fingerprint(columnar) == work_fingerprint(reference)
        assert columnar.query_results == reference.query_results

    def test_two_lanes_agree_on_every_batch(self, fig11_setup, monkeypatch):
        # Two implementations of one contract, neither behind a global
        # switch: the generated row kernels (small batches) and the
        # generated fused vector kernels (large batches).  Record every
        # batch the fig11 run feeds a source, a decoration or an
        # aggregate, then replay it through both -- as a window runs
        # them and as calibration does (stats_mode: the same dispatch
        # between tallies) -- and demand the same rows, signs, bits,
        # WorkMeter charges and counters.  The row kernels are also held
        # to PR 16's hand-written row loop over the tree-walking
        # expression spec (``_reference_apply_rows`` below), and the
        # generated absorb loop to the per-tuple reference aggregate.
        # Recording runs with ROW_LANE_MAX = 0 so every non-empty batch
        # reaches a fused kernel and node coverage does not depend on
        # fig11's batch sizes.
        from repro.physical import columnar as columnar_mod
        from repro.physical.work import WorkMeter

        plan, paces, _ = fig11_setup
        calls = _record_fused_calls(monkeypatch, columnar_mod)
        monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", 0)
        clear_compiled_caches()
        PlanExecutor(plan, StreamConfig()).run(paces)
        monkeypatch.undo()

        nodes = [
            node for subplan in plan.subplans for node in _walk(subplan.root)
        ]
        by_kind = {
            kind: {node.uid for node, _ in recorded}
            for kind, recorded in calls.items()
        }
        assert by_kind["src"] == {n.uid for n in nodes if n.kind == "source"}
        # only aggregates that absorbed a non-empty batch at this scale
        assert by_kind["agg"] and by_kind["agg"] <= {
            n.uid for n in nodes if n.kind == "aggregate"
        }
        # an empty batch returns before any lane runs, so a join or an
        # aggregate records only its non-empty outputs; every one's
        # decorations are replayed on an empty batch too, which keeps
        # coverage at all of them whatever fig11's traffic looks like
        decorated = [n for n in nodes if n.kind != "source"]
        assert by_kind["deco"] <= {n.uid for n in decorated}
        deco_calls = [
            (node, ColumnBatch.empty(len(node.core_schema)))
            for node in decorated
        ] + [(node, batch) for node, (batch, _) in calls["deco"]]

        #: (ROW_LANE_MAX, stats_mode): each lane, in a window and calibrating
        lanes = ((1 << 30, False), (0, False), (1 << 30, True), (0, True))

        for node, (batch, mask, _) in calls["src"]:
            outputs, meters, tallies = [], [], []
            for lane_max, stats_mode in lanes:
                monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", lane_max)
                buffer = Buffer("replay")
                meter = WorkMeter()
                source = columnar_mod.ColumnarSourceExec(
                    node, buffer.reader(), mask, meter, stats_mode
                )
                buffer.append(batch)
                outputs.append(source.advance())
                meters.append(meter)
                # each lane's kernel is generated when the lane is taken,
                # by a stats run like by any other
                decorations = source.decorations
                assert (decorations.row_kernel is not None) == (lane_max > 0)
                assert (decorations.fused is not None) == (lane_max == 0)
                tallies.append((
                    source.kept_total, source.kept_per_q,
                    decorations.filter_in_per_q, decorations.filter_out_per_q,
                ))
            row_lane, fused, stats_rows, stats_fused = outputs
            _assert_same_deltas(row_lane, fused)
            _assert_batches_identical(row_lane, stats_rows)  # bit for bit
            _assert_batches_identical(fused, stats_fused)
            _assert_meters_identical(*meters)
            assert tallies[0] == tallies[1] == (0, {}, {}, {})
            assert tallies[2] == tallies[3]
            assert tallies[2][0] == sum(
                1 for bits in batch.bit_list() if bits & mask)
            assert bool(tallies[2][2]) == bool(
                node.filters and tallies[2][0])
            _assert_row_kernel_matches_reference(node, batch, mask)

        # each lane called by name, not through the size dispatch: an
        # empty batch would never reach the kernel that way
        for node, batch in deco_calls:
            meters = WorkMeter(), WorkMeter()
            row_lane = columnar_mod.ColumnarDecorations(node).apply_rows(
                batch, meters[0], None
            )
            fused = columnar_mod.fused_decoration_kernel(node)(
                batch, meters[1]
            )
            _assert_same_deltas(row_lane, fused)
            _assert_meters_identical(*meters)
            _assert_row_kernel_matches_reference(node, batch, None)

        # the aggregate's fused part is the input-expression kernel: its
        # arrays must match the columns of the scalar closures' per-row
        # values dtype for dtype and bit for bit.  (What the operator
        # does with them -- both lanes, the emission, against the
        # per-tuple reference -- is replayed batch by batch in
        # tests/test_aggregate_emission_spec.py.)
        for node, (batch, n) in calls["agg"]:
            fused = columnar_mod.fused_aggregate_inputs(node)(batch, n)
            schema = node.children[0].out_schema
            assert len(fused) == len(node.aggs)
            for array, spec in zip(fused, node.aggs):
                scalar = spec.expr.compile(schema)
                _assert_arrays_identical(array, columns.column_array(
                    [scalar(row) for row in batch.rows()]))

    def test_fused_kernels_actually_fire(self, fig11_setup, monkeypatch):
        # guard against the replay test passing vacuously because fusion
        # silently stopped engaging: the size dispatch must hand batches
        # above ROW_LANE_MAX to every kernel family, and batches at or
        # below it to the row lane.  The threshold is lowered to split
        # this catalog's traffic (its largest table has 528 rows, far
        # below the default).
        from repro.physical import columnar as columnar_mod
        from repro.physical import hotpath

        plan, paces, _ = fig11_setup
        monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", 64)
        calls = _record_fused_calls(monkeypatch, columnar_mod)
        row_lane = []
        apply_rows = columnar_mod.ColumnarDecorations.apply_rows

        def spy(self, batch, meter, mask):
            row_lane.append(len(batch))
            return apply_rows(self, batch, meter, mask)

        monkeypatch.setattr(
            columnar_mod.ColumnarDecorations, "apply_rows", spy
        )
        clear_compiled_caches()
        PlanExecutor(plan, StreamConfig()).run(paces)
        kernels = [
            artifact
            for per_node in hotpath._ARTIFACTS.values()
            for kind, artifact in per_node.items()
            if (kind if isinstance(kind, str) else kind[0]).startswith("fused-")
        ]
        assert kernels, "no fused kernels were compiled during the run"
        assert all(hasattr(k, "fused_source") for k in kernels)
        threshold = columnar_mod.ROW_LANE_MAX
        for kind, seen in calls.items():
            assert seen, "no batch reached the fused %s kernel" % kind
            assert min(len(args[0]) for _, args in seen) > threshold
        assert row_lane and max(row_lane) <= threshold


#: kernel family -> the getter name ``repro.physical.columnar`` binds
_FUSED_GETTERS = {
    "src": "fused_source_kernel",
    "deco": "fused_decoration_kernel",
    "agg": "fused_aggregate_inputs",
}


def _record_fused_calls(monkeypatch, columnar_mod):
    """Spy on every vector kernel: family -> ``[(node, call args)]``."""
    calls = {kind: [] for kind in _FUSED_GETTERS}

    def recording(kind, getter):
        def get(node):
            kernel = getter(node)

            def record(*args):
                calls[kind].append((node, args))
                return kernel(*args)

            return record

        return get

    for kind, name in _FUSED_GETTERS.items():
        monkeypatch.setattr(
            columnar_mod, name, recording(kind, getattr(columnar_mod, name)))
    return calls


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def _assert_arrays_identical(left, right):
    assert left.dtype == right.dtype and left.shape == right.shape
    if left.dtype == object:
        assert left.tolist() == right.tolist()
    else:  # bytes, not ==: NaN payloads and signed zeros count
        assert left.tobytes() == right.tobytes()


def _assert_batches_identical(left, right):
    assert left.width == right.width
    for a, b in zip(left.columns, right.columns):
        _assert_arrays_identical(a, b)
    _assert_arrays_identical(left.signs, right.signs)
    _assert_arrays_identical(left.bits, right.bits)


def _assert_python_typed(rows):
    for row in rows:
        for value in row:
            assert type(value).__module__ == "builtins", repr(value)


def _reference_apply_rows(node, batch, meter, mask):
    """PR 16's hand-written row lane, kept as the row kernels' reference.

    (source mask ->) mark filters -> projection in one loop, calling one
    function per filter and per projected column -- here the
    tree-walking spec of :mod:`repro.fuzz.naive`, so nothing in it
    is generated code.  Returns ``(rows, signs, bits)`` lists.
    """
    schema = node.core_schema
    pairs = [
        (1 << qid, ~(1 << qid), predicate)
        for qid, predicate in sorted(node.filters.items())
    ]
    union = node.union_projection()
    masked = 0
    out_rows, out_signs, out_bits = [], [], []
    for row, sign, bits in zip(
        batch.rows(), batch.signs.tolist(), batch.bits.tolist()
    ):
        if mask is not None:
            bits &= mask
            if not bits:
                continue
            masked += 1
        for bit, clear, predicate in pairs:
            if bits & bit and not evaluate(predicate, row, schema):
                bits &= clear
        if not bits:
            continue
        if union is not None:
            row = tuple(evaluate(expr, row, schema) for _, expr in union)
        out_rows.append(row)
        out_signs.append(sign)
        out_bits.append(bits)
    if pairs:
        meter.charge_input(
            "filter:%d" % node.uid, len(batch) if mask is None else masked)
    if union is not None:
        meter.charge_input("proj:%d" % node.uid, len(out_rows))
    return out_rows, out_signs, out_bits


def _assert_row_kernel_matches_reference(node, batch, mask):
    from repro.physical.fused import fused_row_kernel
    from repro.physical.work import WorkMeter

    meters = WorkMeter(), WorkMeter()
    kernel = fused_row_kernel(node, source=mask is not None)
    out = kernel(batch, mask, meters[0])
    rows, signs, bits = _reference_apply_rows(node, batch, meters[1], mask)
    assert list(out.rows()) == rows
    assert [tuple(map(type, row)) for row in out.rows()] == [
        tuple(map(type, row)) for row in rows
    ]
    # list-backed: the kernel's own lists, no array was ever built
    assert list(out.sign_list()) == signs
    assert list(out.bit_list()) == bits
    # (a chain with nothing to do hands its input through)
    assert out is batch or not rows or (
        out._signs is None and out._bits is None)
    assert len(out) == len(rows)
    _assert_meters_identical(*meters)


def _assert_same_deltas(left, right):
    """Same rows (values and Python types), signs and bits, in order.

    The row lane emits row-backed batches and the kernels column-backed
    ones, so equality is stated where consumers meet them: on the rows.
    """
    assert left.width == right.width
    # list(): the shared empty batch's row store is an (immutable) tuple
    assert list(left.rows()) == list(right.rows())
    assert [tuple(map(type, row)) for row in left.rows()] == [
        tuple(map(type, row)) for row in right.rows()
    ]
    _assert_python_typed(left.rows())
    assert left.signs.tolist() == right.signs.tolist()
    assert left.bits.tolist() == right.bits.tolist()


class _Feed:
    """A scripted child operator: hands over whatever ``batch`` is set."""

    batch = None

    def advance(self):
        return self.batch


def _assert_meters_identical(first, *others):
    for other in others:
        assert first.snapshot() == other.snapshot()
        assert (first.input_units, first.output_units, first.rescan_units,
                first.state_units) == (other.input_units, other.output_units,
                                       other.rescan_units, other.state_units)


@needs_numpy
class TestRowLaneBoundary:
    """The size dispatch at its edge, on a hand-built pipeline.

    ``source(filters, projection) JOIN source -> aggregate`` is fed
    batches of ``ROW_LANE_MAX - 1``, ``ROW_LANE_MAX`` and
    ``ROW_LANE_MAX + 1`` rows, an all-filtered batch and an empty one;
    the production tree must emit and charge exactly what the reference
    tree does whichever lane each operator picks, ``n <= ROW_LANE_MAX`` must
    be the comparison, and an all-empty execution must hand out the
    shared empty batch instead of allocating one.
    """

    MASK = 0b11

    def _nodes(self):
        from repro.mqo.nodes import OpNode, TableRef
        from repro.relational.expressions import (
            agg_avg, agg_count, agg_max, agg_sum, col,
        )
        from repro.relational.schema import Schema

        left = OpNode(
            "source", ref=TableRef("l", Schema.of("k", "v", "f")),
            filters={0: col("v") > 10, 1: col("f") == "x"},
            projections={
                0: (("k", col("k")), ("w", col("v") * 2)),
                1: (("k", col("k")), ("f", col("f"))),
            },
            query_mask=self.MASK,
        )
        right = OpNode(
            "source", ref=TableRef("r", Schema.of("rk", "g")),
            query_mask=self.MASK,
        )
        join = OpNode(
            "join", children=[left, right], left_keys=["k"],
            right_keys=["rk"], query_mask=self.MASK,
        )
        aggregate = OpNode(
            "aggregate", children=[join], group_by=["g"],
            aggs=[agg_sum(col("w"), "s"), agg_avg(col("w"), "a"),
                  agg_max(col("k"), "m"), agg_count("c")],
            query_mask=self.MASK,
        )
        return left, right, join, aggregate

    def _tree(self, nodes, columnar):
        from repro.physical import columnar as columnar_mod
        from repro.physical import operators
        from repro.physical.work import WorkMeter

        left, right, join, aggregate = nodes
        if columnar:
            source_cls = columnar_mod.ColumnarSourceExec
            join_cls = columnar_mod.ColumnarJoinExec
            aggregate_cls = columnar_mod.ColumnarAggregateExec
        else:
            source_cls = operators.SourceExec
            join_cls = operators.JoinExec
            aggregate_cls = operators.AggregateExec
        buffers = Buffer("l"), Buffer("r")
        meter = WorkMeter()
        root = aggregate_cls(
            aggregate,
            join_cls(
                join,
                source_cls(left, buffers[0].reader(), self.MASK, meter),
                source_cls(right, buffers[1].reader(), self.MASK, meter),
                meter,
            ),
            self.MASK, meter,
        )
        return root, buffers, meter

    @staticmethod
    def _left_rows(n, start, passing=True):
        # v alternates around q0's ``v > 10``; f alternates around q1's
        # ``f == "x"``; ``passing=False`` fails both for every row
        return [
            Delta(
                (i % 7, (20.5 if i % 2 else 4.0) if passing else 1.0,
                 ("x" if i % 3 else "y") if passing else "z"),
                1, -1,
            )
            for i in range(start, start + n)
        ]

    def test_lanes_match_reference_around_the_threshold(self, monkeypatch):
        from repro.physical import columnar as columnar_mod

        lane = columnar_mod.ROW_LANE_MAX
        row_lane_sizes, kernel_sizes = [], []
        apply_rows = columnar_mod.ColumnarDecorations.apply_rows
        source_kernel = columnar_mod.fused_source_kernel

        def spy_rows(self, batch, meter, mask):
            row_lane_sizes.append(len(batch))
            return apply_rows(self, batch, meter, mask)

        def spy_kernel(node):
            kernel = source_kernel(node)

            def call(batch, *args):
                kernel_sizes.append(len(batch))
                return kernel(batch, *args)

            return call

        monkeypatch.setattr(
            columnar_mod.ColumnarDecorations, "apply_rows", spy_rows
        )
        monkeypatch.setattr(columnar_mod, "fused_source_kernel", spy_kernel)
        clear_compiled_caches()
        nodes = self._nodes()
        reference, reference_buffers, reference_meter = self._tree(
            nodes, False
        )
        columnar, columnar_buffers, columnar_meter = self._tree(nodes, True)
        right_rows = [Delta((k, "g%d" % (k % 3)), 1, -1) for k in range(7)]
        steps = [
            ([], right_rows),
            (self._left_rows(lane - 1, 0), []),
            (self._left_rows(lane, 1000), []),
            (self._left_rows(lane + 1, 2000), []),
            (self._left_rows(lane, 3000, passing=False), []),
            ([], []),
            # retractions: the aggregate's MIN/MAX rescans and AVG
            # resets must agree across lanes too
            ([Delta(d.row, -1, d.bits)
              for d in self._left_rows(lane + 1, 2000)], []),
            ([Delta(d.row, -1, d.bits)
              for d in self._left_rows(5, 1000)], right_rows[:2]),
        ]
        for left_deltas, right_deltas in steps:
            reference_buffers[0].append(left_deltas)
            reference_buffers[1].append(right_deltas)
            columnar_buffers[0].append(batch_of(left_deltas, 3))
            columnar_buffers[1].append(batch_of(right_deltas, 2))
            expected = reference.advance()
            got = deltas_of(columnar.advance())
            assert [(d.row, d.sign, d.bits) for d in got] == [
                (d.row, d.sign, d.bits) for d in expected
            ]
            _assert_python_typed(d.row for d in got)
            _assert_meters_identical(columnar_meter, reference_meter)
            if not left_deltas and not right_deltas:
                # an all-empty execution allocates no batch at all
                join = columnar.child
                assert join.left.advance() is ColumnBatch.empty(3)
                assert join.advance() is ColumnBatch.empty(5)
                assert columnar.advance() is ColumnBatch.empty(5)
        # the left source saw lane-1, lane, lane+1, lane, 0, lane+1, 5 rows:
        # exactly the two lane+1 batches reached the fused kernel
        assert kernel_sizes == [lane + 1, lane + 1]
        assert lane in row_lane_sizes and lane - 1 in row_lane_sizes
        assert max(row_lane_sizes) == lane

    def test_inexact_row_lane_value_turns_reduceat_off(self):
        # 0.1 arrives on the row lane; the next batch is large, integral
        # and cancels to zero, so a segment sum would add 0.0 where the
        # reference's per-delta arithmetic leaves 0.1 + 3.0 - 3.0 =
        # 0.10000000000000009 -- a different emission count, hence
        # different work.  The row lane must record the inexact value.
        from repro.mqo.nodes import OpNode, TableRef
        from repro.physical import columnar as columnar_mod
        from repro.physical import operators
        from repro.physical.work import WorkMeter
        from repro.relational.expressions import agg_avg, agg_sum, col
        from repro.relational.schema import Schema

        lane = columnar_mod.ROW_LANE_MAX
        node = OpNode(
            "aggregate",
            children=[OpNode(
                "source", ref=TableRef("t", Schema.of("g", "v")),
                query_mask=1,
            )],
            group_by=["g"],
            aggs=[agg_sum(col("v"), "s"), agg_avg(col("v"), "a")],
            query_mask=1,
        )
        churn = [
            Delta(("a", 3.0), sign, 1)
            for _ in range(lane // 2 + 1) for sign in (1, -1)
        ]
        assert len(churn) > lane
        outputs = []
        for cls in (operators.AggregateExec,
                    columnar_mod.ColumnarAggregateExec):
            feed = _Feed()
            meter = WorkMeter()
            aggregate = cls(node, feed, 1, meter)
            emitted = []
            for batch in ([Delta(("a", 0.1), 1, 1)], churn):
                if cls is columnar_mod.ColumnarAggregateExec:
                    batch = batch_of(batch, 2)
                feed.batch = batch
                emitted.append([
                    (d.row, d.sign, d.bits)
                    for d in deltas_of(aggregate.advance())
                ])
            outputs.append((emitted, meter.snapshot()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0][1]  # the churn batch did move the sum

    def test_both_lanes_keep_the_exactness_ledger_over_wanted_rows(
        self, monkeypatch
    ):
        # a row no query of the subplan wants is absorbed by neither
        # lane, so its inexact value must flip the ledger in neither;
        # an inexact value some query wants flips it in both
        from repro.mqo.nodes import OpNode, TableRef
        from repro.physical import columnar as columnar_mod
        from repro.physical.work import WorkMeter
        from repro.relational.expressions import agg_sum, col
        from repro.relational.schema import Schema

        node = OpNode(
            "aggregate",
            children=[OpNode(
                "source", ref=TableRef("t", Schema.of("g", "v")),
                query_mask=0b11,
            )],
            group_by=["g"], aggs=[agg_sum(col("v"), "s")], query_mask=0b11,
        )
        batches = (
            ([Delta(("a", 2.0), 1, 0b01), Delta(("a", 0.1), 1, 0b10)], True),
            ([Delta(("a", 0.1), 1, 0b01)], False),
        )
        for lane_max in (1 << 30, 0):
            monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", lane_max)
            feed = _Feed()
            aggregate = columnar_mod.ColumnarAggregateExec(
                node, feed, 0b01, WorkMeter()
            )
            for batch, exact in batches:
                feed.batch = batch_of(batch, 2)
                aggregate.advance()
                assert aggregate._exact_ok == [exact], lane_max


@needs_numpy
class TestListBackedSignsBits:
    """A row-lane batch carries its signs and bits as the lists its
    kernel produced; arrays appear only when something reads them."""

    @staticmethod
    def _batch():
        rows = [(i, "r%d" % i) for i in range(5)]
        return ColumnBatch.from_rows(rows, [1, -1, 1, 1, -1],
                                     [3, 1, 2, 3, 1], 2)

    def test_lists_until_an_array_is_read(self):
        import numpy as np

        batch = self._batch()
        assert len(batch) == 5
        assert batch._signs is None and batch._bits is None
        assert batch.sign_list() is batch._sign_list
        assert deltas_of(batch)[1] == Delta((1, "r1"), -1, 1)
        assert batch._signs is None and batch._bits is None
        signs = batch.signs
        assert signs.dtype == np.int64 and signs.tolist() == [1, -1, 1, 1, -1]
        assert batch.signs is signs  # built once, cached
        assert batch.bits.dtype == np.int64
        assert batch.bit_list() == [3, 1, 2, 3, 1]

    def test_array_backed_batches_list_on_demand(self):
        import numpy as np

        batch = ColumnBatch.from_rows(
            [(1,), (2,)], np.array([1, -1]), np.array([1, 2]), 1)
        assert batch.sign_list() == [1, -1] and batch.bit_list() == [1, 2]
        assert type(batch.sign_list()[0]) is int
        assert len(batch) == 2

    def test_take_and_with_bits(self):
        import numpy as np

        batch = self._batch()
        taken = batch.take(np.array([0, 3]))
        assert taken.rows() == [(0, "r0"), (3, "r3")]
        assert taken.sign_list() == [1, 1] and taken.bit_list() == [3, 3]
        rebitted = batch.with_bits(np.array([1, 1, 0, 2, 2]))
        assert rebitted.bit_list() == [1, 1, 0, 2, 2]
        # the signs are shared in whichever form exists, never copied
        assert rebitted._sign_list is batch._sign_list
        assert rebitted.sign_list() == batch.sign_list()
        assert batch.bit_list() == [3, 1, 2, 3, 1]

    def test_concat_keeps_lists_only_when_every_chunk_has_them(self):
        import numpy as np

        from repro.engine.columns import concat_batches

        first, second = self._batch(), self._batch()
        merged = concat_batches([first, second], 2)
        assert merged._signs is None and merged._bits is None
        assert merged.sign_list() == first.sign_list() * 2
        assert merged.rows() == first.rows() * 2
        assert first.sign_list() == [1, -1, 1, 1, -1]  # inputs untouched
        arrays = ColumnBatch.from_rows(
            [(9, "z")], np.array([1]), np.array([7]), 2)
        mixed = concat_batches([first, arrays], 2)
        assert mixed.sign_list() == [1, -1, 1, 1, -1, 1]
        assert mixed.bit_list() == [3, 1, 2, 3, 1, 7]
        assert mixed.rows()[-1] == (9, "z")
        columnar = ColumnBatch(
            (np.array([5]), np.array(["q"], dtype=object)),
            np.array([-1]), np.array([4]))
        stacked = concat_batches([first, columnar], 2)
        assert stacked.rows()[-1] == (5, "q")
        assert stacked.sign_list()[-1] == -1

    def test_a_list_backed_batch_enters_a_vector_kernel(self, monkeypatch):
        from repro.mqo.nodes import OpNode, TableRef
        from repro.physical import columnar as columnar_mod
        from repro.physical.work import WorkMeter
        from repro.relational.expressions import col
        from repro.relational.schema import Schema

        node = OpNode(
            "source", ref=TableRef("t", Schema.of("k", "f")),
            filters={0: col("k") > 1}, query_mask=0b11,
        )
        outputs = []
        for lane_max in (0, 1 << 30):
            monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", lane_max)
            buffer = Buffer("t")
            source = columnar_mod.ColumnarSourceExec(
                node, buffer.reader(), 0b11, WorkMeter())
            buffer.append(self._batch())
            outputs.append(source.advance())
        _assert_same_deltas(*outputs)
        # q0 (k > 1) loses k=0 and k=1; k=1 carried no other bit
        assert outputs[0].bit_list() == [2, 2, 3, 1]

    def test_the_empty_batch_is_shared_and_immutable(self):
        empty = ColumnBatch.empty(3)
        assert ColumnBatch.empty(3) is empty
        assert len(empty) == 0 and empty.rows() == ()
        assert empty.sign_list() == () and empty.bit_list() == ()
        assert not empty.signs.flags.writeable


@needs_numpy
class TestGeneratedCodeFailures:
    """A predicate that raises propagates the exception the closure
    chain raised, through a frame whose source line is the generated
    one (every kernel's text is registered with ``linecache``)."""

    @staticmethod
    def _source(predicate, rows, columnar_mod, reference=False):
        from repro.mqo.nodes import OpNode, TableRef
        from repro.physical import operators
        from repro.physical.work import WorkMeter
        from repro.relational.schema import Schema

        node = OpNode(
            "source", ref=TableRef("t", Schema.of("k", "v")),
            filters={0: predicate}, query_mask=1,
        )
        buffer = Buffer("t")
        deltas = [Delta(row, 1, 1) for row in rows]
        if reference:  # each family reads its own segment form
            source = operators.SourceExec(
                node, buffer.reader(), 1, WorkMeter())
            buffer.append(deltas)
        else:
            source = columnar_mod.ColumnarSourceExec(
                node, buffer.reader(), 1, WorkMeter())
            buffer.append(batch_of(deltas, 2))
        return source

    @pytest.mark.parametrize("lane_max", [1 << 30, 0], ids=["row", "vector"])
    @pytest.mark.parametrize("case", ["none-compare", "zero-division"])
    def test_exception_type_and_generated_line(
        self, case, lane_max, monkeypatch
    ):
        import linecache
        import traceback

        from repro.physical import columnar as columnar_mod
        from repro.relational.expressions import col

        if case == "none-compare":
            predicate, bad, error = col("v") < 5, None, TypeError
        else:
            predicate, bad, error = 1 / col("v") > 2, 0, ZeroDivisionError
        rows = [(1, 3), (2, bad), (3, 4)]
        monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", lane_max)
        clear_compiled_caches()
        with pytest.raises(error) as caught:
            self._source(predicate, rows, columnar_mod).advance()
        frames = [
            frame for frame in traceback.extract_tb(caught.value.__traceback__)
            if frame.filename.startswith("<fused:")
        ]
        assert frames, "no generated frame in the traceback"
        innermost = frames[-1]
        assert innermost.line  # traceback found the generated source
        assert innermost.line == linecache.getline(
            innermost.filename, innermost.lineno).strip()
        # the per-tuple reference raises the same exception type
        reference = self._source(predicate, rows, columnar_mod, True)
        with pytest.raises(error):
            reference.advance()

    @pytest.mark.parametrize("over", ["column", "arithmetic", "not-inline"])
    @pytest.mark.parametrize("kind", ["in", "prefix", "needle"])
    def test_containment_on_both_lanes(self, kind, over, monkeypatch):
        # a containment predicate is a helper call over its child's
        # fragment; a child that does not flatten (division by a column)
        # sends the whole predicate to the row-wise scalar closure
        from repro.physical import columnar as columnar_mod
        from repro.relational.expressions import (
            col, contains, starts_with)

        text, number = {
            "column": (col("k"), col("v")),
            "arithmetic": (col("k") + "x" + col("k"), col("v") * 2 - 1),
            "not-inline": (col("k") + "x" * (6 // col("v")), 12 / col("v")),
        }[over]
        predicate, helper = {
            "in": (number.isin([3, 5, 4.0, 2]), "_isin("),
            "prefix": (starts_with(text, "ab"), "_startswith("),
            "needle": (contains(text, "ab"), "_contains("),
        }[kind]
        rows = [("ab", 2), ("ba", 3), ("abc", 6), ("b", 3), ("cab", 4)]
        expected = [delta.row for delta in self._source(
            predicate, rows, columnar_mod, True).advance()]
        assert 0 < len(expected) < len(rows)
        for lane_max in (1 << 30, 0):
            monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", lane_max)
            clear_compiled_caches()
            source = self._source(predicate, rows, columnar_mod)
            assert list(source.advance().rows()) == expected
        generated = source.decorations.fused.fused_source
        assert (helper in generated) == (over != "not-inline")
        assert ("column_array(" in generated) == (over == "not-inline")


class TestEmissionOrder:
    def test_memoised_sort_prefix_keeps_the_emission_order(
        self, fig11_setup, monkeypatch
    ):
        # every aggregate emission of the fig11 run: the order built from
        # memoised group-key prefixes must be the order of the full
        # per-row sort key (which is how the reference sorts)
        from repro.physical import columnar, operators

        plan, paces, _ = fig11_setup
        emissions = []
        emit = columnar.ColumnarAggregateExec._emit

        def spy(self):
            out = emit(self)
            emissions.append(deltas_of(out))
            return out

        monkeypatch.setattr(columnar.ColumnarAggregateExec, "_emit", spy)
        run_with(plan, paces)
        assert sum(map(len, emissions)) > 500
        assert any(
            len({d.row[0] for d in out}) > 1 and len(out[0].row) > 1
            for out in emissions if out
        )
        for out in emissions:
            assert out == sorted(
                out, key=lambda d: (d.sign, operators._sort_key(d.row)))


class TestModeFlipOnOneExecutor:
    def test_interleaved_families_do_not_interact(self, fig11_setup):
        """A reference and a production executor reused in turn.

        Both families compile from the one process-wide artifact cache
        and read table streams over the same catalog: interleaving their
        runs must leave each reused tree reading its reset buffers
        exactly as its first run did.
        """
        plan, paces, queries = fig11_setup
        clear_compiled_caches()
        reference = ReferenceExecutor(plan, StreamConfig())
        production = PlanExecutor(plan, StreamConfig())
        reference_first = reference.run(paces)
        columnar = production.run(paces)
        reference_again = reference.run(paces)
        assert [
            run.metadata["engine_mode"]
            for run in (reference_first, columnar, reference_again)
        ] == ["reference", "columnar", "reference"]
        assert work_fingerprint(reference_first) == work_fingerprint(
            reference_again
        )
        assert reference_first.query_results == reference_again.query_results
        assert_columnar_equivalent(columnar, reference_first, queries)

    def test_columnar_tree_reuse_is_deterministic(self, fig11_setup):
        plan, paces, _ = fig11_setup
        clear_compiled_caches()
        executor = PlanExecutor(plan, StreamConfig())
        first = executor.run(paces)
        second = executor.run(paces)  # reused columnar tree
        fresh = PlanExecutor(plan, StreamConfig()).run(paces)
        assert work_fingerprint(first) == work_fingerprint(second)
        assert work_fingerprint(first) == work_fingerprint(fresh)
        assert first.query_results == second.query_results == fresh.query_results


class TestBufferSegments:
    def _batch(self, n, start=0, bits=1):
        return batch_of(
            [Delta(("r%d" % (start + i),), 1, bits) for i in range(n)], 1
        )

    def test_segments_materialize_for_plain_readers(self):
        # a consumer that wants Deltas builds them from the segments it
        # read (here with tests/util.deltas_of); the log never does
        buffer = Buffer("b")
        reader = buffer.reader()
        first, second = self._batch(4), self._batch(3, start=4)
        buffer.append(first)
        buffer.append(second)
        assert buffer.end() == 7
        segments = reader.read_new()
        assert segments[0] is first and segments[1] is second
        deltas = [d for segment in segments for d in deltas_of(segment)]
        assert [d.row for d in deltas] == [("r%d" % i,) for i in range(7)]
        assert buffer.held == 7  # read, not yet compacted

    def test_segment_reader_skips_the_deltas_round_trip(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        batch = self._batch(5, start=2)
        buffer.append(batch)
        assert reader.read_new() == [batch]  # the very same object
        assert reader.offset == buffer.end() == 5
        # a second read sees nothing new
        assert reader.read_new() == []

    def test_plain_append_after_segments_keeps_order(self):
        # segments are opaque to the log: it asks one for its length and
        # hands it back, whatever it is
        buffer = Buffer("b")
        reader = buffer.reader()
        batch, tail = self._batch(2), [Delta(("tail",), 1, 1)]
        buffer.append(batch)
        buffer.append(tail)
        segments = reader.read_new()
        assert segments[0] is batch and segments[1] is tail
        assert reader.offset == 3

    def test_compact_drops_consumed_segments_without_materializing(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append(self._batch(4))
        buffer.append(self._batch(4, start=4))
        reader.read_new()  # consume everything
        buffer.append(self._batch(2, start=8))
        dropped = buffer.compact()
        assert dropped == 8
        assert buffer.base == 8 and buffer.held == 2
        assert buffer.end() == 10  # logical length unchanged
        segments = reader.read_new()
        assert len(segments) == 1 and len(segments[0]) == 2

    def test_reset_clears_pending_segments(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append(self._batch(3))
        reader.read_new()
        buffer.reset()
        assert buffer.end() == 0 and buffer.held == 0 and reader.offset == 0
        buffer.append(self._batch(1))
        assert [len(segment) for segment in reader.read_new()] == [1]

    def test_empty_segments_are_not_held(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append(ColumnBatch.empty(1))
        buffer.append([])
        assert buffer.end() == 0 and reader.read_new() == []


class TestSegmentPassthroughEdgeCases:
    """The log's corners: alternating segment kinds, compaction with a
    reader inside a segment, a reader that detaches, and the guarantee
    that a production run never builds a Delta."""

    def _batch(self, n, start=0, bits=1):
        return batch_of(
            [Delta(("r%d" % (start + i),), 1, bits) for i in range(n)], 1
        )

    def test_interleaved_plain_and_segment_appends(self):
        # list -> batch -> list -> batch; a reader consuming mid-stream
        # must see every entry exactly once, in order
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append([Delta(("a%d" % i,), 1, 1) for i in range(2)])
        buffer.append(self._batch(3))
        assert [len(segment) for segment in reader.read_new()] == [2, 3]
        buffer.append([Delta(("b0",), 1, 1)])
        buffer.append(self._batch(2, start=3))
        rows = [
            d.row for segment in reader.read_new() for d in deltas_of(segment)
        ]
        assert rows == [("b0",), ("r3",), ("r4",)]
        assert reader.offset == buffer.end() == 8

    def test_compact_keeps_partially_consumed_segment_whole(self):
        # two readers: one drained, one lagging mid-segment.  Compaction
        # may only drop up to the segment boundary below the laggard --
        # the partially consumed segment stays whole.
        buffer = Buffer("b")
        ahead = buffer.reader()
        lagging = buffer.reader()
        buffer.append([Delta(("p%d" % i,), 1, 1) for i in range(2)])
        lagging.read_new()  # laggard consumes only the first segment
        buffer.append(self._batch(4))
        buffer.append(self._batch(4, start=4))
        ahead.read_new()  # drains everything
        # simulate a cursor inside the second segment (offset 3 of 10)
        lagging.offset = 3
        dropped = buffer.compact()
        # the horizon clamps to that segment's start (2): only the
        # first segment goes
        assert dropped == 2
        assert buffer.base == 2 and buffer.held == 8
        # reads are whole segments: the cursor inside one gets it again
        # from its start, never a hole after it
        rows = [
            d.row for segment in lagging.read_new() for d in deltas_of(segment)
        ]
        assert rows == [("r%d" % i,) for i in range(8)]

    def test_detached_reader_releases_its_segments(self):
        # how results are collected: a reader attached for one window
        # holds the whole window, and detaching it lets the log go back
        # to what the remaining readers need
        buffer = Buffer("b")
        parent = buffer.reader()
        sink = buffer.reader()
        buffer.append(self._batch(5))
        parent.read_new()
        assert buffer.compact() == 0  # the sink has not read
        assert len(sink.read_new()) == 1
        buffer.detach(sink)
        assert buffer.held == 0 and buffer.base == 5
        buffer.detach(parent)
        buffer.append(self._batch(2, start=5))
        assert buffer.held == 0 and buffer.end() == 7  # nobody reads

    def test_columnar_pipeline_never_materializes_before_sink(
        self, fig11_setup, monkeypatch
    ):
        # sources emit ColumnBatch, operators propagate batches, buffers
        # log segments and the result view reads their lists: a
        # production run builds no Delta at all, results included.  Spy
        # on both ways a Delta comes to be and on what the sink is fed.
        from repro.engine import executor as executor_mod
        from repro.relational import tuples

        plan, paces, _ = fig11_setup
        built = []
        init, new = Delta.__init__, tuples._DELTA_NEW

        def spy_init(delta, *args, **kwargs):
            built.append("Delta()")
            init(delta, *args, **kwargs)

        def spy_new(cls):
            built.append("make_delta")
            return new(cls)

        fed = []
        view = executor_mod.query_result_view

        def spy_view(plan, qid, segments, net=None):
            fed.extend(type(segment) for segment in segments)
            return view(plan, qid, segments, net)

        monkeypatch.setattr(Delta, "__init__", spy_init)
        monkeypatch.setattr(tuples, "_DELTA_NEW", spy_new)
        monkeypatch.setattr(executor_mod, "query_result_view", spy_view)
        clear_compiled_caches()
        result = PlanExecutor(plan, StreamConfig()).run(
            paces, collect_results=True
        )
        assert built == []
        assert fed and set(fed) == {ColumnBatch}
        assert any(result.query_results.values())


def _toy_queries(catalog, query_ids=(0, 1, 2)):
    from .util import toy_query_max, toy_query_region, toy_query_total

    makers = (toy_query_total, toy_query_region, toy_query_max)
    return [make(catalog, qid) for make, qid in zip(makers, query_ids)]


@needs_numpy
@pytest.mark.parametrize("lane_max", (0, None, 1 << 30))
def test_aggregate_stats_identical_across_operator_families(
    fig11_setup, monkeypatch, lane_max
):
    """A calibration run is a production run plus tallies at the operator
    boundaries: whichever lane runs under them, it fills the
    ``NodeStats`` of every node -- sources, joins, and aggregates with
    their deletes, MIN/MAX and per-query group counts -- and bills the
    work exactly as the per-tuple reference family does.  (The
    production aggregate is no subclass of the reference one:
    ``_collect_stats`` walks either by plan node kind.)
    """
    from repro.cost.cache import serialize_stats
    from repro.engine import calibrate
    from repro.physical import columnar as columnar_mod
    from repro.physical.operators import AggregateExec

    assert AggregateExec not in columnar_mod.ColumnarAggregateExec.__mro__
    plan, _, _ = fig11_setup
    if lane_max is not None:
        monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", lane_max)
    collected = []
    for calibrate_with, family in (
        (reference_calibration, "reference"),
        (calibrate.calibrate_plan, "columnar"),
    ):
        clear_compiled_caches()
        calibration = calibrate_with(plan, StreamConfig())
        assert calibration.run.metadata["engine_mode"] == family
        collected.append(({
            node.uid: {
                name: getattr(node.stats, name, None)
                for name in type(node.stats).__slots__
            }
            for subplan in plan.subplans for node in _walk(subplan.root)
        }, serialize_stats(plan), calibration.run.total_work,
            calibration.query_batch_work))
    reference, columnar = collected
    aggregates = [
        stats for stats in reference[0].values()
        if stats["kind"] == "aggregate"
    ]
    assert len(aggregates) >= 20
    assert any(stats["has_minmax"] for stats in aggregates)
    assert any(len(stats["groups_per_q"]) == 1 and stats["agg_in"] > 100
               for stats in aggregates)
    # some nodes of every kind filter, most do not: only those report a
    # selectivity
    for kind in ("source", "join", "aggregate"):
        filtering = {
            bool(stats["filter_sel_per_q"])
            for stats in reference[0].values() if stats["kind"] == kind
        }
        assert False in filtering, kind
    assert any(stats["filter_sel_per_q"] for stats in reference[0].values())
    assert columnar == reference


def test_fuzz_oracle_matrix_includes_columnar():
    """The fuzzer's oracle matrix must keep every lane pinned."""
    import inspect

    from repro.fuzz import oracles

    source = inspect.getsource(oracles)
    assert '"shared-columnar"' in source
    assert '"shared-columnar-rows"' in source
    assert '"shared-columnar-vec"' in source


# -- the two inputs without a vector lane ------------------------------------
#
# Without NumPy, or with a query id of 62 or more (no int64 bitvector),
# the executor binds ``vector=False`` into every operator: the row lane
# serves every batch size, calibration included (its counters are
# tallies over the batches' lists).  It must be the reference bit for
# bit -- results, every WorkMeter-derived number, and the calibrated
# statistics.

_ROW_LANE_ONLY = """
import sys
{block}
sys.path.insert(0, {root!r})
from repro.cost.cache import serialize_stats
from repro.engine import columns
from repro.engine.calibrate import calibrate_plan
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.physical import columnar
from repro.fuzz.reference import ReferenceExecutor
from tests.test_columnar_equivalence import _toy_queries, work_fingerprint
from tests.util import make_toy_catalog, reference_calibration, shared_plan_for

assert columns.available() is {numpy}
# any vector kernel would fire on these toy batches if it were allowed to
columnar.ROW_LANE_MAX = 0
catalog = make_toy_catalog()
plan = shared_plan_for(catalog, _toy_queries(catalog, {query_ids!r}))
paces = dict((s.sid, 2 if s.child_subplans() else 4) for s in plan.subplans)
runs, stats = [], []
for executor_class, calibrate_with, family in (
    (PlanExecutor, calibrate_plan, "columnar"),
    (ReferenceExecutor, reference_calibration, "reference"),
):
    calibration = calibrate_with(plan, StreamConfig())
    executor = executor_class(plan, StreamConfig())
    runs.append(executor.run(paces))
    # a stats run compiles what the windows run
    assert calibration.run.metadata["engine_mode"] == family
    stats.append((serialize_stats(plan), calibration.run.total_work,
                  calibration.query_batch_work))
    meters = dict(
        (sid, unit.meter.snapshot()) for sid, unit in executor.compiled.items())
    stats.append(meters)
production, reference = runs
assert production.metadata["engine_mode"] == "columnar"
assert reference.metadata["engine_mode"] == "reference"
assert len(production.query_results) == 3
assert all(production.query_results.values())
assert production.query_results == reference.query_results
assert work_fingerprint(production) == work_fingerprint(reference)
assert stats[0] == stats[2] and stats[1] == stats[3]
print("row-lane-only ok", sorted(production.query_results))
"""


def _run_row_lane_only(block, numpy, query_ids):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    script = _ROW_LANE_ONLY.format(
        block=block, root=str(root / "src"), numpy=numpy, query_ids=query_ids,
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=str(root),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_without_numpy_the_row_lane_is_the_reference():
    # ``sys.modules["numpy"] = None`` makes every ``import numpy`` raise
    # ImportError in the child, before ``repro`` is first imported
    out = _run_row_lane_only('sys.modules["numpy"] = None', False, (0, 1, 2))
    assert "row-lane-only ok [0, 1, 2]" in out


@needs_numpy
def test_query_ids_past_int64_keep_the_row_lane():
    out = _run_row_lane_only("", True, (3, 62, 81))
    assert "row-lane-only ok [3, 62, 81]" in out


_LANE_CHILD = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
import repro.core.optimizer
import repro.harness.experiments
import repro.service.core
import repro.workers
from repro.core.optimizer import OptimizerConfig
from repro.core.pace import uniform_configuration
from repro.engine.calibrate import calibrate_plan
from repro.engine.executor import PlanExecutor
from repro.physical import columnar
from repro.service.core import QueryService
from tests.util import (
    make_toy_catalog, shared_plan_for, toy_query_max, toy_query_region,
    toy_query_total,
)

{block}
catalog = make_toy_catalog()
plan = shared_plan_for(catalog, [
    toy_query_total(catalog, 0), toy_query_region(catalog, 1),
    toy_query_max(catalog, 2),
])
calibration = calibrate_plan(plan)
runs = [calibration.run, PlanExecutor(plan).run(uniform_configuration(plan, 4))]
service = QueryService(
    lambda window: make_toy_catalog(seed=41 + window), OptimizerConfig(max_pace=6))
basis = service.basis_catalog
service.register(toy_query_total(basis, 0), "a", 5.0)
service.register(toy_query_region(basis, 1), "b", 0.5)
runs += [service.run_window(collect_results=True).run for _ in range(3)]
print(repr({{
    "numpy": sorted(name for name in sys.modules if name.startswith("numpy.")),
    "work": [(run.total_quanta, sorted(run.query_final_quanta.items()))
             for run in runs],
    "results": [run.query_results for run in runs[1:]],
}}))
"""


#: ``exec_lazy_22q``'s window -- the 22-query shared plan at paces 1/3 over
#: a scale-0.5 catalog with 25% lineitem updates, whose largest batches
#: are 4500-row whole-lineitem reads -- at the default threshold, then
#: on a fresh executor after ``{block}`` has run
_EXEC_LAZY_CHILD = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
from repro.engine.executor import PlanExecutor
from repro.mqo.merge import MQOOptimizer
from repro.physical import columnar
from repro.workloads.tpch import (
    ALL_QUERY_NAMES, add_lineitem_updates, build_workload, generate_catalog,
)

catalog = generate_catalog(scale=0.5, seed=5)
add_lineitem_updates(catalog, fraction=0.25, seed=11)
plan = MQOOptimizer(catalog).build_shared_plan(
    build_workload(catalog, ALL_QUERY_NAMES))
paces = dict((s.sid, 1 if s.child_subplans() else 3) for s in plan.subplans)
numpy, work = [], []
for step in range(2):
    if step:
        {block}
    run = PlanExecutor(plan, catalog=catalog).run(paces)
    numpy.append(
        sorted(name for name in sys.modules if name.startswith("numpy.")))
    work.append((run.total_quanta, sorted(run.query_final_quanta.items())))
print(repr({{"numpy": numpy, "work": work}}))
"""


def _lane_child(block="", template=_LANE_CHILD):
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    script = template.format(
        src=str(root / "src"), root=str(root), block=block,
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=str(root),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_row_lane_paths_never_run_numpy():
    # the production entry points, a calibration, a window and service
    # windows whose batches all fit the row lane: NumPy's own code never
    # runs, so none of its submodules is loaded
    assert _lane_child()["numpy"] == []


@needs_numpy
def test_the_vector_lane_loads_numpy_on_first_use():
    row, vector = _lane_child(), _lane_child("columnar.ROW_LANE_MAX = 0")
    assert vector["numpy"], "ROW_LANE_MAX = 0 ran no NumPy"
    assert vector["work"] == row["work"]
    for row_results, vector_results in zip(row["results"], vector["results"]):
        assert row_results.keys() == vector_results.keys()
        for qid, result in row_results.items():
            assert_results_close(result, vector_results[qid])


@needs_numpy
def test_exec_lazy_windows_stay_on_the_row_lane():
    # the benchmark's largest batches (4500 rows) sit below the threshold,
    # so its lazy window never loads NumPy; at the old 4096 they crossed it
    child = _lane_child("columnar.ROW_LANE_MAX = 4096", _EXEC_LAZY_CHILD)
    default, old = child["numpy"]
    assert default == []
    assert old, "4500-row batches took no vector kernel at 4096"
    assert child["work"][0] == child["work"][1]


@needs_numpy
def test_vector_helpers_are_built_on_the_first_vector_absorb(
    fig11_setup, monkeypatch
):
    # the aggregate's vector-only helpers (touch, new_state, avg_step) are
    # an artifact of their own: a row-lane-only run never generates them
    from repro.physical import columnar as columnar_mod
    from repro.physical import hotpath

    plan, paces, _ = fig11_setup
    for lane_max, built in ((1 << 30, False), (0, True)):
        monkeypatch.setattr(columnar_mod, "ROW_LANE_MAX", lane_max)
        clear_compiled_caches()
        PlanExecutor(plan, StreamConfig()).run(paces)
        artifacts = [
            (kind[0], artifact)
            for per_node in hotpath._ARTIFACTS.values()
            for kind, artifact in per_node.items() if isinstance(kind, tuple)
        ]
        kinds = {kind for kind, _ in artifacts}
        assert "fused-aggregate" in kinds
        assert ("fused-aggregate-vec" in kinds) is built, lane_max
        assert not any(hasattr(artifact, "touch")
                       for kind, artifact in artifacts
                       if kind == "fused-aggregate")
