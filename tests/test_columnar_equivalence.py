"""Work-exact equivalence of the columnar backend against the batched path.

Mirror of ``test_hotpath_equivalence``: the columnar backend
(``engine_mode(columnar=True)``, docs/PERFORMANCE.md) must charge the
WorkMeter *exactly* like the batched path on the fig11 workload -- every
work/latency number bit-identical -- because both paths count the same
logical deltas, just in different memory layouts.  Query results are
compared with the engine's standard float tolerance (array segment sums
may associate differently).

The buffer segment passthrough (columnar producers park ``ColumnBatch``
segments in buffers; deltas materialize only when a plain consumer needs
them) gets direct unit coverage at the bottom.
"""

import pytest

from repro.engine.buffers import Buffer
from repro.engine.compare import assert_results_close
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.physical.hotpath import (
    clear_compiled_caches,
    columnar_available,
    engine_mode,
)
from repro.relational.tuples import Delta
from repro.workloads.tpch import (
    ALL_QUERY_NAMES,
    add_lineitem_updates,
    build_workload,
    generate_catalog,
)

from .util import shared_plan_for

pytestmark = pytest.mark.skipif(
    not columnar_available(),
    reason="columnar backend needs numpy",
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


def run_with(plan, paces, **mode):
    clear_compiled_caches()
    with engine_mode(**mode):
        executor = PlanExecutor(plan, StreamConfig())
        return executor.run(paces)


def assert_columnar_equivalent(columnar, batched, queries):
    assert work_fingerprint(columnar) == work_fingerprint(batched)
    assert set(columnar.query_results) == set(batched.query_results)
    for query in queries:
        assert_results_close(
            columnar.query_results[query.query_id],
            batched.query_results[query.query_id],
            context="columnar vs batched: %s" % query.name,
        )


class TestFig11WorkIdentity:
    def test_columnar_matches_batched(self, fig11_setup):
        plan, paces, queries = fig11_setup
        batched = run_with(plan, paces, batched=True)
        columnar = run_with(plan, paces, batched=True, columnar=True)
        assert columnar.metadata["engine_mode"] == "columnar"
        assert batched.metadata["engine_mode"] == "batched"
        assert_columnar_equivalent(columnar, batched, queries)

    def test_uniform_pace_identity(self, fig11_setup):
        plan, _, queries = fig11_setup
        paces = {subplan.sid: 3 for subplan in plan.subplans}
        batched = run_with(plan, paces, batched=True)
        columnar = run_with(plan, paces, batched=True, columnar=True)
        assert_columnar_equivalent(columnar, batched, queries)

    def test_forced_vectorized_probe(self, fig11_setup, monkeypatch):
        # forcing the threshold to 0 exercises the arange/repeat
        # expansion on every batch, including the single-digit trickles
        # the default (measured-crossover) threshold keeps scalar -- it
        # must emit the exact same sequence (docs/PERFORMANCE.md)
        from repro.physical import columnar as columnar_mod

        plan, paces, queries = fig11_setup
        batched = run_with(plan, paces, batched=True)
        monkeypatch.setattr(columnar_mod, "SCALAR_PROBE_MAX", 0)
        columnar = run_with(plan, paces, batched=True, columnar=True)
        assert_columnar_equivalent(columnar, batched, queries)

    def test_forced_scalar_probe(self, fig11_setup, monkeypatch):
        # the inverse: a huge threshold keeps every batch on the scalar
        # dict-loop probe, which must also match batched exactly
        from repro.physical import columnar as columnar_mod

        plan, paces, queries = fig11_setup
        batched = run_with(plan, paces, batched=True)
        monkeypatch.setattr(columnar_mod, "SCALAR_PROBE_MAX", 1 << 30)
        columnar = run_with(plan, paces, batched=True, columnar=True)
        assert_columnar_equivalent(columnar, batched, queries)

    def test_fused_kernels_bit_identical_to_unfused_closures(
        self, fig11_setup, monkeypatch
    ):
        # fusion's contract is stronger than work-exact: a fused kernel
        # performs the same array ops in the same order as the unfused
        # closure chain, so its output *arrays* and WorkMeter charges
        # must match bit for bit (docs/PERFORMANCE.md).  Fusion is
        # unconditional outside stats_mode, so there is no global switch
        # to flip: record every batch the fig11 run feeds to a fused
        # kernel, then replay it through the stats_mode (unfused) code.
        from repro.physical import columnar as columnar_mod
        from repro.physical.work import WorkMeter

        plan, paces, _ = fig11_setup
        calls = {"src": [], "deco": [], "agg": []}

        def recording(kind):
            getter = getattr(columnar_mod, _FUSED_GETTERS[kind])

            def get(node):
                kernel = getter(node)

                def record(*args):
                    calls[kind].append((node, args))
                    return kernel(*args)

                return record

            return get

        for kind, name in _FUSED_GETTERS.items():
            monkeypatch.setattr(columnar_mod, name, recording(kind))
        clear_compiled_caches()
        with engine_mode(batched=True, columnar=True):
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
        # aggregates emit rows through the batched decorations; their
        # fused part is the input-expression kernel
        assert by_kind["deco"] == {n.uid for n in nodes if n.kind == "join"}
        # only aggregates that absorbed a non-empty batch at this scale
        assert by_kind["agg"] and by_kind["agg"] <= {
            n.uid for n in nodes if n.kind == "aggregate"
        }

        for node, (batch, mask, _) in calls["src"]:
            outputs, meters = [], []
            for stats_mode in (False, True):
                buffer = Buffer("replay")
                buffer.append_segment(batch)
                meter = WorkMeter()
                source = columnar_mod.ColumnarSourceExec(
                    node, buffer.reader(), mask, meter, stats_mode
                )
                assert (source._fused is None) == stats_mode
                outputs.append(source.advance())
                meters.append(meter)
            _assert_batches_identical(*outputs)
            _assert_meters_identical(*meters)

        for node, (batch, _) in calls["deco"]:
            fused_meter, unfused_meter = WorkMeter(), WorkMeter()
            fused = columnar_mod.fused_decoration_kernel(node)(
                batch, fused_meter
            )
            unfused = columnar_mod.ColumnarDecorations(
                node, stats_mode=True
            ).apply(batch, unfused_meter)
            _assert_batches_identical(fused, unfused)
            _assert_meters_identical(fused_meter, unfused_meter)

        for node, (batch, n) in calls["agg"]:
            fused = columnar_mod.fused_aggregate_inputs(node)(batch, n)
            closures = columnar_mod.ColumnarAggregateExec(
                node, None, -1, WorkMeter(), stats_mode=True
            )
            assert closures._fused_inputs is None
            unfused = [
                columnar_mod._materialize(fn(batch), n)
                for fn in closures._vec_input_fns
            ]
            assert len(fused) == len(unfused)
            for left, right in zip(fused, unfused):
                _assert_arrays_identical(left, right)

    def test_fused_kernels_actually_fire(self, fig11_setup):
        # guard against the bit-identity test passing vacuously because
        # fusion silently stopped engaging
        from repro.physical import hotpath

        plan, paces, _ = fig11_setup
        clear_compiled_caches()
        with engine_mode(batched=True, columnar=True):
            PlanExecutor(plan, StreamConfig()).run(paces)
            kernels = [
                artifact
                for (kind, _), artifact in hotpath._ARTIFACTS.items()
                if isinstance(kind, str) and kind.startswith("fused-")
            ]
        assert kernels, "no fused kernels were compiled during the run"
        assert all(hasattr(k, "fused_source") for k in kernels)


#: kernel family -> the getter name ``repro.physical.columnar`` binds
_FUSED_GETTERS = {
    "src": "fused_source_kernel",
    "deco": "fused_decoration_kernel",
    "agg": "fused_aggregate_inputs",
}


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


def _assert_meters_identical(left, right):
    assert left.snapshot() == right.snapshot()
    assert (left.input_units, left.output_units, left.rescan_units,
            left.state_units) == (right.input_units, right.output_units,
                                  right.rescan_units, right.state_units)


class TestModeFlipOnOneExecutor:
    def test_reused_executor_recompiles_across_backends(self, fig11_setup):
        """One reused executor flipped columnar -> batched -> columnar.

        The flip is the hard case for the buffer segment passthrough: a
        columnar run leaves no pending segments behind (every run ends
        with result collection), and the rebuilt batched tree must read
        the reset buffers identically.
        """
        plan, paces, queries = fig11_setup
        clear_compiled_caches()
        with engine_mode(batched=True):
            executor = PlanExecutor(plan, StreamConfig())
            batched_first = executor.run(paces)
        with engine_mode(batched=True, columnar=True):
            columnar = executor.run(paces)
        with engine_mode(batched=True):
            batched_again = executor.run(paces)
        assert work_fingerprint(batched_first) == work_fingerprint(
            batched_again
        )
        assert batched_first.query_results == batched_again.query_results
        assert_columnar_equivalent(columnar, batched_first, queries)

    def test_columnar_tree_reuse_is_deterministic(self, fig11_setup):
        plan, paces, _ = fig11_setup
        clear_compiled_caches()
        with engine_mode(batched=True, columnar=True):
            executor = PlanExecutor(plan, StreamConfig())
            first = executor.run(paces)
            second = executor.run(paces)  # reused columnar tree
            fresh = PlanExecutor(plan, StreamConfig()).run(paces)
        assert work_fingerprint(first) == work_fingerprint(second)
        assert work_fingerprint(first) == work_fingerprint(fresh)
        assert first.query_results == second.query_results == fresh.query_results


class TestBufferSegments:
    def _batch(self, n, start=0, bits=1):
        from repro.engine.columns import ColumnBatch

        return ColumnBatch.from_deltas(
            [Delta(("r%d" % (start + i),), 1, bits) for i in range(n)], 1
        )

    def test_segments_materialize_for_plain_readers(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append_segment(self._batch(4))
        buffer.append_segment(self._batch(3, start=4))
        assert len(buffer) == 7
        deltas = reader.read_new()  # plain consumer forces materialization
        assert [d.row for d in deltas] == [("r%d" % i,) for i in range(7)]
        assert buffer._pending == []

    def test_segment_reader_skips_the_deltas_round_trip(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append(
            [Delta(("p%d" % i,), 1, 1) for i in range(2)]
        )
        batch = self._batch(5, start=2)
        buffer.append_segment(batch)
        prefix, segments = reader.read_new_segments()
        assert [d.row for d in prefix] == [("p0",), ("p1",)]
        assert segments == [batch]  # the very same object, no conversion
        assert reader.remaining() == 0
        # a second read sees nothing new
        assert reader.read_new_segments() == ([], [])

    def test_plain_append_after_segments_keeps_order(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append_segment(self._batch(2))
        buffer.append([Delta(("tail",), 1, 1)])  # forces materialization
        rows = [d.row for d in reader.read_new()]
        assert rows == [("r0",), ("r1",), ("tail",)]

    def test_compact_drops_consumed_segments_without_materializing(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append_segment(self._batch(4))
        buffer.append_segment(self._batch(4, start=4))
        reader.read_new_segments()  # consume everything
        buffer.append_segment(self._batch(2, start=8))
        dropped = buffer.compact()
        assert dropped == 8
        assert buffer.deltas == []  # consumed segments never became deltas
        assert len(buffer) == 10  # logical length unchanged
        prefix, segments = reader.read_new_segments()
        assert prefix == [] and len(segments) == 1
        assert len(segments[0]) == 2

    def test_reset_clears_pending_segments(self):
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append_segment(self._batch(3))
        reader.read_new_segments()
        buffer.reset()
        assert len(buffer) == 0 and reader.offset == 0
        buffer.append_segment(self._batch(1))
        assert len(reader.read_new()) == 1


class TestSegmentPassthroughEdgeCases:
    """The passthrough's corners: mixed appends, mid-segment compaction
    with lagging/pinned readers, and the no-materialization guarantee of
    a fully columnar pipeline."""

    def _batch(self, n, start=0, bits=1):
        from repro.engine.columns import ColumnBatch

        return ColumnBatch.from_deltas(
            [Delta(("r%d" % (start + i),), 1, bits) for i in range(n)], 1
        )

    def test_interleaved_plain_and_segment_appends(self):
        # plain -> segment -> plain -> segment; a segment-aware reader
        # consuming mid-stream must see every entry exactly once, in
        # order, across the alternating representations
        buffer = Buffer("b")
        reader = buffer.reader()
        buffer.append([Delta(("a%d" % i,), 1, 1) for i in range(2)])
        buffer.append_segment(self._batch(3))
        prefix, segments = reader.read_new_segments()
        assert [d.row for d in prefix] == [("a0",), ("a1",)]
        assert len(segments) == 1 and len(segments[0]) == 3
        buffer.append([Delta(("b0",), 1, 1)])  # materializes the tail
        buffer.append_segment(self._batch(2, start=3))
        prefix, segments = reader.read_new_segments()
        assert [d.row for d in prefix] == [("b0",)]
        assert len(segments) == 1 and len(segments[0]) == 2
        assert reader.remaining() == 0
        assert len(buffer) == 8

    def test_compact_keeps_partially_consumed_segment_whole(self):
        # two readers: one drained, one lagging mid-segment.  Compaction
        # may only drop up to the segment boundary below the laggard --
        # the partially consumed segment stays whole and columnar.
        buffer = Buffer("b")
        ahead = buffer.reader()
        lagging = buffer.reader()
        buffer.append([Delta(("p%d" % i,), 1, 1) for i in range(2)])
        lagging.read_new()  # laggard consumes only the plain prefix
        buffer.append_segment(self._batch(4))
        buffer.append_segment(self._batch(4, start=4))
        ahead.read_new_segments()  # drains everything
        # simulate a cursor inside the first segment (offset 3 of 10)
        lagging.offset = 3
        dropped = buffer.compact()
        # horizon clamps to the segment start (2), so only the plain
        # prefix goes; both segments survive unmaterialized
        assert dropped == 2
        assert buffer.base == 2 and buffer.deltas == []
        assert len(buffer._pending) == 2
        # the laggard's defensive mid-segment read still sees the right
        # rows (via the plain fallback), never a hole
        rows = [d.row for d in lagging.read_new()]
        assert rows == [("r%d" % i,) for i in range(1, 8)]

    def test_pinned_buffer_never_compacts_segments(self):
        buffer = Buffer("b")
        buffer.pinned = True
        reader = buffer.reader()
        buffer.append_segment(self._batch(5))
        reader.read_new_segments()
        assert buffer.compact() == 0
        assert len(buffer._pending) == 1  # replayable from offset 0
        replay = buffer.reader()
        assert len(replay.read_new()) == 5

    def test_columnar_pipeline_never_materializes_before_sink(
        self, fig11_setup, monkeypatch
    ):
        # the tentpole guarantee: sources emit ColumnBatch, operators
        # propagate batches, buffers park segments -- row deltas exist
        # only when a result sink asks.  Spy on the one conversion point
        # (ColumnBatch.to_deltas) across a full fig11 run.
        from repro.engine.columns import ColumnBatch

        plan, paces, _ = fig11_setup
        calls = []
        original = ColumnBatch.to_deltas

        def spy(batch):
            calls.append(len(batch))
            return original(batch)

        monkeypatch.setattr(ColumnBatch, "to_deltas", spy)
        clear_compiled_caches()
        with engine_mode(batched=True, columnar=True):
            PlanExecutor(plan, StreamConfig()).run(
                paces, collect_results=False
            )
            assert calls == []  # no sink read -> no deltas, ever
            result = PlanExecutor(plan, StreamConfig()).run(
                paces, collect_results=True
            )
        assert calls != []  # result collection is the only consumer
        assert result.query_results


def test_calibration_under_columnar_matches_batched():
    """The stats walker must know the columnar operator classes.

    Calibration runs a stats-mode batch execution and walks the compiled
    tree; under ``REPRO_ENGINE_COLUMNAR=1`` that tree is columnar, and
    the collected per-node statistics must equal the batched path's
    (work identity makes every count the same).
    """
    from repro.cost.cache import serialize_stats
    from repro.engine.calibrate import calibrate_plan

    from .util import (
        make_toy_catalog,
        toy_query_max,
        toy_query_region,
        toy_query_total,
    )

    catalog = make_toy_catalog()
    queries = [
        toy_query_total(catalog),
        toy_query_region(catalog),
        toy_query_max(catalog),
    ]
    batched_plan = shared_plan_for(catalog, queries)
    columnar_plan = shared_plan_for(catalog, queries)
    clear_compiled_caches()
    with engine_mode(batched=True):
        calibrate_plan(batched_plan, StreamConfig())
    clear_compiled_caches()
    with engine_mode(batched=True, columnar=True):
        calibrate_plan(columnar_plan, StreamConfig())
    assert serialize_stats(columnar_plan) == serialize_stats(batched_plan)


def test_fuzz_oracle_matrix_includes_columnar():
    """The fuzzer's oracle matrix must keep the columnar legs pinned."""
    import inspect

    from repro.fuzz import oracles

    source = inspect.getsource(oracles)
    assert "shared-columnar" in source
    assert "shared-columnar-vec" in source
