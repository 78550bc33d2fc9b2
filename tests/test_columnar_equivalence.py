"""The production operators against the per-tuple reference.

Mirror of ``test_hotpath_equivalence``: on the fig11 workload the
production operators (docs/PERFORMANCE.md) must charge the WorkMeter
*exactly* like the reference and emit the same results bit for bit,
because both count the same logical deltas.  Every batch, whatever its
size, takes its operator's one generated kernel: ``TestLargeBatches``
sends batches of more than 16384 rows through a decorated source chain,
a join whose slots carry ``|net| > 1`` and a shared SUM/AVG/MIN
aggregate over non-integral floats with retractions.

The buffer segment log (producers append ``ColumnBatch`` segments,
readers get the same objects back, nothing converts them to deltas)
gets direct unit coverage at the bottom, then query ids past int64 and,
at the very end, that no production path imports NumPy.
"""

import random
import subprocess
import sys

import pytest

from repro.engine.buffers import Buffer
from repro.engine.columns import ColumnBatch
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.fuzz.naive import evaluate
from repro.fuzz.reference import ReferenceExecutor
from repro.logical.builder import PlanBuilder
from repro.physical.hotpath import clear_compiled_caches
from repro.relational.expressions import agg_avg, agg_min, agg_sum, col
from repro.relational.schema import FLOAT, INT, STR, Schema
from repro.relational.table import Catalog
from repro.relational.tuples import DELETE, INSERT, Delta
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


def assert_columnar_equivalent(columnar, reference):
    """Bit-identical work and results."""
    assert work_fingerprint(columnar) == work_fingerprint(reference)
    assert columnar.query_results == reference.query_results


class TestFig11WorkIdentity:
    def test_columnar_matches_reference(self, fig11_setup):
        plan, paces, _ = fig11_setup
        reference = run_with(plan, paces, ReferenceExecutor)
        columnar = run_with(plan, paces)
        assert columnar.metadata["engine_mode"] == "columnar"
        assert reference.metadata["engine_mode"] == "reference"
        assert_columnar_equivalent(columnar, reference)

    def test_uniform_pace_identity(self, fig11_setup):
        plan, _, _ = fig11_setup
        paces = {subplan.sid: 3 for subplan in plan.subplans}
        reference = run_with(plan, paces, ReferenceExecutor)
        columnar = run_with(plan, paces)
        assert_columnar_equivalent(columnar, reference)

    def test_every_chain_batch_matches_the_expression_spec(
        self, fig11_setup, monkeypatch
    ):
        # Record every batch the fig11 run feeds a source chain or a
        # join's or aggregate's decorations, then replay it -- as a
        # window runs it and as calibration does (stats_mode: the same
        # kernel between tallies) -- and demand the same rows, signs,
        # bits, WorkMeter charges and counters.  The generated kernels
        # are also held to a hand-written row loop over the tree-walking
        # expression spec (``_reference_apply_rows`` below).  (The aggregate's absorb and emission are replayed
        # batch by batch against the per-tuple reference in
        # tests/test_aggregate_emission_spec.py.)
        from repro.physical import columnar as columnar_mod
        from repro.physical.work import WorkMeter

        plan, paces, _ = fig11_setup
        calls = _record_chain_calls(monkeypatch)
        joins = _record_join_advances(monkeypatch)
        clear_compiled_caches()
        PlanExecutor(plan, StreamConfig()).run(paces)
        monkeypatch.undo()
        # a join's chain runs inside its side kernels, in a window and
        # in calibration alike: both are replayed, and each output is
        # held to the chain's spec over the reference join's raw output
        _replay_joins(joins, monkeypatch)

        nodes = [
            node for subplan in plan.subplans for node in _walk(subplan.root)
        ]
        sources = [(node, batch, mask) for node, source, batch, mask in calls
                   if source]
        assert {node.uid for node, _, _ in sources} == {
            n.uid for n in nodes if n.kind == "source"}
        # every aggregate's decorations are replayed on an empty batch
        # too, which keeps coverage at all of them whatever fig11's
        # traffic looks like
        decorated = [n for n in nodes if n.kind == "aggregate"]
        deco_calls = [
            (node, ColumnBatch.empty(len(node.core_schema)))
            for node in decorated
        ] + [(node, batch) for node, source, batch, _ in calls if not source]
        assert {node.uid for node, _ in deco_calls} == {
            n.uid for n in decorated}

        for node, batch, mask in sources:
            outputs, meters, tallies = [], [], []
            for stats_mode in (False, True):
                buffer = Buffer("replay")
                meter = WorkMeter()
                source = columnar_mod.ColumnarSourceExec(
                    node, buffer.reader(), mask, meter, stats_mode
                )
                buffer.append(batch)
                outputs.append(source.advance())
                meters.append(meter)
                decorations = source.decorations
                tallies.append((
                    source.kept_total, source.kept_per_q,
                    decorations.filter_in_per_q, decorations.filter_out_per_q,
                ))
            _assert_same_deltas(*outputs)
            _assert_meters_identical(*meters)
            assert tallies[0] == (0, {}, {}, {})
            assert tallies[1][0] == sum(
                1 for bits in batch.bit_list() if bits & mask)
            assert bool(tallies[1][2]) == bool(
                node.filters and tallies[1][0])
            _assert_row_kernel_matches_reference(node, batch, mask)

        for node, batch in deco_calls:
            _assert_row_kernel_matches_reference(node, batch, None)

    def test_fused_kernels_actually_fire(self, fig11_setup, monkeypatch):
        # guard against the replay test passing vacuously because fusion
        # silently stopped engaging: every chain's batches reach its
        # generated kernel, and every kernel carries its source text
        from repro.physical import hotpath

        plan, paces, _ = fig11_setup
        calls = _record_chain_calls(monkeypatch)
        clear_compiled_caches()
        PlanExecutor(plan, StreamConfig()).run(paces)
        kinds = set()
        for per_node in hotpath._ARTIFACTS.values():
            for kind, artifact in per_node.items():
                kind = kind if isinstance(kind, str) else kind[0]
                if kind.startswith("fused-"):
                    kinds.add(kind)
                    assert hasattr(artifact, "fused_source"), kind
        assert kinds == {"fused-row-src", "fused-row", "fused-join",
                         "fused-aggregate"}
        assert any(source and len(batch) for _, source, batch, _ in calls)
        assert any(not source and len(batch) for _, source, batch, _ in calls)


def _record_chain_calls(monkeypatch):
    """Spy on every chain: ``[(node, source?, batch, mask)]`` in order."""
    from repro.physical import columnar as columnar_mod

    calls = []
    apply = columnar_mod.ColumnarDecorations.apply

    def record(self, batch, meter, mask=None):
        calls.append((self.node, self.source, batch, mask))
        return apply(self, batch, meter, mask)

    monkeypatch.setattr(columnar_mod.ColumnarDecorations, "apply", record)
    return calls


def _record_join_advances(monkeypatch):
    """Spy on every join: ``[(join, left batch, right batch, output,
    its node's charges, entry count)]`` per advance, in order."""
    from repro.physical import columnar as columnar_mod

    advances = []
    init = columnar_mod.ColumnarJoinExec.__init__
    advance = columnar_mod.ColumnarJoinExec.advance

    def tapped_init(self, node, left, right, *args, **kwargs):
        init(self, node, _Tap(left), _Tap(right), *args, **kwargs)

    def tapped_advance(self):
        out = advance(self)
        advances.append((self, self.left.batch, self.right.batch, out,
                         _node_charges(self), self.entry_count))
        return out

    join_cls = columnar_mod.ColumnarJoinExec
    monkeypatch.setattr(join_cls, "__init__", tapped_init)
    monkeypatch.setattr(join_cls, "advance", tapped_advance)
    return advances


def _node_charges(join):
    names = (join.name, join.decorations.filter_name,
             join.decorations.project_name)
    return [join.meter.per_operator.get(name, 0) for name in names]


def _replay_joins(advances, monkeypatch):
    """Replay each recorded join, advance by advance on private sides,
    as a window runs it and under ``stats_mode``: both emit the window's
    batch, charge its node what the window did and bill its entry count,
    and neither runs a chain kernel.  The output is the chain's
    expression spec over the reference join's undecorated output for the
    same advance."""
    from repro.physical import columnar as columnar_mod
    from repro.physical import operators
    from repro.physical.work import WorkMeter

    replays = {}
    for join, left, right, out, charges, entries in advances:
        node = join.node
        legs = replays.get(id(join))
        if legs is None:
            legs = replays[id(join)] = [
                columnar_mod.ColumnarJoinExec(
                    node, _Feed(), _Feed(), WorkMeter(), stats_mode)
                for stats_mode in (False, True)
            ] + [operators.JoinExec(node, _Feed(), _Feed(), WorkMeter())]
        *pair, reference = legs
        for replay in pair:
            replay.left.batch = left
            replay.right.batch = right
            with monkeypatch.context() as patch:
                chain = _record_chain_calls(patch)
                replayed = replay.advance()
            assert chain == []
            _assert_same_deltas(replayed, out)
            assert _node_charges(replay) == charges
            assert replay.entry_count == entries
        reference.left.batch = deltas_of(left)
        reference.right.batch = deltas_of(right)
        with monkeypatch.context() as patch:
            # the reference's output before its decorations
            patch.setattr(operators.Decorations, "apply",
                          lambda self, deltas, meter: deltas)
            raw = batch_of(reference.advance(), len(node.core_schema))
        rows, signs, bits = _reference_apply_rows(node, raw, WorkMeter(), None)
        assert (list(out.rows()), list(out.sign_list()),
                list(out.bit_list())) == (rows, signs, bits)
    # not vacuous: some filtered join's output was held to its spec
    assert any(len(out) and join.node.filters
               for join, _, _, out, _, _ in advances)


class _Tap:
    """A join input that remembers the batch it last handed over."""

    def __init__(self, child):
        self.child = child
        self.batch = None

    def advance(self):
        self.batch = self.child.advance()
        return self.batch

    def __getattr__(self, name):  # ``release``, ``rewind``, ...
        return getattr(self.child, name)


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def _assert_python_typed(rows):
    for row in rows:
        for value in row:
            assert type(value).__module__ == "builtins", repr(value)


def _reference_apply_rows(node, batch, meter, mask):
    """The hand-written row loop the kernels replaced, kept as their spec.

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
        batch.rows(), batch.sign_list(), batch.bit_list()
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
    assert list(out.sign_list()) == signs
    assert list(out.bit_list()) == bits
    assert len(out) == len(rows)
    _assert_meters_identical(*meters)


def _assert_same_deltas(left, right):
    """Same rows (values and Python types), signs and bits, in order."""
    assert left.width == right.width
    # list(): the shared empty batch's lists are (immutable) tuples
    assert list(left.rows()) == list(right.rows())
    assert [tuple(map(type, row)) for row in left.rows()] == [
        tuple(map(type, row)) for row in right.rows()
    ]
    _assert_python_typed(left.rows())
    assert list(left.sign_list()) == list(right.sign_list())
    assert list(left.bit_list()) == list(right.bit_list())


def _assert_meters_identical(first, *others):
    for other in others:
        assert first.snapshot() == other.snapshot()
        assert (first.input_units, first.output_units, first.rescan_units,
                first.state_units) == (other.input_units, other.output_units,
                                       other.rescan_units, other.state_units)


class _Feed:
    """A scripted child operator: hands over whatever ``batch`` is set."""

    batch = None

    def advance(self):
        return self.batch


#: the batch size above which operators once switched to NumPy kernels:
#: these tests run the one kernel per operator past it
LARGE = 16384


class TestLargeBatches:
    """Batches of more than ``LARGE`` rows through the one kernel per
    operator, on plans run by a :class:`PlanExecutor` and a
    :class:`ReferenceExecutor`: the same results, the same execution
    records and every WorkMeter charge of every subplan the same."""

    @staticmethod
    def _run_both(catalog, queries, paces_of):
        plan = shared_plan_for(catalog, queries)
        paces = {s.sid: paces_of(s) for s in plan.subplans}
        runs, meters = [], []
        for family in (PlanExecutor, ReferenceExecutor):
            clear_compiled_caches()
            executor = family(plan, StreamConfig())
            runs.append(executor.run(paces))
            meters.append({
                sid: (unit.meter.snapshot(), unit.meter.input_units,
                      unit.meter.output_units, unit.meter.rescan_units,
                      unit.meter.state_units)
                for sid, unit in executor.compiled.items()
            })
        production, reference = runs
        assert production.metadata["engine_mode"] == "columnar"
        assert all(production.query_results.values())
        assert_columnar_equivalent(production, reference)
        assert meters[0] == meters[1]
        return plan

    @staticmethod
    def _charged(monkeypatch, prefix):
        """The sizes the production operators charge as input under
        operator names starting with ``prefix``."""
        from repro.physical.work import WorkMeter

        sizes = []
        charge = WorkMeter.charge_input

        def spy(meter, name, units):
            if name.startswith(prefix):
                sizes.append(units)
            return charge(meter, name, units)

        monkeypatch.setattr(WorkMeter, "charge_input", spy)
        return sizes

    MASK = 0b11

    def _nodes(self):
        from repro.mqo.nodes import OpNode, TableRef
        from repro.relational.expressions import agg_count, agg_max

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

    def test_operator_tree_matches_reference(self):
        # a hand-built source(filters, projection) JOIN source ->
        # aggregate fed batches around LARGE rows, an all-filtered batch,
        # an empty execution and retractions, advance by advance against
        # the reference tree; an all-empty execution hands out the shared
        # empty batch instead of allocating one
        clear_compiled_caches()
        nodes = self._nodes()
        reference, reference_buffers, reference_meter = self._tree(
            nodes, False
        )
        columnar, columnar_buffers, columnar_meter = self._tree(nodes, True)
        right_rows = [Delta((k, "g%d" % (k % 3)), 1, -1) for k in range(7)]
        steps = [
            ([], right_rows),
            (self._left_rows(LARGE - 1, 0), []),
            (self._left_rows(LARGE, LARGE), []),
            (self._left_rows(LARGE + 1, 2 * LARGE), []),
            (self._left_rows(LARGE, 3 * LARGE, passing=False), []),
            ([], []),
            # retractions: the aggregate's MIN/MAX rescans and AVG resets
            ([Delta(d.row, -1, d.bits)
              for d in self._left_rows(LARGE + 1, 2 * LARGE)], []),
            ([Delta(d.row, -1, d.bits)
              for d in self._left_rows(5, LARGE)], right_rows[:2]),
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
                join = columnar.child
                assert join.left.advance() is ColumnBatch.empty(3)
                assert join.advance() is ColumnBatch.empty(5)
                assert columnar.advance() is ColumnBatch.empty(5)

    def test_decorated_source_chain(self, monkeypatch):
        rng = random.Random(3)
        catalog = Catalog()
        wide = catalog.create("wide", Schema.of(
            ("k", INT), ("v", FLOAT), ("f", STR)))
        for i in range(3 * LARGE):
            wide.append((i % 97, rng.uniform(0.0, 20.0), rng.choice("xyz")))
        queries = [
            PlanBuilder.scan(catalog, "wide").where(col("v") > 10.0)
            .project([("k", col("k")), ("w", col("v") * 2.5)])
            .as_query(0, "scaled"),
            PlanBuilder.scan(catalog, "wide").where(col("f") == "x")
            .project(["k", "f"]).as_query(1, "tagged"),
        ]
        sizes = self._charged(monkeypatch, "filter:")
        self._run_both(catalog, queries, lambda subplan: 2)
        # the production source's filter stage saw 1.5 * LARGE rows at a
        # time (the reference's own charges land in the list as well)
        assert max(sizes) > LARGE

    def test_join_with_multiplicity_slots(self, monkeypatch):
        from repro.physical import columnar as columnar_mod

        rng = random.Random(5)
        catalog = Catalog()
        # every dimension row arrives two or three times: its slot's net
        # is the multiplicity, and each match leaves |net| copies
        dim = catalog.create("dim", Schema.of(("rk", INT), ("g", STR)))
        for k in range(211):
            for _ in range(2 + k % 2):
                dim.append((k, "g%d" % (k % 5)))
        fact = catalog.create("fact", Schema.of(("k", INT), ("v", FLOAT)))
        for i in range(LARGE + 4000):
            fact.append((i % 211, rng.uniform(0.0, 5.0)))
        fact.churn = [(row, INSERT) for row in fact.rows] + [
            (row, DELETE) for row in fact.rows[::7]]
        # the dimension side is installed first, then the whole fact log
        # probes it as one batch
        queries = [
            PlanBuilder.scan(catalog, "dim")
            .join(PlanBuilder.scan(catalog, "fact"), "rk", "k")
            .where(col("v") > 1.0).as_query(0, "joined"),
            PlanBuilder.scan(catalog, "dim")
            .join(PlanBuilder.scan(catalog, "fact"), "rk", "k")
            .where(col("g") == "g1").as_query(1, "joined_g1"),
        ]
        probes = []
        build = columnar_mod.fused_join_kernel

        def spy_build(node, side, install):
            kernel = build(node, side, install)

            def spy(rows, signs, bits, other_get, *rest):
                # ``other_get`` is the other side's ``table.get``
                nets = {abs(net) for slots in other_get.__self__.values()
                        for net in slots.values()}
                probes.append((len(rows), max(nets, default=0)))
                return kernel(rows, signs, bits, other_get, *rest)

            spy.width = kernel.width
            return spy

        monkeypatch.setattr(columnar_mod, "fused_join_kernel", spy_build)
        plan = self._run_both(catalog, queries, lambda subplan: 1)
        assert any(n > LARGE and net > 1 for n, net in probes), probes
        assert any(subplan.query_mask == 0b11 for subplan in plan.subplans)

    def test_shared_float_aggregate_with_retractions(self, monkeypatch):
        rng = random.Random(7)
        catalog = Catalog()
        table = catalog.create("m", Schema.of(("g", INT), ("v", FLOAT)))
        for i in range(3 * LARGE):
            table.append((i % 53, rng.uniform(-50.0, 50.0) / 3.0))
        # retractions of every fifth row, among them each group's
        # minimum so MIN rescans, behind the inserts: the second batch
        # carries inserts and retractions together
        minima = {}
        for row in table.rows:
            if row[0] not in minima or row[1] < minima[row[0]][1]:
                minima[row[0]] = row
        gone = dict.fromkeys(table.rows[::5] + sorted(minima.values()))
        table.churn = [(row, INSERT) for row in table.rows] + [
            (row, DELETE) for row in gone]
        aggs = [agg_sum(col("v"), "s"), agg_avg(col("v"), "a"),
                agg_min(col("v"), "lo")]
        queries = [
            PlanBuilder.scan(catalog, "m").aggregate(["g"], aggs)
            .as_query(0, "all"),
            PlanBuilder.scan(catalog, "m").where(col("v") > -5.0)
            .aggregate(["g"], aggs).as_query(1, "high"),
            PlanBuilder.scan(catalog, "m").where(col("g") < 40)
            .aggregate(["g"], aggs).as_query(2, "groups"),
        ]
        sizes = self._charged(monkeypatch, "agg:")
        plan = self._run_both(catalog, queries, lambda subplan: 2)
        assert max(sizes) > LARGE
        assert any(
            node.kind == "aggregate" and node.query_mask == 0b111
            for subplan in plan.subplans for node in _walk(subplan.root)
        )


class TestListBackedSignsBits:
    def test_the_empty_batch_is_shared_and_immutable(self):
        empty = ColumnBatch.empty(3)
        assert ColumnBatch.empty(3) is empty
        assert len(empty) == 0 and empty.rows() == ()
        assert empty.sign_list() == () and empty.bit_list() == ()


class TestGeneratedCodeFailures:
    """A predicate that raises propagates the exception the closure
    chain raised, through a frame whose source line is the generated
    one (every kernel's text is registered with ``linecache``)."""

    @staticmethod
    def _source(predicate, rows, reference=False):
        from repro.mqo.nodes import OpNode, TableRef
        from repro.physical import columnar as columnar_mod
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

    @pytest.mark.parametrize("case", ["none-compare", "zero-division"])
    def test_exception_type_and_generated_line(self, case):
        import linecache
        import traceback

        if case == "none-compare":
            predicate, bad, error = col("v") < 5, None, TypeError
        else:
            predicate, bad, error = 1 / col("v") > 2, 0, ZeroDivisionError
        rows = [(1, 3), (2, bad), (3, 4)]
        clear_compiled_caches()
        with pytest.raises(error) as caught:
            self._source(predicate, rows).advance()
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
        reference = self._source(predicate, rows, True)
        with pytest.raises(error):
            reference.advance()

    @pytest.mark.parametrize("over", ["column", "arithmetic", "not-inline"])
    @pytest.mark.parametrize("kind", ["in", "prefix", "needle"])
    def test_containment_on_both_lanes(self, kind, over):
        # hash equality (``isin``) and ``str`` semantics per row, over a
        # bare column, arithmetic, and arithmetic by a column divisor, on
        # the per-tuple reference and the generated row kernel; the row
        # kernel inlines the containment test whatever its child
        from repro.relational.expressions import contains, starts_with

        text, number = {
            "column": (col("k"), col("v")),
            "arithmetic": (col("k") + "x" + col("k"), col("v") * 2 - 1),
            "not-inline": (col("k") + "x" * (6 // col("v")), 12 / col("v")),
        }[over]
        predicate, inline = {
            "in": (number.isin([3, 5, 4.0, 2]), " in _k0)"),
            "prefix": (starts_with(text, "ab"), ".startswith('ab')"),
            "needle": (contains(text, "ab"), "'ab' in "),
        }[kind]
        rows = [("ab", 2), ("ba", 3), ("abc", 6), ("b", 3), ("cab", 4)]
        expected = [delta.row for delta in self._source(
            predicate, rows, True).advance()]
        assert 0 < len(expected) < len(rows)
        clear_compiled_caches()
        source = self._source(predicate, rows)
        assert list(source.advance().rows()) == expected
        assert inline in source.decorations.kernel.fused_source


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
        plan, paces, _ = fig11_setup
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
        assert_columnar_equivalent(columnar, reference_first)

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


@pytest.mark.parametrize("state_factor", (0, None, 1 << 30))
def test_aggregate_stats_identical_across_operator_families(
    fig11_setup, state_factor
):
    """A calibration run is a production run plus tallies at the operator
    boundaries: it fills the ``NodeStats`` of every node -- sources,
    joins, and aggregates with their deletes, MIN/MAX and per-query group
    counts -- and bills the work exactly as the per-tuple reference
    family does, whatever the state charge: none, the default, or one
    far above every other charge.  (The production aggregate is no
    subclass of the reference one: ``_collect_stats`` walks either by
    plan node kind.)
    """
    from repro.cost.cache import serialize_stats
    from repro.engine import calibrate
    from repro.physical import columnar as columnar_mod
    from repro.physical.operators import AggregateExec

    assert AggregateExec not in columnar_mod.ColumnarAggregateExec.__mro__
    plan, _, _ = fig11_setup
    collected = []
    for calibrate_with, family in (
        (reference_calibration, "reference"),
        (calibrate.calibrate_plan, "columnar"),
    ):
        clear_compiled_caches()
        config = (StreamConfig() if state_factor is None
                  else StreamConfig(state_factor=state_factor))
        calibration = calibrate_with(plan, config)
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
    """The fuzzer's oracle matrix pins the production operators to the
    per-tuple reference, bit for bit."""
    import inspect

    from repro.fuzz import oracles

    source = inspect.getsource(oracles)
    assert '"shared-columnar"' in source
    assert (
        '("shared-columnar", "shared-unbatched", _check_bit_identity)'
        in source
    )


# -- inputs no fixed-width encoding would take ---------------------------------
#
# With NumPy unimportable, or with a query id of 62 or more (past an int64
# bitvector), the production tree must be the reference bit for bit --
# results, every WorkMeter-derived number, and the calibrated statistics:
# batches carry rows, signs and bitvectors as Python lists and ints.

_ROW_LANE_ONLY = """
import sys
{block}
sys.path.insert(0, {root!r})
from repro.cost.cache import serialize_stats
from repro.engine.calibrate import calibrate_plan
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.fuzz.reference import ReferenceExecutor
from tests.test_columnar_equivalence import _toy_queries, work_fingerprint
from tests.util import make_toy_catalog, reference_calibration, shared_plan_for

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


def _run_row_lane_only(block, query_ids):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    script = _ROW_LANE_ONLY.format(
        block=block, root=str(root / "src"), query_ids=query_ids,
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
    out = _run_row_lane_only('sys.modules["numpy"] = None', (0, 1, 2))
    assert "row-lane-only ok [0, 1, 2]" in out


def test_query_ids_past_int64_keep_the_row_lane():
    out = _run_row_lane_only("", (3, 62, 81))
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
from repro.service.core import QueryService
from tests.util import (
    make_toy_catalog, shared_plan_for, toy_query_max, toy_query_region,
    toy_query_total,
)

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
    "numpy": sorted(name for name in sys.modules
                    if name == "numpy" or name.startswith("numpy.")),
    "work": [(run.total_quanta, sorted(run.query_final_quanta.items()))
             for run in runs],
}}))
"""


#: ``exec_lazy_22q``'s window -- the 22-query shared plan at paces 1/3 over
#: a scale-0.5 catalog with 25% lineitem updates, whose largest batches
#: are 4500-row whole-lineitem reads
_EXEC_LAZY_CHILD = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
from repro.engine.executor import PlanExecutor
from repro.mqo.merge import MQOOptimizer
from repro.workloads.tpch import (
    ALL_QUERY_NAMES, add_lineitem_updates, build_workload, generate_catalog,
)

catalog = generate_catalog(scale=0.5, seed=5)
add_lineitem_updates(catalog, fraction=0.25, seed=11)
plan = MQOOptimizer(catalog).build_shared_plan(
    build_workload(catalog, ALL_QUERY_NAMES))
paces = dict((s.sid, 1 if s.child_subplans() else 3) for s in plan.subplans)
run = PlanExecutor(plan, catalog=catalog).run(paces)
print(repr({{
    "numpy": sorted(name for name in sys.modules
                    if name == "numpy" or name.startswith("numpy.")),
    "work": run.total_quanta,
}}))
"""


def _lane_child(template=_LANE_CHILD):
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    script = template.format(src=str(root / "src"), root=str(root))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=str(root),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_row_lane_paths_never_run_numpy():
    # the production entry points, a calibration, a window and service
    # windows: nothing imports NumPy, not even lazily
    child = _lane_child()
    assert child["numpy"] == []
    assert all(work for work, _ in child["work"])


def test_exec_lazy_windows_stay_on_the_row_lane():
    # the benchmark's lazy window, its largest batches included, leaves
    # ``numpy`` absent from ``sys.modules``
    child = _lane_child(_EXEC_LAZY_CHILD)
    assert child["numpy"] == []
    assert child["work"] > 0
