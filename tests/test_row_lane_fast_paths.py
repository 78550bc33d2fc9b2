"""The operators' fast paths against the general loops they shortcut.

Buffer consolidation (``columnar._consolidated_batch``) has a fast path
for the common case and keeps its one-hash netting loop as the
fallback: an insert-only read with every ``(row, bits)`` distinct is
returned as read.  A join side's generated kernel
(``fused.fused_join_kernel``) probes, decorates and installs in one
pass per delta; its probe tests a net of 1 first, and the generated
absorb inlines the reference's SUM/AVG arithmetic.  Each must emit
exactly what the general form emits: same rows, order, signs and bits.
A private join side's install is pinned against a spelled-out install,
slots at net -1 included; whole join and source operators against the
per-tuple reference, charge for charge.

``TestFastPathCounts`` is the structure floor: how many consolidations
of one window of the 22-query plan take each path.
"""

import math

import pytest

from repro.engine.arrangements import Arrangement, PrivateSide
from repro.engine.buffers import Buffer
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.mqo.merge import MQOOptimizer
from repro.mqo.nodes import OpNode, TableRef
from repro.physical import columnar, operators
from repro.physical.faults import inject_fault
from repro.physical.fused import fused_join_kernel
from repro.physical.work import WorkMeter
from repro.relational.expressions import agg_avg, agg_sum, col
from repro.relational.schema import Schema
from repro.relational.tuples import Delta, consolidate
from repro.workloads.tpch import (
    ALL_QUERY_NAMES,
    add_lineitem_updates,
    build_workload,
    generate_catalog,
)

from .util import batch_of, deltas_of


# -- consolidation -----------------------------------------------------------


def _segments(*delta_lists):
    return [batch_of(deltas, 2) for deltas in delta_lists]


def _general_consolidation(monkeypatch, segments):
    with monkeypatch.context() as patch:
        patch.setattr(columnar, "_distinct_inserts", lambda listed: False)
        return columnar._consolidated_batch(segments, 2)


CONSOLIDATION_CASES = {
    "one segment, distinct inserts": [
        [Delta((1, "a"), 1, 1), Delta((2, "b"), 1, 1), Delta((1, "a"), 1, 2)],
    ],
    "several segments, distinct inserts": [
        [Delta((1, "a"), 1, 1), Delta((2, "b"), 1, 3)],
        [Delta((3, "c"), 1, 1)],
        [Delta((1, "a"), 1, 2), Delta((2, "b"), 1, 1)],
    ],
    "one segment, duplicate inserts": [
        [Delta((1, "a"), 1, 1), Delta((2, "b"), 1, 1), Delta((1, "a"), 1, 1)],
    ],
    "several segments, a duplicate across them": [
        [Delta((1, "a"), 1, 1), Delta((2, "b"), 1, 1)],
        [Delta((2, "b"), 1, 1), Delta((4, "d"), 1, 1)],
    ],
    "equal rows of different types": [
        [Delta((1, "a"), 1, 1), Delta((1.0, "a"), 1, 1)],
    ],
    "mixed signs, cancelling": [
        [Delta((1, "a"), 1, 1), Delta((2, "b"), 1, 1)],
        [Delta((1, "a"), -1, 1), Delta((3, "c"), -1, 1),
         Delta((3, "c"), -1, 1)],
    ],
    "mixed signs, nothing cancels": [
        [Delta((1, "a"), -1, 1), Delta((2, "b"), 1, 1)],
    ],
    "mixed signs, nets past one either way": [
        [Delta((1, "a"), 1, 1), Delta((2, "b"), -1, 1),
         Delta((1, "a"), 1, 1)],
        [Delta((2, "b"), -1, 1), Delta((1, "a"), 1, 1),
         Delta((2, "b"), -1, 2), Delta((1, "a"), -1, 1)],
    ],
    "mixed signs, a key cancelled then back": [
        [Delta((1, "a"), 1, 1), Delta((3, "c"), 1, 1),
         Delta((1, "a"), -1, 1)],
        # back after reaching 0: it keeps its first-seen place
        [Delta((1, "a"), 1, 1), Delta((1.0, "a"), 1, 1)],
    ],
}


class TestConsolidation:
    @pytest.mark.parametrize("name", sorted(CONSOLIDATION_CASES))
    def test_fast_path_matches_the_general_loop_and_the_reference(
        self, monkeypatch, name
    ):
        delta_lists = CONSOLIDATION_CASES[name]
        fast = columnar._consolidated_batch(_segments(*delta_lists), 2)
        general = _general_consolidation(
            monkeypatch, _segments(*delta_lists))
        expected = consolidate([d for ds in delta_lists for d in ds])
        assert deltas_of(fast) == deltas_of(general) == expected
        assert [type(v) for row in fast.rows() for v in row] == [
            type(v) for d in expected for v in d.row]

    @pytest.mark.parametrize("name", sorted(CONSOLIDATION_CASES))
    def test_fast_path_taken_exactly_on_distinct_inserts(self, name):
        delta_lists = CONSOLIDATION_CASES[name]
        listed = [
            (b.rows(), b.sign_list(), b.bit_list())
            for b in _segments(*delta_lists)
        ]
        deltas = [d for ds in delta_lists for d in ds]
        distinct = all(d.sign == 1 for d in deltas) and len(
            {(d.row, d.bits) for d in deltas}) == len(deltas)
        assert columnar._distinct_inserts(listed) is distinct
        assert distinct is name.endswith("distinct inserts")

    def test_one_segment_comes_back_as_read(self):
        (segment,) = _segments(
            CONSOLIDATION_CASES["one segment, distinct inserts"][0])
        assert columnar._consolidated_batch([segment], 2) is segment


# -- private-side install ----------------------------------------------------


def _join_node(left_schema, right_schema, left_keys, right_keys,
               filters=None, projections=None, mask=0b11):
    return OpNode(
        "join",
        children=[
            OpNode("source", ref=TableRef("l", left_schema), query_mask=mask),
            OpNode("source", ref=TableRef("r", right_schema), query_mask=mask),
        ],
        left_keys=left_keys, right_keys=right_keys, filters=filters,
        projections=projections, query_mask=mask,
    )


#: ``(k, v) JOIN (o,)`` on ``k = o``: deltas of either width-2 side key
#: on their first column
_KEYED = {
    0: _join_node(Schema.of("k", "v"), Schema.of("o"), ["k"], ["o"]),
    1: _join_node(Schema.of("o"), Schema.of("k", "v"), ["o"], ["k"]),
}


def _run_kernel(side, batch, other_table, own, install):
    """One side's kernel over ``batch`` (``_KEYED`` nodes filter and
    project nothing); returns the emitted ``(row, sign, bits)`` triples
    and the match count it reports."""
    out = [], [], []
    kernel = fused_join_kernel(_KEYED[side], side, install)
    joined = kernel(batch.rows(), batch.sign_list(), batch.bit_list(),
                    other_table.get, own, *out)
    return list(zip(*out)), joined


def _snapshot(side):
    return side.entries, [
        (key, list(inner.items())) for key, inner in side.table.items()
    ]


def _install_spec(table, deltas):
    """The install, spelled out: a slot's net moves by the sign and a
    slot (and then an empty key) leaves at 0, so a returning slot lands
    at its key's tail."""
    for delta in deltas:
        inner = table.setdefault(delta.row[0], {})
        slot = (delta.row, delta.bits)
        net = inner.get(slot, 0) + delta.sign
        if net:
            inner[slot] = net
        else:
            del inner[slot]
        if not inner:
            del table[delta.row[0]]
    return sum(map(len, table.values())), [
        (key, list(inner.items())) for key, inner in table.items()
    ]


def _install_batches(batches):
    """Install ``batches`` one by one through the left side's kernel
    (nothing to probe); returns the side's snapshot after each,
    asserting it equals the spec's."""
    side, spec = PrivateSide(), {}
    snapshots = []
    for deltas in batches:
        assert _run_kernel(0, batch_of(deltas, 2), {}, side, True) == ([], 0)
        snapshots.append(_snapshot(side))
        assert snapshots[-1] == _install_spec(spec, deltas)
    return snapshots


class TestInstall:
    def test_insert_only_batches(self):
        entries, table = _install_batches([
            [Delta((1, "a"), 1, 1), Delta((2, "b"), 1, 1),
             Delta((1, "c"), 1, 3)],
            [Delta((1, "a"), 1, 1), Delta((1, "a"), 1, 2),
             Delta((2, "b"), 1, 1), Delta((3, "d"), 1, 1)],
        ])[-1]
        assert entries == 5
        assert dict(table)[1] == [(((1, "a"), 1), 2), (((1, "c"), 3), 1),
                                  (((1, "a"), 2), 1)]

    def test_an_insert_landing_on_a_net_minus_one_slot(self):
        entries, table = _install_batches([
            [Delta((1, "a"), -1, 1), Delta((2, "b"), -1, 1),
             Delta((2, "c"), 1, 1)],
            # (1, "a") reaches 0 and its key goes; (2, "b") reaches 0
            # and its key stays for (2, "c")
            [Delta((1, "a"), 1, 1), Delta((2, "b"), 1, 1),
             Delta((2, "b"), 1, 1)],
        ])[-1]
        # (2, "b") went at 0, then came back at the key's tail
        assert table == [(2, [(((2, "c"), 1), 1), (((2, "b"), 1), 1)])]
        assert entries == 2

    def test_mixed_signs(self):
        (snapshot,) = _install_batches([
            [Delta((1, "a"), 1, 1), Delta((1, "a"), -1, 1),
             Delta((2, "b"), 1, 1)],
        ])
        assert snapshot == (1, [(2, [(((2, "b"), 1), 1)])])


# -- probe -------------------------------------------------------------------


def _probe_spec(listed, keys, table, left_side):
    """The probe's emission, spelled out: delta-major, per delta its
    key's slots in insertion order, ``|net|`` copies each, the sign
    flipped under a negative net, zero-bit pairs dropped."""
    rows, signs, bits = listed
    out = []
    for position, key in enumerate(keys):
        for (other, sbits), net in (table.get(key) or {}).items():
            joined_bits = bits[position] & sbits
            if not joined_bits:
                continue
            row = rows[position]
            joined = row + other if left_side else other + row
            sign = signs[position] if net > 0 else -signs[position]
            out.extend([(joined, sign, joined_bits)] * abs(net))
    return out


def _probe_table():
    # nets of +1, -1, +2 and -2; slot bits that miss some deltas' bits
    return {
        1: {(("x",), 1): 1, (("y",), 2): -1, (("z",), 3): 2},
        2: {(("w",), 3): -2, (("v",), 4): 1},
        3: {(("u",), 2): 1},
    }


PROBE_DELTAS = [
    Delta((1, "a"), 1, 1),    # x at 1, y drops (1 & 2), z twice
    Delta((2, "b"), -1, 3),   # w twice flipped, v drops (3 & 4)
    Delta((4, "c"), 1, 7),    # no key
    Delta((3, "d"), -1, 1),   # u drops (1 & 2): no output
    Delta((1, "e"), -1, 7),   # every slot of key 1
]


class TestProbe:
    @pytest.mark.parametrize("left_side", [True, False])
    def test_zipped_probe_matches_its_spec(self, left_side):
        # the kernel of an arranged side: it probes and installs nothing
        batch = batch_of(PROBE_DELTAS, 2)
        listed = batch.rows(), batch.sign_list(), batch.bit_list()
        keys = [row[0] for row in batch.rows()]
        side = PrivateSide()
        emitted, joined = _run_kernel(
            0 if left_side else 1, batch, _probe_table(), side, False)
        assert emitted == _probe_spec(listed, keys, _probe_table(), left_side)
        assert len(emitted) == joined == 9
        assert {sign for _, sign, _ in emitted} == {1, -1}
        assert _snapshot(side) == (0, [])


# -- whole joins and base-table chains against the per-tuple reference --------


class _Feed:
    batch = None

    def advance(self):
        return self.batch


def _typed(out):
    # value types ride along: (3,) == (3.0,) == (True,)
    return [(d.row, tuple(map(type, d.row)), d.sign, d.bits)
            for d in deltas_of(out)]


def _assert_joins_agree(node, steps, widths):
    """Feed ``steps`` of ``(left deltas, right deltas)`` to the reference
    join and to the production join -- as a window runs it and under
    ``stats_mode``, each again under the injected ``drop_last_key_match``
    fault -- advance by advance: the same rows, order, types, signs and
    bits, every WorkMeter charge and entry count, and the same
    calibration tallies.  The fault must drop something.  Returns the
    production outputs without the fault."""
    emitted = _joins_agree(node, steps, widths)
    with inject_fault(drop_last_key_match=True):
        assert _joins_agree(node, steps, widths) != emitted
    return emitted


def _joins_agree(node, steps, widths):
    legs = []
    for stats_mode in (False, True):
        meters = WorkMeter(), WorkMeter()
        reference = operators.JoinExec(
            node, _Feed(), _Feed(), meters[0], stats_mode)
        production = columnar.ColumnarJoinExec(
            node, _Feed(), _Feed(), meters[1], stats_mode)
        legs.append((reference, production, meters))
    emitted = []
    for left, right in steps:
        outs = []
        for reference, production, meters in legs:
            reference.left.batch, reference.right.batch = left, right
            production.left.batch = batch_of(left, widths[0])
            production.right.batch = batch_of(right, widths[1])
            expected = _typed(reference.advance())
            got = production.advance()
            assert _typed(got) == expected
            assert meters[0].snapshot() == meters[1].snapshot()
            assert meters[0].state_entries == meters[1].state_entries
            assert reference.entry_count == production.entry_count
            outs.append(expected)
        assert outs[0] == outs[1]
        emitted.append(outs[0])
    for reference, production, _ in legs:
        assert (reference.in_left_per_q, reference.in_right_per_q,
                reference.out_per_q, reference.decorations.filter_in_per_q,
                reference.decorations.filter_out_per_q) == (
            production.in_left_per_q, production.in_right_per_q,
            production.out_per_q, production.decorations.filter_in_per_q,
            production.decorations.filter_out_per_q)
    return emitted


#: ``orders(ok, ck, price) JOIN lines(lk, lc, qty, tag)`` on two columns
_ORDERS = Schema.of("ok", "ck", "price")
_LINES = Schema.of("lk", "lc", "qty", "tag")


def _two_key_steps():
    orders = [Delta((k, k % 3, 10.0 * k), 1, 0b11) for k in range(6)]
    lines = [Delta((k % 6, k % 3, float(k), "t%d" % (k % 2)), 1,
                   0b11 if k % 4 else 0b01) for k in range(14)]
    return [
        (orders[:4], lines[:7]),
        # duplicates: the slots' nets reach 2, and each match leaves
        # |net| copies
        (orders[:2], lines[7:]),
        ([], lines[:3]),
        # retractions: order 0's slot back to net 1, order 3's key
        # emptied
        ([Delta(orders[0].row, -1, 0b11), Delta(orders[3].row, -1, 0b11)],
         []),
        # zero joined bits: q1-only lines against a q0-only order
        ([Delta((5, 2, 1.5), 1, 0b01)],
         [Delta((5, 2, 9.0, "t0"), 1, 0b10),
          Delta((5, 2, 8.0, "t1"), -1, 0b10)]),
        (orders[4:], [Delta(d.row, -1, d.bits) for d in lines[:7]]),
        # right deltas probe left slots under a key the injected fault
        # loses (7 % 4 == 3), one of them a retraction
        ([Delta((7, 1, 70.0), 1, 0b11), Delta((7, 1, 75.0), 1, 0b01)],
         [Delta((7, 1, 1.0, "t1"), 1, 0b11),
          Delta((7, 1, 2.0, "t0"), -1, 0b11)]),
        ([], []),
    ]


class TestJoinKernel:
    def test_filters_reading_both_halves_and_a_narrowing_projection(self):
        node = _join_node(
            _ORDERS, _LINES, ["ok", "ck"], ["lk", "lc"],
            filters={0: col("qty") * 10.0 < col("price"),
                     1: (col("tag") == "t1") | (col("price") > 30.0)},
            projections={
                0: (("ok", col("ok")), ("gross", col("price") * col("qty"))),
                1: (("ok", col("ok")), ("tag", col("tag"))),
            },
        )
        emitted = _assert_joins_agree(node, _two_key_steps(), (3, 4))
        assert any(len(step) > 1 for step in emitted)
        assert {len(row) for step in emitted for row, _, _, _ in step} == {3}

    def test_row_plus_extras_projection(self):
        # q1 keeps the whole row, so q0's computed column is appended
        node = _join_node(
            _ORDERS, _LINES, ["ok", "ck"], ["lk", "lc"],
            filters={0: col("qty") > 2.0},
            projections={0: (("ok", col("ok")), ("gross",
                                                 col("price") * col("qty")))},
        )
        source = fused_join_kernel(node, 1, True).fused_source
        assert "orow + drow + (" in source and "drow[2]" in source
        emitted = _assert_joins_agree(node, _two_key_steps(), (3, 4))
        assert {len(row) for step in emitted for row, _, _, _ in step} == {8}

    def test_undecorated_multi_column_keys(self):
        node = _join_node(_ORDERS, _LINES, ["ok", "ck"], ["lk", "lc"])
        emitted = _assert_joins_agree(node, _two_key_steps(), (3, 4))
        nets = [sign for step in emitted for _, _, sign, _ in step]
        assert -1 in nets and 1 in nets
        # |net| > 1 slots left their copies adjacent
        assert any(step[i] == step[i + 1] for step in emitted
                   for i in range(len(step) - 1))

    def test_a_self_join_on_two_handles_of_one_arrangement(self):
        # one table read by both sides, as two bare scans: both sides are
        # handles on the one arrangement of (t, column 0), and each
        # advances (copy-on-write) past what its own scan read
        left = Schema.of("k", "v")
        right = Schema.of("k2", "v2")
        node = OpNode(
            "join",
            children=[
                OpNode("source", ref=TableRef("t", left), query_mask=0b1),
                OpNode("source", ref=TableRef("t", right), query_mask=0b1),
            ],
            left_keys=["k"], right_keys=["k2"], query_mask=0b1,
        )
        log = [[((k % 4, "v%d" % k), 1) for k in range(9)],
               [((1, "v1"), -1), ((2, "v9"), 1), ((1, "v1"), 1)],
               [((k % 4, "v%d" % k), -1) for k in range(5)]]
        buffer, reference_buffer = Buffer("t"), Buffer("t")
        arrangement = Arrangement("t", (0,), buffer)
        handles = (arrangement.acquire(0, "left"),
                   arrangement.acquire(0, "right"))
        meters = WorkMeter(), WorkMeter()
        production = columnar.ColumnarJoinExec(
            node,
            columnar.ColumnarSourceExec(node.children[0], buffer.reader(),
                                        0b1, meters[0]),
            columnar.ColumnarSourceExec(node.children[1], buffer.reader(),
                                        0b1, meters[0]),
            meters[0], arranged=handles,
        )
        reference = operators.JoinExec(
            node,
            operators.SourceExec(node.children[0], reference_buffer.reader(),
                                 0b1, meters[1]),
            operators.SourceExec(node.children[1], reference_buffer.reader(),
                                 0b1, meters[1]),
            meters[1],
        )
        emitted = 0
        for entries in log:
            deltas = [Delta(row, sign, -1) for row, sign in entries]
            buffer.append(batch_of(deltas, 2))
            reference_buffer.append(deltas)
            out = _typed(production.advance())
            assert out == _typed(reference.advance())
            assert meters[0].snapshot() == meters[1].snapshot()
            assert production.entry_count == reference.entry_count
            # the left moved to a clone, the right caught up onto it
            assert handles[0].version is handles[1].version
            emitted += len(out)
        assert production.states == handles
        assert emitted and arrangement.maintenance_ops == sum(map(len, log))


class TestBaseTableChain:
    def test_a_mask_only_chain_shares_its_input_lists(self):
        node = OpNode("source", ref=TableRef("t", Schema.of("k", "v")),
                      query_mask=0b101)
        deltas = [Delta((k, "v%d" % k), 1 if k % 3 else -1, -1)
                  for k in range(7)]
        buffer, meter = Buffer("t"), WorkMeter()
        source = columnar.ColumnarSourceExec(node, buffer.reader(), 0b101,
                                             meter)
        batch = batch_of(deltas, 2)
        buffer.append(batch)
        out = source.advance()
        assert out.rows() is batch.rows()
        assert out.sign_list() is batch.sign_list()
        assert list(out.bit_list()) == [0b101] * 7
        reference_buffer, reference_meter = Buffer("t"), WorkMeter()
        reference = operators.SourceExec(node, reference_buffer.reader(),
                                         0b101, reference_meter)
        reference_buffer.append(deltas)
        assert _typed(out) == _typed(reference.advance())
        assert meter.snapshot() == reference_meter.snapshot()
        assert source.advance() is columnar.ColumnBatch.empty(2)

    def test_a_filtered_chain_starts_from_the_mask(self):
        node = OpNode(
            "source", ref=TableRef("t", Schema.of("k", "v")),
            filters={0: col("k") > 2, 2: col("v") != "v4"},
            projections={0: (("k", col("k")),)},
            query_mask=0b101,
        )
        deltas = [Delta((k, "v%d" % k), 1, -1) for k in range(7)]
        outs, meters = [], []
        for cls, segment in (
                (columnar.ColumnarSourceExec, batch_of(deltas, 2)),
                (operators.SourceExec, deltas)):
            buffer, meter = Buffer("t"), WorkMeter()
            source = cls(node, buffer.reader(), 0b101, meter)
            buffer.append(segment)
            outs.append(_typed(source.advance()))
            meters.append(meter.snapshot())
        assert outs[0] == outs[1]
        assert {bits for _, _, _, bits in outs[0]} == {0b001, 0b100, 0b101}
        assert meters[0] == meters[1]


# -- edge values through the generated absorb ----------------------------------


EDGE_VALUES = [
    0, 7, -12, True, False,
    3.0, -0.0, 2.0 ** 31, -(2.0 ** 31),
    math.nextafter(2.0 ** 31, math.inf),
    -math.nextafter(2.0 ** 31, math.inf),
    2.0 ** 31 + 1, -(2.0 ** 31 + 1), 1e300,
    math.nan, math.inf, -math.inf, 0.5, -2.25, 1e-300,
]


class TestEdgeValues:
    @pytest.mark.parametrize("func", [agg_sum, agg_avg])
    @pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
    def test_absorb_matches_the_reference(self, func, value):
        # the inlined SUM/AVG arithmetic against the reference's state
        # classes: int, bool, signed zero, huge, non-finite and
        # non-integral inputs, inserted, doubled, and retracted
        node = OpNode(
            "aggregate",
            children=[OpNode(
                "source", ref=TableRef("t", Schema.of("g", "v")),
                query_mask=1,
            )],
            group_by=["g"], aggs=[func(col("v"), "s")], query_mask=1,
        )
        steps = [[Delta(("a", value), 1, 1)],
                 [Delta(("a", value), 1, 1), Delta(("a", 0.1), 1, 1)],
                 [Delta(("a", value), -1, 1)]]
        emitted = []
        for cls in (operators.AggregateExec, columnar.ColumnarAggregateExec):
            feed = _Feed()
            meter = WorkMeter()
            aggregate = cls(node, feed, 1, meter)
            outs = []
            for deltas in steps:
                feed.batch = deltas
                if cls is columnar.ColumnarAggregateExec:
                    feed.batch = batch_of(deltas, 2)
                # repr: NaN payloads and signed zeros count, and so do types
                outs.append(repr([(d.row, d.sign, d.bits)
                                  for d in deltas_of(aggregate.advance())]))
            emitted.append((outs, meter.snapshot()))
        assert emitted[0] == emitted[1]


# -- the counts floor --------------------------------------------------------


#: one window of the 22-query plan at paces 1/3 (``exec_lazy_22q``'s
#: recipe at the pipeline benchmark's tiny size): the consolidations and
#: rows that take the fast path and those that take the general loop
COUNTS_FLOOR = {"fast": (6, 701), "general": (3, 447)}


class TestFastPathCounts:
    def test_one_lazy_window_of_the_22_query_plan(self, monkeypatch):
        catalog = generate_catalog(scale=0.05, seed=5)
        add_lineitem_updates(catalog, fraction=0.25, seed=11)
        plan = MQOOptimizer(catalog).build_shared_plan(
            build_workload(catalog, ALL_QUERY_NAMES))
        paces = {subplan.sid: 1 if subplan.child_subplans() else 3
                 for subplan in plan.subplans}
        every, fast = [], []
        distinct_inserts = columnar._distinct_inserts

        def consolidation(listed):
            taken = distinct_inserts(listed)
            rows = sum(len(signs) for _, signs, _ in listed)
            every.append(rows)
            if taken:
                fast.append(rows)
            return taken

        monkeypatch.setattr(columnar, "_distinct_inserts", consolidation)
        PlanExecutor(plan, StreamConfig(), catalog=catalog).run(
            paces, collect_results=False)
        measured = {
            "fast": (len(fast), sum(fast)),
            "general": (len(every) - len(fast), sum(every) - sum(fast)),
        }
        assert measured == COUNTS_FLOOR
