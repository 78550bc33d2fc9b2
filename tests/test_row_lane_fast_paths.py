"""The operators' fast paths against the general loops they shortcut.

Buffer consolidation (``columnar._consolidated_batch``) has a fast path
for the common case and keeps its general loop as the fallback: an
insert-only read with every ``(row, bits)`` distinct is returned as
read.  The join probe (``ColumnarJoinExec._probe``) is one zipped pass
that tests a net of 1 first, and the generated absorb inlines the
reference's SUM/AVG arithmetic.  Each must emit exactly what the general
form emits: same rows, order, signs and bits.  A private
join side's install (``PrivateSide.install``) is one loop; its tests pin
it against a spelled-out install, slots at net -1 included.

``TestFastPathCounts`` is the structure floor: how many consolidations
of one window of the 22-query plan take each path.
"""

import math

import pytest

from repro.engine.arrangements import PrivateSide
from repro.engine.executor import PlanExecutor
from repro.engine.stream import StreamConfig
from repro.mqo.merge import MQOOptimizer
from repro.mqo.nodes import OpNode, TableRef
from repro.physical import columnar, operators
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
    """Install ``batches`` one by one; returns the side's snapshot after
    each, asserting it equals the spec's."""
    side, spec = PrivateSide(), {}
    snapshots = []
    for deltas in batches:
        batch = batch_of(deltas, 2)
        side.install(batch, [row[0] for row in batch.rows()])
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
        batch = batch_of(PROBE_DELTAS, 2)
        listed = batch.rows(), batch.sign_list(), batch.bit_list()
        keys = [row[0] for row in batch.rows()]
        pending = [], [], []
        columnar.ColumnarJoinExec._probe(
            batch, keys, _probe_table(), left_side, pending)
        emitted = list(zip(*pending))
        assert emitted == _probe_spec(listed, keys, _probe_table(), left_side)
        assert len(emitted) == 9
        assert {sign for _, sign, _ in emitted} == {1, -1}


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


class _Feed:
    batch = None

    def advance(self):
        return self.batch


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
