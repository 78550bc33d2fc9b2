"""Tests for the incremental physical operators.

Each operator is exercised directly through small hand-built plans; the
core invariant is *incremental/batch equivalence*: net results after any
sequence of delta batches must equal a one-shot computation.
"""

from fractions import Fraction

import pytest

from repro.errors import ExecutionError
from repro.mqo.nodes import OpNode, TableRef
from repro.physical.operators import (
    AggregateExec,
    Decorations,
    JoinExec,
    SourceExec,
    _MinMaxState,
)
from repro.physical.work import WorkMeter
from repro.relational.expressions import agg_avg, agg_count, agg_max, agg_min, agg_sum, col
from repro.relational.schema import Schema
from repro.relational.tuples import DELETE, Delta, INSERT


class FakeReader:
    """A scripted buffer reader: one segment of deltas per advance call."""

    def __init__(self, batches):
        self.batches = list(batches)

    def read_new(self):
        if not self.batches:
            return []
        return [self.batches.pop(0)]


def table_node(schema, name="t", filters=None, projections=None, mask=0b1):
    return OpNode(
        "source",
        ref=TableRef(name, schema),
        filters=filters,
        projections=projections,
        query_mask=mask,
    )


def drain(exec_op, rounds):
    out = []
    for _ in range(rounds):
        out.extend(exec_op.advance())
    return out


def net(deltas):
    acc = {}
    for delta in deltas:
        key = (delta.row, delta.bits)
        acc[key] = acc.get(key, 0) + delta.sign
        if acc[key] == 0:
            del acc[key]
    return acc


SCHEMA_AB = Schema.of("a", "b")


class TestSourceExec:
    def test_masks_and_counts_work(self):
        node = table_node(SCHEMA_AB, mask=0b01)
        reader = FakeReader([[Delta((1, 2), INSERT, 0b10), Delta((3, 4), INSERT, 0b11)]])
        meter = WorkMeter()
        source = SourceExec(node, reader, 0b01, meter)
        out = source.advance()
        # the q1-only tuple is dropped; the shared tuple is restricted
        assert [d.row for d in out] == [(3, 4)]
        assert out[0].bits == 0b01
        assert meter.input_units == 2  # both records were scanned

    def test_marking_filter_clears_bits_not_rows(self):
        node = table_node(
            SCHEMA_AB,
            filters={1: col("a") > 10},
            mask=0b11,
        )
        reader = FakeReader([[Delta((5, 0), INSERT, 0b11)]])
        source = SourceExec(node, reader, 0b11, WorkMeter())
        out = source.advance()
        # q1's predicate fails -> bit cleared, but q0 still wants the row
        assert len(out) == 1
        assert out[0].bits == 0b01

    def test_filter_drops_row_when_no_query_wants_it(self):
        node = table_node(SCHEMA_AB, filters={0: col("a") > 10}, mask=0b01)
        reader = FakeReader([[Delta((5, 0), INSERT, 0b01)]])
        source = SourceExec(node, reader, 0b01, WorkMeter())
        assert source.advance() == []

    def test_projection_computes_union_columns(self):
        node = table_node(
            SCHEMA_AB,
            projections={0: (("total", col("a") + col("b")),)},
            mask=0b01,
        )
        reader = FakeReader([[Delta((2, 3), INSERT, 0b01)]])
        source = SourceExec(node, reader, 0b01, WorkMeter())
        out = source.advance()
        assert out[0].row == (5,)

    def test_consolidating_reads_cancel_churn(self):
        node = table_node(SCHEMA_AB, mask=0b01)
        churn = [
            Delta((1, 1), INSERT, 0b01),
            Delta((1, 1), DELETE, 0b01),
            Delta((2, 2), INSERT, 0b01),
        ]
        meter = WorkMeter()
        source = SourceExec(
            node, FakeReader([churn]), 0b01, meter, consolidate_reads=True
        )
        out = source.advance()
        assert [d.row for d in out] == [(2, 2)]
        assert meter.input_units == 1  # compacted before scanning


def join_node(left, right, left_keys, right_keys, mask=0b1):
    return OpNode(
        "join",
        children=[left, right],
        left_keys=left_keys,
        right_keys=right_keys,
        query_mask=mask,
    )


class _Feed:
    """Adapter: a scripted child operator."""

    def __init__(self, batches):
        self.batches = list(batches)

    def advance(self):
        if not self.batches:
            return []
        return self.batches.pop(0)


class TestJoinExec:
    def _make(self, left_batches, right_batches, mask=0b1):
        left_schema = Schema.of("k", "x")
        right_schema = Schema.of("k2", "y")
        node = join_node(
            table_node(left_schema, "l", mask=mask),
            table_node(right_schema, "r", mask=mask),
            ["k"], ["k2"], mask,
        )
        meter = WorkMeter()
        join = JoinExec(node, _Feed(left_batches), _Feed(right_batches), meter)
        return join, meter

    def test_simple_match(self):
        join, _ = self._make(
            [[Delta((1, "a"), INSERT, 1)]],
            [[Delta((1, "b"), INSERT, 1)]],
        )
        out = join.advance()
        assert net(out) == {((1, "a", 1, "b"), 1): 1}

    def test_matches_across_executions(self):
        join, _ = self._make(
            [[Delta((1, "a"), INSERT, 1)], []],
            [[], [Delta((1, "b"), INSERT, 1)]],
        )
        first = join.advance()
        second = join.advance()
        assert first == []
        assert net(second) == {((1, "a", 1, "b"), 1): 1}

    def test_delete_retracts_prior_matches(self):
        join, _ = self._make(
            [[Delta((1, "a"), INSERT, 1)], [Delta((1, "a"), DELETE, 1)]],
            [[Delta((1, "b"), INSERT, 1)], []],
        )
        join.advance()
        out = join.advance()
        assert net(out) == {((1, "a", 1, "b"), 1): -1}
        assert join.state_size() == 1  # only the right row remains

    def test_bits_anded_on_output(self):
        join, _ = self._make(
            [[Delta((1, "a"), INSERT, 0b01)]],
            [[Delta((1, "b"), INSERT, 0b11)]],
            mask=0b11,
        )
        out = join.advance()
        assert out[0].bits == 0b01

    def test_disjoint_bits_produce_no_output(self):
        join, _ = self._make(
            [[Delta((1, "a"), INSERT, 0b01)]],
            [[Delta((1, "b"), INSERT, 0b10)]],
            mask=0b11,
        )
        assert join.advance() == []

    def test_same_execution_delta_join(self):
        # both sides arrive in the same execution: output exactly once
        join, _ = self._make(
            [[Delta((1, "a"), INSERT, 1)]],
            [[Delta((1, "b"), INSERT, 1)]],
        )
        out = join.advance()
        assert len(out) == 1

    def test_duplicate_rows_multiply(self):
        join, _ = self._make(
            [[Delta((1, "a"), INSERT, 1), Delta((1, "a"), INSERT, 1)]],
            [[Delta((1, "b"), INSERT, 1)]],
        )
        out = join.advance()
        assert net(out) == {((1, "a", 1, "b"), 1): 2}

    def test_state_charge_grows_with_entries(self):
        left_schema = Schema.of("k", "x")
        right_schema = Schema.of("k2", "y")
        node = join_node(
            table_node(left_schema, "l"), table_node(right_schema, "r"),
            ["k"], ["k2"],
        )
        meter = WorkMeter(Fraction(1, 2))
        join = JoinExec(
            node,
            _Feed([[Delta((i, "a"), INSERT, 1) for i in range(10)]]),
            _Feed([[]]),
            meter,
        )
        join.advance()
        assert meter.state_entries == 10
        assert meter.state_units == 5.0
        assert join.entry_count == 10


def agg_node(child, group_by, aggs, mask=0b1):
    return OpNode(
        "aggregate", children=[child], group_by=group_by, aggs=aggs,
        query_mask=mask,
    )


class TestAggregateExec:
    def _make(self, batches, group_by, aggs, mask=0b1):
        child_schema = Schema.of("g", "v")
        node = agg_node(table_node(child_schema), group_by, aggs, mask)
        meter = WorkMeter()
        agg = AggregateExec(node, _Feed(batches), mask, meter)
        return agg, meter

    def test_sum_single_batch(self):
        agg, _ = self._make(
            [[Delta(("a", 2.0), INSERT, 1), Delta(("a", 3.0), INSERT, 1)]],
            ["g"], [agg_sum(col("v"), "s")],
        )
        out = agg.advance()
        assert net(out) == {(("a", 5.0), 1): 1}

    def test_incremental_update_retracts_and_reinserts(self):
        agg, _ = self._make(
            [[Delta(("a", 2.0), INSERT, 1)], [Delta(("a", 3.0), INSERT, 1)]],
            ["g"], [agg_sum(col("v"), "s")],
        )
        first = agg.advance()
        second = agg.advance()
        assert net(first) == {(("a", 2.0), 1): 1}
        assert net(first + second) == {(("a", 5.0), 1): 1}
        # the second execution retracted the old row
        assert any(d.sign == DELETE and d.row == ("a", 2.0) for d in second)

    def test_group_deletion_emits_retraction_only(self):
        agg, _ = self._make(
            [[Delta(("a", 2.0), INSERT, 1)], [Delta(("a", 2.0), DELETE, 1)]],
            ["g"], [agg_sum(col("v"), "s")],
        )
        agg.advance()
        out = agg.advance()
        assert net(out) == {(("a", 2.0), 1): -1}
        assert agg.group_count() == 0

    def test_count_and_avg(self):
        agg, _ = self._make(
            [[Delta(("a", 2.0), INSERT, 1), Delta(("a", 4.0), INSERT, 1)]],
            ["g"], [agg_count("n"), agg_avg(col("v"), "m")],
        )
        out = agg.advance()
        assert net(out) == {(("a", 2, 3.0), 1): 1}

    def test_global_aggregate_empty_group_key(self):
        agg, _ = self._make(
            [[Delta(("a", 2.0), INSERT, 1), Delta(("b", 4.0), INSERT, 1)]],
            [], [agg_sum(col("v"), "s")],
        )
        out = agg.advance()
        assert net(out) == {((6.0,), 1): 1}

    def test_per_query_state_with_marked_inputs(self):
        # q0 sees both rows, q1 only the second: different sums per query
        agg, _ = self._make(
            [[Delta(("a", 2.0), INSERT, 0b01), Delta(("a", 4.0), INSERT, 0b11)]],
            ["g"], [agg_sum(col("v"), "s")], mask=0b11,
        )
        out = agg.advance()
        assert net(out) == {(("a", 6.0), 0b01): 1, (("a", 4.0), 0b10): 1}

    def test_identical_per_query_rows_coalesce(self):
        agg, _ = self._make(
            [[Delta(("a", 2.0), INSERT, 0b11)]],
            ["g"], [agg_sum(col("v"), "s")], mask=0b11,
        )
        out = agg.advance()
        assert len(out) == 1
        assert out[0].bits == 0b11

    def test_min_max_track_extrema(self):
        agg, _ = self._make(
            [[Delta(("a", 2.0), INSERT, 1), Delta(("a", 9.0), INSERT, 1)]],
            ["g"], [agg_min(col("v"), "lo"), agg_max(col("v"), "hi")],
        )
        out = agg.advance()
        assert net(out) == {(("a", 2.0, 9.0), 1): 1}

    def test_max_delete_triggers_rescan_charge(self):
        agg, meter = self._make(
            [
                [Delta(("a", float(v)), INSERT, 1) for v in range(1, 6)],
                [Delta(("a", 5.0), DELETE, 1)],
            ],
            ["g"], [agg_max(col("v"), "hi")],
        )
        agg.advance()
        assert meter.rescan_units == 0
        out = agg.advance()
        assert meter.rescan_units == 4  # rescans the four remaining values
        assert net(out) == {(("a", 5.0), 1): -1, (("a", 4.0), 1): 1}

    def test_non_extremum_delete_does_not_rescan(self):
        agg, meter = self._make(
            [
                [Delta(("a", float(v)), INSERT, 1) for v in range(1, 6)],
                [Delta(("a", 2.0), DELETE, 1)],
            ],
            ["g"], [agg_max(col("v"), "hi")],
        )
        agg.advance()
        agg.advance()
        assert meter.rescan_units == 0

    def test_state_counter_tracks_group_query_pairs(self):
        agg, meter = self._make(
            [[Delta(("a", 1.0), INSERT, 0b11), Delta(("b", 1.0), INSERT, 0b01)]],
            ["g"], [agg_sum(col("v"), "s")], mask=0b11,
        )
        agg.advance()
        assert agg.state_count == 3  # (a,q0), (a,q1), (b,q0)
        assert meter.state_entries == 3


class TestMinMaxState:
    def test_insert_tracks_extremum(self):
        state = _MinMaxState(is_max=True)
        meter = WorkMeter()
        for value in (3, 7, 5):
            state.update(value, INSERT, meter, "m")
        assert state.current() == 7

    def test_min_variant(self):
        state = _MinMaxState(is_max=False)
        meter = WorkMeter()
        for value in (3, 7, 5):
            state.update(value, INSERT, meter, "m")
        assert state.current() == 3

    def test_delete_all_returns_none(self):
        state = _MinMaxState(is_max=True)
        meter = WorkMeter()
        state.update(4, INSERT, meter, "m")
        state.update(4, DELETE, meter, "m")
        assert state.current() is None

    def test_duplicate_values_survive_single_delete(self):
        state = _MinMaxState(is_max=True)
        meter = WorkMeter()
        state.update(4, INSERT, meter, "m")
        state.update(4, INSERT, meter, "m")
        state.update(4, DELETE, meter, "m")
        assert state.current() == 4

    def test_delete_of_absent_value_raises(self):
        # regression: this used to drive the multiset count negative and
        # silently pop the entry, corrupting every later rescan
        state = _MinMaxState(is_max=True)
        meter = WorkMeter()
        state.update(4, INSERT, meter, "m")
        with pytest.raises(ExecutionError, match="not present"):
            state.update(7, DELETE, meter, "m")
        assert state.values == {4: 1}
        assert state.current() == 4

    def test_double_delete_raises_instead_of_going_negative(self):
        state = _MinMaxState(is_max=True)
        meter = WorkMeter()
        state.update(4, INSERT, meter, "m")
        state.update(4, DELETE, meter, "m")
        with pytest.raises(ExecutionError, match="not present"):
            state.update(4, DELETE, meter, "m")

    def test_rescan_charge_equals_multiset_size_after_extremum_delete(self):
        state = _MinMaxState(is_max=True)
        meter = WorkMeter()
        for value in (1, 2, 3, 4, 5):
            state.update(value, INSERT, meter, "m")
        state.update(5, DELETE, meter, "m")
        assert meter.rescan_units == 4
        assert state.current() == 4
        state.update(4, DELETE, meter, "m")
        assert meter.rescan_units == 4 + 3
        assert state.current() == 3

    def test_duplicate_extremum_only_rescans_on_last_copy(self):
        state = _MinMaxState(is_max=True)
        meter = WorkMeter()
        for value in (5, 5, 3):
            state.update(value, INSERT, meter, "m")
        state.update(5, DELETE, meter, "m")
        assert meter.rescan_units == 0  # a copy of the extremum remains
        assert state.current() == 5
        state.update(5, DELETE, meter, "m")
        assert meter.rescan_units == 1  # rescans the surviving {3}
        assert state.current() == 3

    def test_min_variant_rescan_charge(self):
        state = _MinMaxState(is_max=False)
        meter = WorkMeter()
        for value in (2, 2, 7, 9):
            state.update(value, INSERT, meter, "m")
        state.update(2, DELETE, meter, "m")
        assert meter.rescan_units == 0
        state.update(2, DELETE, meter, "m")
        assert meter.rescan_units == 2
        assert state.current() == 7
