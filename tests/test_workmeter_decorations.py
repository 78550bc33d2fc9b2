"""Direct tests for work accounting and decoration statistics."""

from fractions import Fraction

import pytest

from repro.mqo.nodes import OpNode, TableRef
from repro.physical.operators import Decorations
from repro.physical.work import WorkMeter
from repro.relational.expressions import col
from repro.relational.schema import Schema
from repro.relational.tuples import Delta, INSERT


class TestWorkMeter:
    def test_categories_accumulate_into_total(self):
        meter = WorkMeter(Fraction(1, 2))
        meter.charge_input("a", 10)
        meter.charge_output("a", 5)
        meter.charge_rescan("b", 3)
        meter.charge_state(5)
        assert meter.tuple_units + meter.state_units == 20.5
        assert meter.input_units == 10
        assert meter.output_units == 5
        assert meter.rescan_units == 3
        assert meter.tuple_units == 18
        assert meter.state_entries == 5
        assert meter.state_units == 2.5

    def test_per_operator_attribution(self):
        meter = WorkMeter()
        meter.charge_input("scan", 7)
        meter.charge_output("scan", 2)
        meter.charge_input("agg", 1)
        assert meter.per_operator == {"scan": 9, "agg": 1}

    def test_snapshot_is_a_copy(self):
        meter = WorkMeter()
        meter.charge_input("x", 1)
        snapshot = meter.snapshot()
        meter.charge_input("x", 1)
        assert snapshot == {"x": 1}


class TestDecorationStats:
    def _node(self, filters=None, projections=None, mask=0b11):
        schema = Schema.of("a", "b")
        return OpNode(
            "source",
            ref=TableRef("t", schema),
            filters=filters,
            projections=projections,
            query_mask=mask,
        )

    def test_stats_mode_counts_per_query_in_out(self):
        node = self._node(filters={0: col("a") > 5, 1: col("a") > 50})
        decorations = Decorations(node, stats_mode=True)
        meter = WorkMeter()
        deltas = [
            Delta((10, 0), INSERT, 0b11),
            Delta((60, 0), INSERT, 0b11),
            Delta((1, 0), INSERT, 0b11),
        ]
        out = decorations.apply(deltas, meter)
        assert decorations.filter_in_per_q == {0: 3, 1: 3}
        # q0 keeps rows with a>5 (two), q1 only a>50 (one)
        assert decorations.filter_out_per_q == {0: 2, 1: 1}
        assert len(out) == 2  # the a=1 row satisfied nobody

    def test_no_filters_means_no_filter_charge(self):
        node = self._node()
        decorations = Decorations(node, stats_mode=True)
        meter = WorkMeter()
        out = decorations.apply([Delta((1, 2), INSERT, 0b01)], meter)
        assert meter.tuple_units == 0
        assert len(out) == 1

    def test_projection_charges_and_rewrites(self):
        node = self._node(projections={0: (("s", col("a") + col("b")),)},
                          mask=0b01)
        decorations = Decorations(node, stats_mode=False)
        meter = WorkMeter()
        out = decorations.apply([Delta((2, 3), INSERT, 0b01)], meter)
        assert out[0].row == (5,)
        assert meter.tuple_units == 1  # one projection charge

    def test_filter_then_project_pipeline(self):
        node = self._node(
            filters={0: col("a") > 1},
            projections={0: (("a2", col("a") * 2),)},
            mask=0b01,
        )
        decorations = Decorations(node, stats_mode=False)
        meter = WorkMeter()
        out = decorations.apply(
            [Delta((2, 0), INSERT, 0b01), Delta((0, 0), INSERT, 0b01)], meter
        )
        assert [d.row for d in out] == [(4,)]
        # 2 filter charges + 1 projection charge (after the drop)
        assert meter.tuple_units == 3
