"""Divide-by-zero and degenerate-denominator guards (cost layer audit).

The incrementability ratio and the analytic cost simulation both divide
by quantities that can legitimately reach zero (zero extra-work neighbour
configurations, empty subplans, zero-pace requests).  These tests pin the
explicit guarded behaviour so the guards cannot silently regress into
exceptions or infinities.
"""

import pytest

from repro.core.incrementability import (
    INFINITE,
    benefit,
    bounded_final_work,
    incrementability,
)
from repro.cost.model import (
    CostConfig,
    _window_bounds,
    emissions,
    expected_touched,
    simulate_subplan,
)
from repro.engine.stream import StreamConfig

from .util import calibrated_shared_plan, make_toy_catalog, toy_query_total


class _Eval:
    """A minimal stand-in for RunResult / CostEvaluation."""

    def __init__(self, total_work, query_final_work):
        self.total_work = total_work
        self.query_final_work = dict(query_final_work)


class TestIncrementabilityGuards:
    def test_zero_extra_work_with_gain_is_infinite(self):
        lazy = _Eval(100.0, {0: 50.0})
        eager = _Eval(100.0, {0: 10.0})
        assert incrementability(eager, lazy, {0: 5.0}) == INFINITE

    def test_zero_extra_work_without_gain_is_zero(self):
        lazy = _Eval(100.0, {0: 10.0})
        eager = _Eval(100.0, {0: 10.0})
        assert incrementability(eager, lazy, {0: 5.0}) == 0.0

    def test_negative_extra_work_is_free_improvement(self):
        lazy = _Eval(100.0, {0: 50.0})
        eager = _Eval(90.0, {0: 10.0})
        assert incrementability(eager, lazy, {0: 5.0}) == INFINITE

    def test_float_noise_extra_work_treated_as_zero(self):
        # a denominator of float rounding residue must not mint an
        # astronomically large finite score
        lazy = _Eval(100.0, {0: 10.0})
        eager = _Eval(100.0 + 1e-13, {0: 10.0})
        assert incrementability(eager, lazy, {0: 5.0}) == 0.0

    def test_empty_constraints_score_zero(self):
        lazy = _Eval(100.0, {})
        eager = _Eval(100.0, {})
        assert benefit(eager, lazy, {}) == 0.0
        assert incrementability(eager, lazy, {}) == 0.0

    def test_missing_query_defaults_to_zero_final_work(self):
        lazy = _Eval(100.0, {})
        eager = _Eval(120.0, {})
        assert incrementability(eager, lazy, {3: 5.0}) == 0.0

    def test_bounded_final_work_clamps_from_below(self):
        assert bounded_final_work(2.0, 5.0) == 5.0
        assert bounded_final_work(9.0, 5.0) == 9.0
        assert bounded_final_work(0.0, 0.0) == 0.0


class TestCostModelGuards:
    def test_expected_touched_degenerate_inputs(self):
        assert expected_touched(0, 10) == 0.0
        assert expected_touched(-3.0, 10) == 0.0
        assert expected_touched(50.0, 0) == 0.0
        assert expected_touched(50.0, -2) == 0.0
        assert expected_touched(1.0, 7) == 1.0
        assert expected_touched(0.5, 7) == 1.0  # sub-unit universe clamps

    def test_emissions_degenerate_inputs(self):
        assert emissions(10.0, 5.0, 0) == (0.0, 0.0)
        assert emissions(10.0, 5.0, -1) == (0.0, 0.0)
        assert emissions(0.0, 0.0, 5) == (0.0, 0.0)

    def test_window_bounds_rejects_zero_pace(self):
        with pytest.raises(ValueError, match="pace"):
            _window_bounds(1, 0, 10)
        with pytest.raises(ValueError, match="pace"):
            _window_bounds(1, -2, 10)

    def test_window_bounds_rejects_zero_granularity(self):
        with pytest.raises(ValueError, match="granularity"):
            _window_bounds(1, 2, 0)

    def test_window_bounds_valid(self):
        assert _window_bounds(1, 2, 4) == (0.0, 0.5)
        assert _window_bounds(2, 2, 4) == (0.5, 1.0)

    def test_simulate_subplan_rejects_zero_pace(self):
        catalog = make_toy_catalog()
        plan = calibrated_shared_plan(
            catalog, [toy_query_total(catalog, 0)], StreamConfig()
        )
        subplan = plan.subplans[0]
        # the guard fires before input profiles are consulted
        with pytest.raises(ValueError, match="pace"):
            simulate_subplan(subplan, 0, {}, CostConfig())
        with pytest.raises(ValueError, match="pace"):
            simulate_subplan(subplan, -1, {}, CostConfig())
