"""Tests for the generic trade-off curve representation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from oracles.frontier import energy_for_value

from repro.core import CurveSegment, TradeoffCurve
from repro.exceptions import BudgetError, InfeasibleError, InvalidInstanceError


def make_curve() -> TradeoffCurve:
    """A simple two-segment curve: value = 10/E for E in [1, 5], 2 + 40/E**2 ... kept monotone."""
    seg1 = CurveSegment(
        energy_lo=1.0,
        energy_hi=5.0,
        value=lambda e: 10.0 / e,
        derivative=lambda e: -10.0 / e**2,
        second_derivative=lambda e: 20.0 / e**3,
        label="cheap",
    )
    seg2 = CurveSegment(
        energy_lo=5.0,
        energy_hi=math.inf,
        value=lambda e: 1.0 + 5.0 / e,
        label="expensive",
    )
    return TradeoffCurve([seg1, seg2], metric_name="demo")


class TestCurveSegment:
    def test_contains(self):
        seg = CurveSegment(1.0, 2.0, value=lambda e: 1.0 / e)
        assert seg.contains(1.5)
        assert not seg.contains(3.0)

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidInstanceError):
            CurveSegment(2.0, 2.0, value=lambda e: e)

    def test_numeric_derivative_fallback(self):
        seg = CurveSegment(1.0, 10.0, value=lambda e: 10.0 / e)
        assert seg.derivative_at(2.0) == pytest.approx(-2.5, rel=1e-4)
        assert seg.second_derivative_at(2.0) == pytest.approx(2.5, rel=1e-2)

    def test_analytic_derivative_used(self):
        seg = CurveSegment(
            1.0, 10.0, value=lambda e: 10.0 / e, derivative=lambda e: -10.0 / e**2
        )
        assert seg.derivative_at(2.0) == pytest.approx(-2.5, rel=1e-12)


class TestTradeoffCurve:
    def test_basic_queries(self):
        curve = make_curve()
        assert curve.min_energy == 1.0
        assert math.isinf(curve.max_energy)
        assert curve.breakpoints == [5.0]
        assert curve.value(2.0) == pytest.approx(5.0)
        assert curve.value(10.0) == pytest.approx(1.5)

    def test_segments_must_tile(self):
        seg1 = CurveSegment(1.0, 2.0, value=lambda e: 1.0 / e)
        seg2 = CurveSegment(3.0, 4.0, value=lambda e: 0.1 / e)
        with pytest.raises(InvalidInstanceError):
            TradeoffCurve([seg1, seg2])

    def test_non_monotone_rejected(self):
        rising = CurveSegment(1.0, 2.0, value=lambda e: e)
        with pytest.raises(InvalidInstanceError):
            TradeoffCurve([rising])

    def test_out_of_range_budget(self):
        curve = make_curve()
        with pytest.raises(BudgetError):
            curve.value(0.5)

    def test_sampling(self):
        curve = make_curve()
        grid = np.array([1.5, 2.5, 6.0])
        values = curve.sample(grid)
        assert values.shape == (3,)
        assert np.all(np.diff(values) < 0)
        d = curve.sample_derivative(np.array([2.0, 3.0]))
        assert np.all(d < 0)
        dd = curve.sample_second_derivative(np.array([2.0, 3.0]))
        assert np.all(dd > 0)

    def test_energy_grid(self):
        curve = make_curve()
        grid = curve.energy_grid(10, max_energy=20.0)
        assert grid.shape == (10,)
        assert grid[0] >= curve.min_energy
        assert grid[-1] == pytest.approx(20.0)

    def test_energy_for_value_inverts(self):
        curve = make_curve()
        for energy in [1.5, 3.0, 8.0]:
            value = curve.value(energy)
            recovered = energy_for_value(curve, value)
            assert recovered == pytest.approx(energy, rel=1e-9)

    def test_energy_for_value_infeasible(self):
        curve = TradeoffCurve(
            [CurveSegment(1.0, 5.0, value=lambda e: 10.0 / e)], metric_name="m"
        )
        with pytest.raises(InfeasibleError):
            energy_for_value(curve, 0.1)

    def test_energy_for_easy_target_returns_min_energy(self):
        curve = make_curve()
        assert energy_for_value(curve, 1000.0) == pytest.approx(curve.min_energy)

    def test_dominates_point(self):
        curve = make_curve()
        assert curve.dominates_point(2.0, 6.0)       # curve achieves 5.0 at E=2
        assert not curve.dominates_point(2.0, 4.0)   # better than the optimum: not dominated
        assert not curve.dominates_point(0.5, 100.0)  # below the curve's energy range

    def test_is_convex(self):
        curve = make_curve()
        assert curve.is_convex()
