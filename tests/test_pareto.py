"""Tests for the trade-off curve's queries on real makespan frontiers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from oracles.frontier import energy_for_value

from repro.core import CUBE, Instance
from repro.exceptions import BudgetError, InfeasibleError
from repro.makespan import TradeoffCurve, makespan_frontier
from repro.workloads import figure1_instance


def make_curve() -> TradeoffCurve:
    """The paper's Figure 1 frontier: three configurations, breakpoints 8 and 17."""
    return makespan_frontier(figure1_instance(), CUBE)


class TestCurveSegment:
    """The curve's records, one per block configuration."""

    def test_empty_range_rejected(self):
        # tied releases give predecessors of infinite speed: the cascade
        # merges them at once and emits no configuration of empty range
        curve = makespan_frontier(Instance.from_arrays([0, 0, 2, 2], [1, 1, 2, 1]), CUBE)
        assert len(curve.segments) == 2
        assert all(seg.energy_lo < seg.energy_hi for seg in curve.segments)


class TestTradeoffCurve:
    def test_basic_queries(self):
        curve = make_curve()
        assert curve.breakpoints == [8.0, 17.0]
        # Figure 1's ends: the single block at E = 6, the last job alone at E = 21
        assert curve.value(6.0) == pytest.approx(8.0 / math.sqrt(6.0 / 8.0), rel=1e-15)
        assert curve.value(21.0) == pytest.approx(6.0 + 1.0 / math.sqrt(8.0), rel=1e-15)
        first, middle, last = curve.segments
        assert (first.first, first.last, first.fixed_energy) == (0, 2, 0.0)
        assert (middle.first, middle.last, middle.start_time) == (1, 2, 5.0)
        assert (last.first, last.last, last.start_time, last.work) == (2, 2, 6.0, 1.0)
        assert last.fixed_energy == pytest.approx(13.0, rel=1e-15)

    def test_segments_must_tile(self):
        for instance in (figure1_instance(), Instance.from_arrays([0, 0, 2, 2], [1, 1, 2, 1])):
            segments = makespan_frontier(instance, CUBE).segments
            assert segments[0].energy_lo == 0.0
            assert math.isinf(segments[-1].energy_hi)
            for below, above in zip(segments, segments[1:]):
                assert below.energy_hi == above.energy_lo

    def test_out_of_range_budget(self):
        curve = make_curve()
        for energy in (0.0, -1e-10, -1.0, math.nan):
            for query in (curve.value, curve.derivative, curve.second_derivative):
                with pytest.raises(BudgetError):
                    query(energy)
        with pytest.raises(BudgetError):
            curve.sample([1.0, 0.0])

    def test_sampling(self):
        curve = make_curve()
        grid = np.array([1.5, 2.5, 8.0, 12.0, 17.0, 30.0])
        values = curve.sample(grid)
        assert values.tolist() == [curve.value(e) for e in grid]
        assert np.all(np.diff(values) < 0)
        assert np.all(curve.sample_derivative(grid) < 0)
        assert np.all(curve.sample_second_derivative(grid) > 0)

    def test_energy_grid(self):
        curve = make_curve()
        grid = curve.energy_grid(10, max_energy=20.0)
        assert grid.shape == (10,)
        assert grid[0] == pytest.approx(20.0 * 1e-6)
        assert grid[-1] == pytest.approx(20.0)
        assert curve.energy_grid(4)[-1] == pytest.approx(3.0 * 17.0)
        with pytest.raises(BudgetError):
            curve.energy_grid(4, max_energy=0.0)

    def test_energy_for_value_inverts(self):
        curve = make_curve()
        # 1e-3 sits where the single-block makespan diverges towards E = 0
        for energy in [1e-3, 1.5, 3.0, 8.0, 12.0, 40.0]:
            value = curve.value(energy)
            recovered = energy_for_value(curve, value)
            assert recovered == pytest.approx(energy, rel=1e-9)

    def test_energy_for_value_infeasible(self):
        # no budget finishes before the last release, at 6
        with pytest.raises(InfeasibleError):
            energy_for_value(make_curve(), 5.0)

    def test_dominates_point(self):
        curve = make_curve()
        assert curve.dominates_point(12.0, 7.0)      # curve achieves ~6.96 at E=12
        assert not curve.dominates_point(12.0, 6.9)  # better than the optimum: not dominated
        assert not curve.dominates_point(0.0, 100.0)  # no schedule runs on no energy

    def test_is_convex(self):
        assert make_curve().is_convex()
