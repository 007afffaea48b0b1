"""Tests for the convex-programming makespan reference solver."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.convex_ref import convex_laptop_makespan
from repro.core import CUBE, Instance
from repro.exceptions import BudgetError
from repro.makespan import incmerge


class TestConvexReference:
    def test_fig1_agreement(self, fig1, cube):
        for energy in [3.0, 6.0, 8.0, 12.0, 17.0, 21.0, 40.0]:
            reference = convex_laptop_makespan(fig1, cube, energy)
            assert reference.makespan == pytest.approx(
                incmerge(fig1, cube, energy).makespan, rel=1e-5
            )
            assert reference.energy <= energy * (1 + 1e-6)

    def test_random_agreement(self, cube):
        rng = np.random.default_rng(13)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            releases = np.sort(rng.uniform(0, 8, n))
            releases[0] = 0.0
            works = rng.uniform(0.3, 2.5, n)
            inst = Instance.from_arrays(releases, works)
            energy = float(rng.uniform(1.0, 30.0))
            reference = convex_laptop_makespan(inst, cube, energy)
            assert reference.makespan == pytest.approx(
                incmerge(inst, cube, energy).makespan, rel=1e-4
            )

    def test_schedule_feasible(self, fig1, cube):
        reference = convex_laptop_makespan(fig1, cube, 12.0)
        sched = reference.schedule(fig1, cube)
        sched.validate(energy_budget=12.0 * (1 + 1e-5))

    def test_speeds_and_durations_consistent(self, fig1, cube):
        reference = convex_laptop_makespan(fig1, cube, 17.0)
        assert np.allclose(reference.speeds * reference.durations, fig1.works)

    def test_invalid_budget(self, fig1, cube):
        with pytest.raises(BudgetError):
            convex_laptop_makespan(fig1, cube, 0.0)
