"""Tests for the makespan server problem (minimum energy for a deadline).

The time-reversed hull (:mod:`repro.makespan.server`) is pinned to two
oracles that share no code with it: the frontier inversion
(``tests/oracles/frontier.py``) and general YDS with every deadline at the
target (:func:`repro.makespan.server_energy_via_yds`).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles.frontier import frontier_server_energy

from _strategies import hypothesis_settings
from repro.api import SolveRequest, solve, verify
from repro.core import (
    CUBE,
    AffinePolynomialPower,
    Instance,
    PolynomialPower,
    TabulatedConvexPower,
)
from repro.core.schedule import Schedule
from repro.exceptions import InfeasibleError
from repro.makespan import (
    incmerge,
    minimum_energy_for_makespan,
    schedule_for_makespan,
    server_energy_via_yds,
    server_speeds,
)
from repro.workloads import poisson_instance

POWERS = (
    PolynomialPower(2.0),
    PolynomialPower(2.5),
    CUBE,
    TabulatedConvexPower(lambda s: s**3 + 0.5 * s * s, name="cube-plus-square"),
)


class TestServerProblem:
    def test_fig1_known_values(self, fig1, cube):
        # at T = 6.5 the optimum is the 3-block schedule with speeds 1, 2, 2
        assert minimum_energy_for_makespan(fig1, cube, 6.5) == pytest.approx(17.0)
        # at T = 8 the optimum is the single block at speed 1 -> energy 8
        assert minimum_energy_for_makespan(fig1, cube, 8.0) == pytest.approx(8.0)

    def test_roundtrip_with_laptop_problem(self, fig1, cube):
        for target in [6.4, 7.3, 9.0, 20.0]:
            energy = minimum_energy_for_makespan(fig1, cube, target)
            achieved = incmerge(fig1, cube, energy).makespan
            assert achieved == pytest.approx(target, rel=1e-9)

    def test_roundtrip_from_energy_side(self, fig1, cube):
        for energy in [5.0, 9.0, 14.0, 22.0]:
            makespan = incmerge(fig1, cube, energy).makespan
            recovered = minimum_energy_for_makespan(fig1, cube, makespan)
            assert recovered == pytest.approx(energy, rel=1e-8)

    def test_infeasible_targets(self, fig1, cube):
        with pytest.raises(InfeasibleError):
            minimum_energy_for_makespan(fig1, cube, 6.0)  # equal to the last release
        with pytest.raises(InfeasibleError):
            minimum_energy_for_makespan(fig1, cube, 3.0)
        with pytest.raises(InfeasibleError):
            minimum_energy_for_makespan(fig1, cube, float("inf"))

    def test_monotone_in_target(self, cube):
        inst = Instance.from_arrays([0, 1, 4, 4.2], [1, 2, 1, 1])
        targets = np.linspace(4.5, 20.0, 25)
        energies = [minimum_energy_for_makespan(inst, cube, float(t)) for t in targets]
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    def test_schedule_for_makespan(self, fig1, cube):
        sched = schedule_for_makespan(fig1, cube, 7.0)
        assert sched.makespan == pytest.approx(7.0, rel=1e-9)
        sched.validate()

    def test_random_roundtrips(self, cube):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            releases = np.sort(rng.uniform(0, 6, n))
            releases[0] = 0.0
            works = rng.uniform(0.3, 2.0, n)
            inst = Instance.from_arrays(releases, works)
            energy = float(rng.uniform(0.5, 30.0))
            makespan = incmerge(inst, cube, energy).makespan
            assert minimum_energy_for_makespan(inst, cube, makespan) == pytest.approx(
                energy, rel=1e-7
            )


def _instance(n, releases, works, tied):
    rel = sorted(math.floor(r) if tied else r for r in releases[:n])
    rel[0] = 0.0
    return Instance.from_arrays(rel, works[:n])


class TestHullAgainstOracles:
    @hypothesis_settings(max_examples=60)
    @given(
        n=st.integers(1, 64),
        releases=st.lists(st.floats(0.0, 10.0), min_size=64, max_size=64),
        works=st.lists(st.floats(0.1, 3.0), min_size=64, max_size=64),
        tied=st.booleans(),
        power=st.sampled_from(POWERS),
        reach=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    def test_energy_matches_both_oracles_and_the_answer_verifies(
        self, n, releases, works, tied, power, reach
    ):
        inst = _instance(n, releases, works, tied)
        last = inst.last_release
        # T from r_n + 1e-6 up to ten times the unit-speed-energy laptop
        # makespan, log-spaced in the window T - r_n
        top = 10.0 * incmerge(inst, power, power.energy(inst.total_work, 1.0)).makespan
        target = last + 1e-6 ** (1.0 - reach) * (top - last) ** reach
        hull = minimum_energy_for_makespan(inst, power, target)
        # the energy's own conditioning: an ulp of T against the last window
        rel = max(1e-9, 1e-12 * target / (target - last))
        assert hull == pytest.approx(frontier_server_energy(inst, power, target), rel=rel)
        assert hull == pytest.approx(server_energy_via_yds(inst, power, target), rel=rel)

        request = SolveRequest(instance=inst, power=power, solver="server", budget=target)
        result = solve(request)
        assert result.ok, result.error_message
        assert result.value == result.energy == hull
        makespan = Schedule.from_speeds(inst, power, result.speeds).makespan
        assert makespan <= target * (1.0 + 1e-12)
        report = verify(request, result)
        assert report.ok, list(report.codes())

    def test_leaky_power_answers_when_hull_speeds_clear_the_critical_speed(self):
        # the frontier cascade evaluated speeds below the critical speed and
        # answered invalid-budget; the hull evaluates only the optimum's speeds
        power = AffinePolynomialPower(exponent=2.5, coefficient=1.5, static=0.2)
        inst = poisson_instance(8, seed=0)
        target = inst.last_release + 0.5 * inst.total_work
        assert np.all(server_speeds(inst, target) >= power.critical_speed)
        request = SolveRequest(instance=inst, power=power, solver="server", budget=target)
        result = solve(request)
        assert result.ok, result.error_message
        report = verify(request, result)
        assert report.ok, list(report.codes())
