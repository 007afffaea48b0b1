"""Tests for the online algorithms (AVR, OA, BKP) against the YDS optimum."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import SolveRequest, solve, verify
from repro.core import CUBE, Instance, PolynomialPower
from repro.exceptions import InvalidInstanceError
from oracles.bkp import bkp_speed_at
from repro.online import (
    avr_schedule,
    avr_speed_profile,
    bkp_schedule,
    execute_profile_edf,
    oa_schedule_incremental,
    yds_schedule,
)
from repro.workloads import deadline_instance


class TestAVR:
    def test_profile_is_sum_of_active_rates(self):
        inst = Instance.from_arrays([0.0, 1.0], [2.0, 2.0], deadlines=[4.0, 3.0])
        profile = avr_speed_profile(inst)
        # between t=1 and t=3 both jobs are active: rate 0.5 + 1.0
        middle = [seg for seg in profile if seg[0] == 1.0][0]
        assert middle[2] == pytest.approx(1.5)

    def test_meets_deadlines(self, cube):
        for seed in range(8):
            inst = deadline_instance(6, seed=seed, laxity=2.0)
            schedule = avr_schedule(inst, cube)
            schedule.validate(require_deadlines=True)

    def test_energy_at_least_optimal_and_within_bound(self, cube):
        alpha = cube.alpha
        bound = 2 ** (alpha - 1) * alpha**alpha
        for seed in range(6):
            inst = deadline_instance(5, seed=seed, laxity=3.0)
            avr_energy = avr_schedule(inst, cube).energy
            opt_energy = yds_schedule(inst, cube).energy
            assert avr_energy >= opt_energy * (1 - 1e-9)
            assert avr_energy <= bound * opt_energy * (1 + 1e-9)

    def test_requires_deadlines(self, cube):
        inst = Instance.from_arrays([0.0], [1.0])
        with pytest.raises(InvalidInstanceError):
            avr_speed_profile(inst)


class TestOA:
    def test_meets_deadlines(self, cube):
        for seed in range(8):
            inst = deadline_instance(6, seed=seed, laxity=2.0)
            schedule = oa_schedule_incremental(inst, cube)
            schedule.validate(require_deadlines=True)

    def test_energy_at_least_optimal_and_within_bound(self, cube):
        alpha = cube.alpha
        bound = alpha**alpha
        for seed in range(6):
            inst = deadline_instance(5, seed=seed, laxity=3.0)
            oa_energy = oa_schedule_incremental(inst, cube).energy
            opt_energy = yds_schedule(inst, cube).energy
            assert oa_energy >= opt_energy * (1 - 1e-9)
            assert oa_energy <= bound * opt_energy * (1 + 1e-9)

    def test_single_release_matches_yds(self, cube):
        # with all jobs released together OA's first plan is final, so OA = YDS
        inst = Instance.from_arrays([0.0, 0.0, 0.0], [1.0, 2.0, 1.0], deadlines=[2.0, 5.0, 9.0])
        assert oa_schedule_incremental(inst, cube).energy == pytest.approx(
            yds_schedule(inst, cube).energy, rel=1e-9
        )

    def test_alpha_2(self):
        power = PolynomialPower(2.0)
        inst = deadline_instance(5, seed=11, laxity=2.5)
        oa_energy = oa_schedule_incremental(inst, power).energy
        opt = yds_schedule(inst, power).energy
        assert opt <= oa_energy <= 4.0 * opt * (1 + 1e-9)

    @pytest.mark.parametrize("offset, rtol", [(1e4, 1e-9), (1e6, 1e-6), (1.7e9, 1e-5)])
    def test_solves_and_verifies_at_large_absolute_times(self, offset, rtol):
        # far from t = 0 a finished job's executed work misses its work by
        # more than 1e-12, so OA must count it done by plan
        for seed in range(10):
            inst = deadline_instance(16, seed=seed)
            request = SolveRequest(instance=inst.shifted(offset), power=CUBE, solver="oa")
            result = solve(request)
            assert result.ok, result.error_message
            assert verify(request, result).ok
            unshifted = oa_schedule_incremental(inst, CUBE).energy
            assert result.energy == pytest.approx(unshifted, rel=rtol)


class TestBKP:
    def test_speed_lower_bounds_essential_intensity(self):
        # single job: at its release the BKP speed is at least e * w / (d - r) / e = w/(d-r)
        inst = Instance.from_arrays([0.0], [2.0], deadlines=[2.0])
        speed = bkp_speed_at(inst, 0.0)
        assert speed >= 1.0 - 1e-12
        assert speed == pytest.approx(math.e * 2.0 / 2.0, rel=1e-12)

    def test_completes_all_work(self, cube):
        for seed in range(4):
            inst = deadline_instance(4, seed=seed, laxity=2.5)
            schedule = bkp_schedule(inst, cube, steps_per_interval=48)
            schedule.validate()  # work conservation + release times

    def test_energy_at_least_optimal(self, cube):
        inst = deadline_instance(5, seed=2, laxity=2.5)
        bkp_energy = bkp_schedule(inst, cube, steps_per_interval=32).energy
        opt_energy = yds_schedule(inst, cube).energy
        assert bkp_energy >= opt_energy * (1 - 1e-6)

    def test_requires_deadlines(self, cube):
        inst = Instance.from_arrays([0.0], [1.0])
        with pytest.raises(InvalidInstanceError):
            bkp_schedule(inst, cube)


class TestProfileExecutor:
    def test_insufficient_profile_raises(self, cube):
        inst = Instance.from_arrays([0.0], [5.0], deadlines=[10.0])
        with pytest.raises(Exception):
            execute_profile_edf(inst, cube, [(0.0, 1.0, 0.1)])

    def test_overlapping_segments_rejected(self, cube):
        inst = Instance.from_arrays([0.0], [1.0], deadlines=[10.0])
        with pytest.raises(InvalidInstanceError):
            execute_profile_edf(inst, cube, [(0.0, 2.0, 1.0), (1.0, 3.0, 1.0)])

    def test_rows_that_are_not_triples_rejected(self, cube):
        inst = Instance.from_arrays([0.0], [1.0], deadlines=[10.0])
        with pytest.raises(InvalidInstanceError, match="rows"):
            execute_profile_edf(inst, cube, [(0.0, 2.0), (2.0, 3.0)])
        with pytest.raises(InvalidInstanceError, match="rows"):
            execute_profile_edf(inst, cube, np.ones((2, 4)))

    def test_executes_simple_profile(self, cube):
        inst = Instance.from_arrays([0.0, 1.0], [1.0, 1.0], deadlines=[5.0, 4.0])
        schedule = execute_profile_edf(inst, cube, [(0.0, 10.0, 1.0)])
        schedule.validate(require_deadlines=True)
        assert schedule.makespan == pytest.approx(2.0)
