"""Tests for the Yao-Demers-Shenker substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CUBE, Instance
from repro.exceptions import InvalidInstanceError
from repro.makespan import minimum_energy_for_makespan
from repro.online import edf_schedule_at_speeds, yds_schedule, yds_speeds
from repro.workloads import deadline_instance


def _assert_tiny_work_gets_its_piece(solver: str) -> None:
    from repro.api import SolveRequest, solve, verify

    inst = Instance.from_arrays([0.0, 5.0], [1.0, 1e-13], deadlines=[1.0, 6.0])
    request = SolveRequest(instance=inst, power=CUBE, solver=solver)
    result = solve(request)
    assert result.ok, result.error_message
    assert result.speeds.tolist() == [1.0, 1e-13]
    assert verify(request, result).ok


class TestYDSSpeeds:
    def test_single_job(self):
        inst = Instance.from_arrays([0.0], [2.0], deadlines=[4.0])
        result = yds_speeds(inst)
        assert result.speeds[0] == pytest.approx(0.5)
        assert result.critical_intervals[0][:2] == (0.0, 4.0)

    def test_textbook_two_job_example(self):
        # job 0: window [0, 10], work 8; job 1: window [4, 6], work 4
        inst = Instance.from_arrays([0.0, 4.0], [8.0, 4.0], deadlines=[10.0, 6.0])
        result = yds_speeds(inst)
        assert result.speeds[1] == pytest.approx(2.0)  # critical interval [4, 6]
        assert result.speeds[0] == pytest.approx(1.0)  # remaining 8 work over 8 time

    def test_missing_deadlines_rejected(self):
        inst = Instance.from_arrays([0.0], [1.0])
        with pytest.raises(InvalidInstanceError):
            yds_speeds(inst)

    def test_nested_windows(self):
        inst = Instance.from_arrays([0.0, 1.0], [0.3, 3.0], deadlines=[3.0, 2.0])
        result = yds_speeds(inst)
        # the inner job dominates: speed 3 on [1, 2]
        assert result.speeds[1] == pytest.approx(3.0)
        schedule = yds_schedule(inst, CUBE)
        schedule.validate(require_deadlines=True)


class TestYDSSchedule:
    def test_meets_deadlines_on_random_instances(self, cube):
        for seed in range(10):
            inst = deadline_instance(6, seed=seed, laxity=2.5)
            schedule = yds_schedule(inst, cube)
            schedule.validate(require_deadlines=True)

    def test_optimal_for_common_deadline(self, fig1, cube):
        # the makespan server problem is YDS with a common deadline
        for target in [6.5, 7.5, 10.0]:
            schedule = yds_schedule(fig1.with_deadlines(target), cube)
            schedule.validate(require_deadlines=True)
            assert schedule.energy == pytest.approx(
                minimum_energy_for_makespan(fig1, cube, target), rel=1e-9
            )

    def test_energy_below_any_feasible_uniform_speed(self, cube):
        inst = deadline_instance(5, seed=3, laxity=3.0)
        optimal = yds_schedule(inst, cube)
        # a naive feasible alternative: run every job at the speed needed to
        # finish within its own window
        naive_speeds = inst.works / (inst.deadlines - inst.releases)
        # that alternative may be infeasible under EDF contention, so only
        # compare energies when it is feasible
        try:
            naive = edf_schedule_at_speeds(inst, cube, np.maximum(naive_speeds, 1e-9))
            naive.validate(require_deadlines=True)
        except InvalidInstanceError:
            return
        except Exception:
            return
        assert optimal.energy <= naive.energy * (1 + 1e-9)

    def test_tight_common_window_solves_and_verifies(self):
        # at deadlines 1e-6 after the last release the speeds reach ~1.5e6,
        # so a rounding residual of > 1e-12 work needs under 1e-15 time; the
        # executor counts it as done instead of looping until its cap
        from repro.api import SolveRequest, solve, verify

        releases = [0.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0]
        works = [2.6717869904995433, 1.5498000726205894, 2.883528945183492,
                 0.5029326704725922, 2.3711598972191013, 1.471746376400298,
                 1.4741653728100947]
        target = 4.000001
        inst = Instance.from_arrays(releases, works, deadlines=[target] * 7)
        request = SolveRequest(instance=inst, power=CUBE, solver="yds")
        result = solve(request)
        assert result.ok, result.error_message
        assert verify(request, result).ok
        # ulp(T) / (T - r_n) bounds the energy's conditioning here
        assert result.energy == pytest.approx(
            minimum_energy_for_makespan(Instance.from_arrays(releases, works), CUBE, target),
            rel=1e-9,
        )

    def test_tiny_work_gets_its_piece(self):
        # a job of work <= 1e-12 starts at that residual; the executor must
        # run it before counting it as done, or its speed reads nan
        _assert_tiny_work_gets_its_piece("yds")

    @pytest.mark.parametrize("solver", ["yds-anytime", "avr", "oa"])
    def test_tiny_work_gets_its_piece_under(self, solver):
        # the profile executor (yds-anytime, avr) and OA's residual lists
        # must not drop such a job before it has run
        _assert_tiny_work_gets_its_piece(solver)

    def test_intensity_is_max_over_intervals(self):
        inst = Instance.from_arrays([0.0, 4.0], [8.0, 4.0], deadlines=[10.0, 6.0])
        result = yds_speeds(inst)
        t1, t2, intensity = result.critical_intervals[0]
        assert intensity == pytest.approx(2.0)
        assert (t1, t2) == (4.0, 6.0)


class TestEDFAtSpeeds:
    def test_wrong_speed_vector(self):
        inst = Instance.from_arrays([0.0], [1.0], deadlines=[2.0])
        with pytest.raises(InvalidInstanceError):
            edf_schedule_at_speeds(inst, CUBE, np.array([1.0, 1.0]))
        with pytest.raises(InvalidInstanceError):
            edf_schedule_at_speeds(inst, CUBE, np.array([-1.0]))

    def test_work_conservation(self, cube):
        inst = deadline_instance(5, seed=7, laxity=4.0)
        result = yds_speeds(inst)
        schedule = edf_schedule_at_speeds(inst, cube, result.speeds)
        schedule.validate()
        assert schedule.energy > 0
