"""End-to-end integration tests across subpackages."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import detect_breakpoints, finite_difference
from repro.core import CUBE, Instance, profile_from_schedule
from repro.discrete import quantize_schedule, uniform_levels
from repro.flow import equal_work_flow_laptop, solve_optimality_system
from repro.makespan import (
    incmerge,
    makespan_frontier,
    minimum_energy_for_makespan,
    uniform_speed_schedule,
)
from repro.multi import (
    decide_partition_via_scheduling,
    has_perfect_partition_dp,
    multiprocessor_flow_equal_work,
    multiprocessor_makespan_equal_work,
)
from repro.online import avr_schedule, oa_schedule_incremental, yds_schedule
from repro.workloads import (
    FIGURE1_BREAKPOINTS,
    bursty_instance,
    deadline_instance,
    equal_work_instance,
    figure1_instance,
    partition_elements,
    theorem8_instance,
)


class TestFigure1Pipeline:
    """Regenerate the data behind Figures 1-3 and check it against the paper."""

    def test_full_curve_regeneration(self):
        inst = figure1_instance()
        curve = makespan_frontier(inst, CUBE)

        # breakpoints exactly as stated in Section 3.2
        assert curve.breakpoints == pytest.approx(list(FIGURE1_BREAKPOINTS))

        # sample the plotted range and verify shape properties visible in Fig. 1
        grid = np.linspace(6.0, 21.0, 300)
        makespans = curve.sample(grid)
        assert makespans[0] == pytest.approx(9.2376, rel=1e-3)
        assert makespans[-1] == pytest.approx(6.3536, rel=1e-3)
        assert np.all(np.diff(makespans) < 0)

        # Figure 2: derivative is continuous (no visible kink) and negative
        derivative = curve.sample_derivative(grid)
        numeric = finite_difference(grid, makespans)
        assert np.allclose(derivative[2:-2], numeric[2:-2], rtol=5e-2)

        # Figure 3: second derivative positive with jumps at the breakpoints
        second = curve.sample_second_derivative(grid)
        found = detect_breakpoints(grid, second)
        assert any(abs(b - 8.0) < 0.2 for b in found)
        assert any(abs(b - 17.0) < 0.2 for b in found)

    def test_energy_budget_sweep_consistency(self):
        inst = figure1_instance()
        curve = makespan_frontier(inst, CUBE)
        for energy in np.linspace(6.5, 20.5, 8):
            laptop = incmerge(inst, CUBE, float(energy))
            assert laptop.makespan == pytest.approx(curve.value(float(energy)), rel=1e-9)
            server = minimum_energy_for_makespan(inst, CUBE, laptop.makespan)
            assert server == pytest.approx(float(energy), rel=1e-8)


class TestTheorem8Pipeline:
    def test_polynomial_and_solver_agree_inside_window(self):
        # inside the measured tight window the structural system and the
        # convex solver describe the same optimum
        system = solve_optimality_system(11.0)
        solver = equal_work_flow_laptop(theorem8_instance(), CUBE, 11.0)
        assert solver.flow == pytest.approx(system.flow, rel=5e-3)
        assert solver.completion_times[1] == pytest.approx(1.0, abs=5e-3)


class TestPartitionPipeline:
    def test_reduction_decides_partition(self):
        for seed in range(3):
            yes = partition_elements(6, seed=seed, planted_yes=True)
            no = partition_elements(6, seed=seed, planted_yes=False)
            assert decide_partition_via_scheduling(yes) == has_perfect_partition_dp(yes)
            assert decide_partition_via_scheduling(no) == has_perfect_partition_dp(no)


class TestMultiprocessorPipeline:
    def test_equal_work_cluster(self):
        inst = equal_work_instance(10, seed=3, arrival_rate=2.0)
        for m in (2, 4):
            makespan_result = multiprocessor_makespan_equal_work(inst, CUBE, m, 12.0)
            sched = makespan_result.schedule(inst, CUBE)
            sched.validate(energy_budget=12.0 * (1 + 1e-6))
            flow_result = multiprocessor_flow_equal_work(inst, CUBE, m, 12.0)
            fsched = flow_result.schedule(inst, CUBE)
            fsched.validate(energy_budget=12.0 * (1 + 1e-5))
            # flow-optimal schedules never have better makespan objective than
            # the makespan-optimal schedule and vice versa
            assert fsched.total_flow <= sched.total_flow + 1e-6
            assert sched.makespan <= fsched.makespan + 1e-6


class TestUniprocessorStack:
    def test_baseline_vs_optimal_vs_quantized(self):
        inst = bursty_instance(10, seed=4, burst_size=3, gap=4.0)
        energy = 25.0
        optimal = incmerge(inst, CUBE, energy)
        baseline = uniform_speed_schedule(inst, CUBE, energy)
        assert optimal.makespan <= baseline.makespan + 1e-9

        sched = optimal.schedule()
        profile = profile_from_schedule(sched)
        assert profile.total_work == pytest.approx(inst.total_work, rel=1e-9)
        assert profile.energy(CUBE) == pytest.approx(sched.energy, rel=1e-9)

        levels = uniform_levels(10, max_speed=float(np.max(optimal.speeds)) * 1.01)
        quantized = quantize_schedule(sched, levels)
        quantized.schedule.validate()
        assert quantized.energy_overhead >= -1e-9


class TestOnlinePipeline:
    def test_online_algorithms_feasible_and_ordered(self):
        inst = deadline_instance(7, seed=9, laxity=2.5)
        opt = yds_schedule(inst, CUBE)
        avr = avr_schedule(inst, CUBE)
        oa = oa_schedule_incremental(inst, CUBE)
        for schedule in (opt, avr, oa):
            schedule.validate(require_deadlines=True)
        assert opt.energy <= oa.energy * (1 + 1e-9)
        assert opt.energy <= avr.energy * (1 + 1e-9)
