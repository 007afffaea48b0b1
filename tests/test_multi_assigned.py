"""Tests for the fixed-assignment multiprocessor solvers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CUBE, Instance
from repro.exceptions import BudgetError, InvalidInstanceError
from repro.flow import convex_flow_laptop
from repro.makespan import incmerge
from repro.multi import (
    cyclic_assignment,
    energy_for_assignment_makespan,
    flow_for_assignment,
    makespan_for_assignment,
)
from repro.workloads import equal_work_instance


@pytest.fixture
def inst() -> Instance:
    return Instance.equal_work([0.0, 0.3, 1.0, 2.0, 2.5, 4.0], work=1.0)


class TestMakespanForAssignment:
    def test_single_processor_reduces_to_incmerge(self, inst, cube):
        assignment = {0: list(range(inst.n_jobs))}
        result = makespan_for_assignment(inst, cube, assignment, 10.0)
        assert result.makespan == pytest.approx(incmerge(inst, cube, 10.0).makespan, rel=1e-8)

    def test_processors_finish_simultaneously(self, inst, cube):
        result = makespan_for_assignment(inst, cube, cyclic_assignment(inst.n_jobs, 2), 10.0)
        sched = result.schedule(inst, cube)
        finishes = sched.processor_completion_times()
        assert finishes[0] == pytest.approx(finishes[1], rel=1e-7)

    def test_energy_equals_budget(self, inst, cube):
        result = makespan_for_assignment(inst, cube, cyclic_assignment(inst.n_jobs, 3), 12.0)
        assert result.energy == pytest.approx(12.0, rel=1e-7)
        sched = result.schedule(inst, cube)
        sched.validate(energy_budget=12.0 * (1 + 1e-6))

    def test_more_energy_never_hurts(self, inst, cube):
        assignment = cyclic_assignment(inst.n_jobs, 2)
        budgets = np.linspace(2.0, 30.0, 10)
        makespans = [
            makespan_for_assignment(inst, cube, assignment, float(e)).makespan for e in budgets
        ]
        assert all(b <= a + 1e-9 for a, b in zip(makespans, makespans[1:]))

    def test_more_processors_never_hurt(self, inst, cube):
        makespans = [
            makespan_for_assignment(inst, cube, cyclic_assignment(inst.n_jobs, m), 8.0).makespan
            for m in [1, 2, 3]
        ]
        assert makespans[1] <= makespans[0] + 1e-9
        assert makespans[2] <= makespans[1] + 1e-9

    def test_energy_for_assignment_roundtrip(self, inst, cube):
        assignment = cyclic_assignment(inst.n_jobs, 2)
        result = makespan_for_assignment(inst, cube, assignment, 9.0)
        energy = energy_for_assignment_makespan(inst, cube, assignment, result.makespan)
        assert energy == pytest.approx(9.0, rel=1e-7)

    def test_invalid_budget(self, inst, cube):
        with pytest.raises(BudgetError):
            makespan_for_assignment(inst, cube, cyclic_assignment(inst.n_jobs, 2), 0.0)

    def test_bad_assignment_rejected(self, inst, cube):
        with pytest.raises(InvalidInstanceError):
            makespan_for_assignment(inst, cube, {0: [0, 1]}, 5.0)

    @pytest.mark.parametrize("shift", [0.0, 1e4, 1e6])
    def test_budget_met_whatever_the_time_shift(self, shift, cube):
        # the root-find runs on the window after the last release, so the
        # energy does not lose digits to the absolute times
        for seed in range(10):
            inst = equal_work_instance(10, seed=seed)
            assignment = cyclic_assignment(inst.n_jobs, 3)
            base = makespan_for_assignment(inst, cube, assignment, 20.0)
            moved = makespan_for_assignment(inst.shifted(shift), cube, assignment, 20.0)
            assert abs(moved.energy - 20.0) <= 20.0 * 1e-12
            assert moved.makespan - shift == pytest.approx(base.makespan, rel=1e-9)


class TestFlowForAssignment:
    def test_single_processor_matches_uniprocessor_convex(self, inst, cube):
        assignment = {0: list(range(inst.n_jobs))}
        result = flow_for_assignment(inst, cube, assignment, 8.0)
        reference = convex_flow_laptop(inst, cube, 8.0)
        assert result.flow == pytest.approx(reference.flow, rel=1e-5)

    def test_energy_budget_respected(self, inst, cube):
        result = flow_for_assignment(inst, cube, cyclic_assignment(inst.n_jobs, 2), 8.0)
        assert result.energy <= 8.0 * (1 + 1e-6)
        sched = result.schedule(inst, cube)
        sched.validate(energy_budget=8.0 * (1 + 1e-5))
        assert sched.total_flow == pytest.approx(result.flow, rel=1e-6)

    def test_more_processors_never_hurt(self, inst, cube):
        flows = [
            flow_for_assignment(inst, cube, cyclic_assignment(inst.n_jobs, m), 6.0).flow
            for m in [1, 2, 3]
        ]
        assert flows[1] <= flows[0] + 1e-6
        assert flows[2] <= flows[1] + 1e-6

    def test_flow_decreasing_in_energy(self, inst, cube):
        assignment = cyclic_assignment(inst.n_jobs, 2)
        flows = [
            flow_for_assignment(inst, cube, assignment, float(e)).flow
            for e in [2.0, 6.0, 15.0]
        ]
        assert flows[0] > flows[1] > flows[2]

    def test_invalid_budget(self, inst, cube):
        with pytest.raises(BudgetError):
            flow_for_assignment(inst, cube, cyclic_assignment(inst.n_jobs, 2), -3.0)
