"""Tests for the exact multiprocessor solvers and the assignment enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import SolveRequest, solve, verify
from repro.core import (
    CUBE,
    AffinePolynomialPower,
    Instance,
    PolynomialPower,
    TabulatedConvexPower,
)
from repro.exceptions import BudgetError, InfeasibleError, InvalidInstanceError
from repro.multi import (
    assignment_candidates,
    exact_multiprocessor_makespan,
    exact_zero_release_makespan,
    makespan_for_assignment,
    makespan_for_loads,
    optimal_load_partition,
)


class TestAssignmentCandidates:
    def test_counts_without_label_symmetry(self):
        # Stirling-like counts: 3 jobs on 2 processors -> 4 set partitions into <= 2 parts
        assert len(list(assignment_candidates(3, 2))) == 4
        # 4 jobs on 2 processors -> 8
        assert len(list(assignment_candidates(4, 2))) == 8
        # m >= n: Bell number of n (all set partitions); Bell(3) = 5
        assert len(list(assignment_candidates(3, 3))) == 5

    def test_first_job_pinned_to_processor_zero(self):
        for candidate in assignment_candidates(4, 3):
            assert candidate[0] == 0

    def test_invalid(self):
        with pytest.raises(InvalidInstanceError):
            list(assignment_candidates(0, 2))


class TestMakespanForLoads:
    def test_polynomial_closed_form(self, cube):
        # loads 2 and 2, energy 16: T = (2*2^3 / 16)^(1/2) = 1
        assert makespan_for_loads([2.0, 2.0], cube, 16.0) == pytest.approx(1.0)

    def test_general_power_matches_polynomial(self):
        tabulated = TabulatedConvexPower(lambda s: s**3)
        closed = makespan_for_loads([2.0, 3.0], CUBE, 10.0)
        numeric = makespan_for_loads([2.0, 3.0], tabulated, 10.0)
        assert numeric == pytest.approx(closed, rel=1e-8)

    def test_empty_loads_rejected(self, cube):
        with pytest.raises(InvalidInstanceError):
            makespan_for_loads([0.0], cube, 5.0)

    def test_leakage_power_solves_budgets_above_the_critical_speed_minimum(self):
        # with every processor finishing together the energy stays above 11
        # (11.13 at the longest such finish time, 5.27); the light processor
        # must run at the critical speed and finish early instead
        leaky = AffinePolynomialPower(exponent=2.5, coefficient=1.5, static=0.2)
        loads = (3.0, 2.0, 4.5)
        crit = leaky.critical_speed
        least = sum(leaky.energy(w, crit) for w in loads)
        assert least == pytest.approx(8.34, abs=5e-3)
        T = makespan_for_loads(loads, leaky, 11.0)
        speeds = [max(w / T, crit) for w in loads]
        assert sum(leaky.energy(w, s) for w, s in zip(loads, speeds)) == pytest.approx(11.0)
        assert max(w / s for w, s in zip(loads, speeds)) == pytest.approx(T)
        assert makespan_for_loads(loads, leaky, 20.0) < T
        with pytest.raises(BudgetError, match="8.338"):
            makespan_for_loads(loads, leaky, 8.0)

    def test_leakage_power_answer_passes_verify(self):
        leaky = AffinePolynomialPower(exponent=2.5, coefficient=1.5, static=0.2)
        request = SolveRequest(
            instance=Instance.from_arrays([0.0, 0.0, 0.0], [3.0, 2.0, 4.5]),
            power=leaky, solver="multi-makespan-exact", budget=11.0, processors=3,
        )
        result = solve(request)
        assert result.ok, result.error_message
        assert result.energy == pytest.approx(11.0)
        assert min(result.speeds) == pytest.approx(leaky.critical_speed)
        assert verify(request, result).ok


class TestOptimalLoadPartition:
    def test_partition_instance(self):
        value, assignment = optimal_load_partition([3, 1, 1, 2, 2, 1], 2, alpha=3.0)
        loads = [0.0, 0.0]
        for job, proc in enumerate(assignment):
            loads[proc] += [3, 1, 1, 2, 2, 1][job]
        assert sorted(loads) == [5.0, 5.0]
        assert value == pytest.approx(2 * 5.0**3)

    def test_job_limit(self):
        with pytest.raises(InfeasibleError):
            optimal_load_partition([1.0] * 20, 2, alpha=3.0)


class TestZeroReleaseExact:
    def test_balanced_loads_are_optimal(self, cube):
        inst = Instance.from_arrays([0] * 4, [2.0, 2.0, 2.0, 2.0])
        result = exact_zero_release_makespan(inst, cube, 2, 16.0)
        # balanced loads 4 and 4; T = (2*64/16)^(1/2) = sqrt(8)
        assert result.makespan == pytest.approx(math.sqrt(8.0))
        sched = result.schedule(inst, cube)
        sched.validate(energy_budget=16.0 * (1 + 1e-9))

    def test_requires_zero_releases(self, cube):
        inst = Instance.from_arrays([0, 1], [1.0, 1.0])
        with pytest.raises(InvalidInstanceError):
            exact_zero_release_makespan(inst, cube, 2, 4.0)

    def test_matches_general_solver(self, cube):
        inst = Instance.from_arrays([0] * 5, [3.0, 1.0, 2.0, 1.5, 1.0])
        zero = exact_zero_release_makespan(inst, cube, 2, 12.0)
        general = exact_multiprocessor_makespan(inst, cube, 2, 12.0)
        assert zero.makespan == pytest.approx(general.makespan, rel=1e-9)


class TestGeneralExact:
    def test_never_worse_than_cyclic(self, cube):
        inst = Instance.equal_work([0.0, 0.5, 1.0, 2.0, 3.0], work=1.0)
        from repro.multi import cyclic_assignment

        exact = exact_multiprocessor_makespan(inst, cube, 2, 8.0)
        cyclic = makespan_for_assignment(inst, cube, cyclic_assignment(5, 2), 8.0)
        assert exact.makespan <= cyclic.makespan + 1e-9

    def test_beats_bad_assignment_on_unequal_work(self, cube):
        inst = Instance.from_arrays([0.0, 0.2, 0.4], [5.0, 1.0, 1.0])
        exact = exact_multiprocessor_makespan(inst, cube, 2, 20.0)
        lopsided = makespan_for_assignment(inst, cube, {0: [0, 1, 2]}, 20.0)
        assert exact.makespan <= lopsided.makespan + 1e-9

    def test_job_limit_for_general_releases(self, cube):
        inst = Instance.from_arrays(np.linspace(0, 5, 12), [1.0] * 12)
        with pytest.raises(InfeasibleError):
            exact_multiprocessor_makespan(inst, cube, 2, 10.0)

    def test_alpha_2(self):
        power = PolynomialPower(2.0)
        inst = Instance.from_arrays([0] * 4, [1.0, 2.0, 3.0, 4.0])
        result = exact_zero_release_makespan(inst, power, 2, 10.0)
        # optimal split is {4,1} vs {3,2}: loads 5,5 -> T = (25+25)/10 = 5
        assert result.makespan == pytest.approx(5.0)
