"""Tests for the IncMerge laptop-problem solver (Section 3.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CUBE, Instance, PolynomialPower, check_optimal_structure
from repro.exceptions import BudgetError
from repro.makespan import brute_force_laptop, incmerge, incmerge_speeds


class TestFigure1Instance:
    """Values derived by hand from the paper's Figure 1 instance."""

    def test_energy_17_three_blocks(self, fig1, cube):
        result = incmerge(fig1, cube, 17.0)
        assert result.n_blocks == 3
        assert result.makespan == pytest.approx(6.5)
        assert np.allclose(result.speeds, [1.0, 2.0, 2.0])
        assert result.energy == pytest.approx(17.0)

    def test_energy_21_final_job_faster(self, fig1, cube):
        result = incmerge(fig1, cube, 21.0)
        assert result.makespan == pytest.approx(6.0 + 1.0 / np.sqrt(8.0))
        assert result.speeds[2] == pytest.approx(np.sqrt(8.0))

    def test_energy_12_two_blocks(self, fig1, cube):
        # between the breakpoints 8 and 17 the last two jobs form one block
        result = incmerge(fig1, cube, 12.0)
        assert result.n_blocks == 2
        assert result.speeds[1] == pytest.approx(result.speeds[2])
        # block {1,2}: 3 work, energy 12 - 5 = 7 -> speed sqrt(7/3)
        assert result.speeds[1] == pytest.approx(np.sqrt(7.0 / 3.0))
        assert result.makespan == pytest.approx(5.0 + 3.0 / np.sqrt(7.0 / 3.0))

    def test_energy_8_single_block_boundary(self, fig1, cube):
        result = incmerge(fig1, cube, 8.0)
        assert result.makespan == pytest.approx(8.0)

    def test_energy_6_single_block(self, fig1, cube):
        result = incmerge(fig1, cube, 6.0)
        assert result.n_blocks == 1
        # 8 work at speed sqrt(6/8)
        assert result.makespan == pytest.approx(8.0 / np.sqrt(6.0 / 8.0))

    def test_energy_exhausted_exactly(self, fig1, cube):
        for energy in [3.0, 7.5, 13.0, 25.0]:
            result = incmerge(fig1, cube, energy)
            assert result.energy == pytest.approx(energy, rel=1e-9)

    def test_schedule_is_valid_and_structured(self, fig1, cube):
        for energy in [4.0, 8.0, 12.0, 17.0, 30.0]:
            sched = incmerge(fig1, cube, energy).schedule()
            sched.validate(energy_budget=energy * (1 + 1e-9))
            assert check_optimal_structure(sched).satisfies_all


class TestGeneralBehaviour:
    def test_single_job(self, cube):
        inst = Instance.from_arrays([2.0], [3.0])
        result = incmerge(inst, cube, 12.0)
        # speed = sqrt(12/3) = 2 -> makespan = 2 + 1.5
        assert result.makespan == pytest.approx(3.5)
        assert result.n_blocks == 1

    def test_more_energy_never_hurts(self, cube):
        inst = Instance.from_arrays([0, 1, 3, 3.5, 9], [2, 1, 4, 1, 2])
        budgets = np.linspace(1.0, 60.0, 25)
        makespans = [incmerge(inst, cube, float(e)).makespan for e in budgets]
        assert all(b <= a + 1e-9 for a, b in zip(makespans, makespans[1:]))

    def test_block_speeds_non_decreasing(self, cube):
        inst = Instance.from_arrays([0, 1, 3, 3.5, 9], [2, 1, 4, 1, 2])
        for energy in [2.0, 10.0, 40.0]:
            result = incmerge(inst, cube, energy)
            speeds = [b.speed for b in result.blocks]
            assert all(s2 >= s1 * (1 - 1e-12) for s1, s2 in zip(speeds, speeds[1:]))

    def test_coincident_releases_merge(self, cube):
        inst = Instance.from_arrays([0, 0, 0, 2], [1, 1, 1, 1])
        result = incmerge(inst, cube, 10.0)
        sched = result.schedule()
        sched.validate(energy_budget=10.0 * (1 + 1e-9))
        # the three simultaneous jobs cannot each form a fixed block
        assert result.n_blocks <= 2

    def test_matches_brute_force_on_random_instances(self, cube):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            releases = np.sort(rng.uniform(0, 8, n))
            releases[0] = 0.0
            works = rng.uniform(0.3, 2.5, n)
            inst = Instance.from_arrays(releases, works)
            energy = float(rng.uniform(0.5, 40.0))
            fast = incmerge(inst, cube, energy)
            slow = brute_force_laptop(inst, cube, energy)
            assert fast.makespan == pytest.approx(slow.makespan, rel=1e-9)

    def test_other_alpha_values(self):
        inst = Instance.from_arrays([0, 2, 5], [2, 2, 2])
        for alpha in [1.5, 2.0, 2.5, 4.0]:
            power = PolynomialPower(alpha)
            result = incmerge(inst, power, 9.0)
            assert result.energy == pytest.approx(9.0, rel=1e-9)
            fast = brute_force_laptop(inst, power, 9.0)
            assert result.makespan == pytest.approx(fast.makespan, rel=1e-9)

    def test_invalid_budget(self, fig1, cube):
        with pytest.raises(BudgetError):
            incmerge(fig1, cube, 0.0)
        with pytest.raises(BudgetError):
            incmerge(fig1, cube, -1.0)
        with pytest.raises(BudgetError):
            incmerge(fig1, cube, float("nan"))

    def test_incmerge_speeds_helper(self, fig1, cube):
        speeds = incmerge_speeds(fig1, cube, 17.0)
        assert np.allclose(speeds, [1.0, 2.0, 2.0])


class TestTransientBlockEnergy:
    """A near-coincident release pair gives a transient block of huge energy.

    Release gaps of ~1e-6 make a single-job block run at ~1e6x speed and
    cost ~1e12 energy before the merge loop absorbs it.  Keeping the fixed
    energy as a running total that adds and later subtracts that energy
    left ~3e-4 of rounding error, so the final block ran too slowly: the
    laptop answer left budget unspent and the server answer (IncMerge at
    the inverted energy) missed its makespan target.
    """

    @pytest.mark.parametrize(
        "solver,n,seed",
        [("laptop", 32, 1825331383), ("server", 16, 11970), ("server", 32, 30015)],
    )
    def test_answer_passes_verification(self, solver, n, seed):
        from repro.api import SolveRequest, solve, verify
        from repro.workloads import poisson_instance

        inst = poisson_instance(n, seed=seed)
        budget = (
            32.0 if solver == "laptop"
            else float(inst.releases.max() + 0.5 * inst.works.sum())
        )
        request = SolveRequest(instance=inst, power=CUBE, solver=solver, budget=budget)
        result = solve(request)
        report = verify(request, result)
        # laptop must spend its budget, server must meet its makespan target
        assert result.ok and report.ok, list(report.codes())
        if solver == "laptop":
            assert result.energy == pytest.approx(budget, rel=1e-12)
