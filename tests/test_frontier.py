"""Tests for the non-dominated makespan frontier (Section 3.2, Figures 1-3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from _strategies import hypothesis_settings, plain_instance_from, releases_strategy, works_strategy
from repro.api import SolveRequest, solve
from repro.core import CUBE, AffinePolynomialPower, Instance, PolynomialPower, TabulatedConvexPower
from repro.exceptions import BudgetError
from repro.makespan import incmerge, makespan_frontier, schedule_for_energy
from repro.workloads import FIGURE1_BREAKPOINTS, FIGURE1_ENERGY_RANGE, poisson_instance


class TestFigure1Curve:
    def test_breakpoints_match_paper(self, fig1, cube):
        curve = makespan_frontier(fig1, cube)
        assert curve.breakpoints == pytest.approx(list(FIGURE1_BREAKPOINTS))

    def test_three_configurations(self, fig1, cube):
        curve = makespan_frontier(fig1, cube)
        assert len(curve.segments) == 3

    def test_endpoint_values_match_figure(self, fig1, cube):
        curve = makespan_frontier(fig1, cube)
        lo, hi = FIGURE1_ENERGY_RANGE
        # left end of the plotted range: E = 6 -> makespan ~ 9.24 (figure axis ends at 9.25)
        assert curve.value(lo) == pytest.approx(8.0 / np.sqrt(6.0 / 8.0), rel=1e-12)
        assert 9.2 < curve.value(lo) < 9.25
        # right end: E = 21 -> makespan ~ 6.35
        assert curve.value(hi) == pytest.approx(6.0 + 1.0 / np.sqrt(8.0), rel=1e-12)

    def test_matches_incmerge_everywhere(self, fig1, cube):
        curve = makespan_frontier(fig1, cube)
        for energy in np.linspace(1.0, 40.0, 40):
            assert curve.value(float(energy)) == pytest.approx(
                incmerge(fig1, cube, float(energy)).makespan, rel=1e-9
            )

    def test_first_derivative_continuous_at_breakpoints(self, fig1, cube):
        curve = makespan_frontier(fig1, cube)
        for breakpoint in curve.breakpoints:
            left = curve.derivative(breakpoint - 1e-7)
            right = curve.derivative(breakpoint + 1e-7)
            assert left == pytest.approx(right, rel=1e-4)

    def test_first_derivative_value_at_17(self, fig1, cube):
        # hand-computed: dM/dE = -1/2 * (E - 13)^(-3/2) just above E = 17 -> -1/16
        curve = makespan_frontier(fig1, cube)
        assert curve.derivative(17.0 + 1e-9) == pytest.approx(-1.0 / 16.0, rel=1e-6)

    def test_derivative_range_matches_figure2(self, fig1, cube):
        curve = makespan_frontier(fig1, cube)
        grid = np.linspace(6.0, 21.0, 200)
        deriv = curve.sample_derivative(grid)
        assert np.all(deriv < 0.0)
        assert deriv.min() >= -0.8   # figure 2's axis spans 0 .. -0.8
        assert deriv.max() <= 0.0

    def test_second_derivative_discontinuous_at_breakpoints(self, fig1, cube):
        curve = makespan_frontier(fig1, cube)
        for breakpoint in curve.breakpoints:
            left = curve.second_derivative(breakpoint - 1e-9)
            right = curve.second_derivative(breakpoint + 1e-9)
            assert abs(left - right) > 1e-3

    def test_second_derivative_range_matches_figure3(self, fig1, cube):
        curve = makespan_frontier(fig1, cube)
        grid = np.linspace(6.0, 21.0, 200)
        second = curve.sample_second_derivative(grid)
        assert np.all(second > 0.0)
        assert second.max() <= 0.25  # figure 3's axis spans 0 .. 0.25

    def test_curve_is_convex_and_decreasing(self, fig1, cube):
        curve = makespan_frontier(fig1, cube)
        assert curve.is_convex()
        grid = np.linspace(6.0, 40.0, 50)
        values = curve.sample(grid)
        assert np.all(np.diff(values) < 0.0)


class TestGeneralInstances:
    def test_single_job_single_segment(self, cube):
        inst = Instance.from_arrays([0.0], [2.0])
        curve = makespan_frontier(inst, cube)
        assert len(curve.segments) == 1
        assert curve.breakpoints == []
        assert curve.value(8.0) == pytest.approx(2.0 / 2.0)  # speed 2

    def test_matches_incmerge_on_random_instances(self, cube):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            releases = np.sort(rng.uniform(0, 10, n))
            releases[0] = 0.0
            works = rng.uniform(0.3, 2.5, n)
            inst = Instance.from_arrays(releases, works)
            curve = makespan_frontier(inst, cube)
            for energy in rng.uniform(0.5, 50.0, 6):
                assert curve.value(float(energy)) == pytest.approx(
                    incmerge(inst, cube, float(energy)).makespan, rel=1e-8
                )

    def test_coincident_releases(self, cube):
        inst = Instance.from_arrays([0, 0, 2], [1, 1, 2])
        curve = makespan_frontier(inst, cube)
        for energy in [1.0, 5.0, 20.0]:
            assert curve.value(energy) == pytest.approx(
                incmerge(inst, cube, energy).makespan, rel=1e-9
            )

    def test_non_polynomial_power_uses_closed_form_derivatives(self, fig1):
        # the slope -1/h(s) and curvature eps(s)*s/(W*h(s)**2) hold for every
        # power; for a tabulated s**3 they track CUBE's up to h's own
        # difference quotients
        power = TabulatedConvexPower(lambda s: s**3, name="cubic-tabulated")
        curve = makespan_frontier(fig1, power)
        reference = makespan_frontier(fig1, CUBE)
        grid = np.linspace(6.0, 21.0, 200)
        for sample, bound in (
            ("sample", 1e-12),
            ("sample_derivative", 1e-9),
            ("sample_second_derivative", 1e-5),
        ):
            got = getattr(curve, sample)(grid)
            want = getattr(reference, sample)(grid)
            assert np.max(np.abs(got - want) / np.abs(want)) <= bound, sample

    def test_alpha_2_breakpoints_still_at_configuration_changes(self, fig1):
        power = PolynomialPower(2.0)
        curve = makespan_frontier(fig1, power)
        # with alpha = 2 the fixed blocks use energy 5*1 + 2*2 = 9 and the
        # final job merges with block {1} when its speed drops to 2 -> E = 9 + 1*2 = 11
        assert curve.breakpoints[-1] == pytest.approx(11.0)

    def test_schedule_for_energy_matches_curve(self, fig1, cube):
        curve = makespan_frontier(fig1, cube)
        sched = schedule_for_energy(fig1, cube, 12.0)
        assert sched.makespan == pytest.approx(curve.value(12.0))
        sched.validate(energy_budget=12.0 * (1 + 1e-9))


CLOSED_FORM_POWERS = {
    "cube": (CUBE, 1e-6),
    "alpha-2": (PolynomialPower(2.0), 1e-6),
    "alpha-2.5": (PolynomialPower(2.5), 1e-6),
    # its elasticity is itself a central difference of h
    "tabulated-cube": (TabulatedConvexPower(lambda s: s**3, name="cubic-tabulated"), 1e-5),
}


@hypothesis_settings(max_examples=60)
@given(
    releases=releases_strategy,
    works=works_strategy,
    power_name=st.sampled_from(sorted(CLOSED_FORM_POWERS)),
    exponent=st.floats(min_value=-3.0, max_value=1.5),
)
def test_closed_forms_match_central_differences(releases, works, power_name, exponent):
    power, curvature_bound = CLOSED_FORM_POWERS[power_name]
    curve = makespan_frontier(plain_instance_from(releases, works), power)
    energy = max(curve.breakpoints, default=1.0) * 10.0**exponent
    assume(all(abs(energy - b) >= 1e-4 * max(energy, b) for b in curve.breakpoints))
    step = 5e-5 * energy  # the stencil stays inside the configuration
    slope = (curve.value(energy + step) - curve.value(energy - step)) / (2.0 * step)
    curvature = (
        curve.derivative(energy + step) - curve.derivative(energy - step)
    ) / (2.0 * step)
    assert slope == pytest.approx(curve.derivative(energy), rel=1e-6)
    assert curvature == pytest.approx(curve.second_derivative(energy), rel=curvature_bound)


class TestLeakyPower:
    def test_frontier_rejects_a_positive_critical_speed(self, fig1):
        with pytest.raises(BudgetError, match="critical speed"):
            makespan_frontier(fig1, AffinePolynomialPower(2.5, 1.5, 0.2))

    @pytest.mark.parametrize("static, answer", [(0.2, "invalid-budget"), (0.0, "ok")])
    def test_frontier_solver_answers(self, static, answer):
        power = AffinePolynomialPower(2.5, 1.5, static)
        for seed in range(20):
            request = SolveRequest(
                instance=poisson_instance(8, seed=seed), power=power, solver="frontier"
            )
            result = solve(request)
            assert (result.error_code if not result.ok else "ok") == answer
