"""The exact flow solvers' Newton root-find, pinned to the Brent search it replaced.

:func:`repro.flow.convex.release_order_flow` finds the last job's marginal
energy ``y`` by a safeguarded Newton iteration on ``t = log y`` whose slope
each sweep reads off Theorem 1's levels.  This suite checks:

* the answers of ``flow`` (one chain, energy budget), ``flow-server`` (one
  chain, flow target) and ``multi-flow`` (cyclic chains on 1-4 processors)
  against ``oracles.flow.brent_release_order_flow`` -- the same sweep under
  the bracketed Brent search -- at 1e-13 relative in flow, energy and every
  speed, and the same error where either raises.  Both root-finds stop
  within four ulps of the root, and over 1,200 random solves the largest
  difference was 1.1e-14.  A ``TabulatedConvexPower`` is held to 1e-11
  instead: its marginal energy is a central difference of the callable,
  off by up to 2.6e-13 relative, so its sweep is that noisy in ``y`` and
  the two searches stop at different points of the noise (differences up
  to 2.2e-13 over 150 random solves);
* the sweep's slopes of ``log E`` and ``log F`` in ``t`` against central
  differences, wherever the configuration holds within the step.  A wrong
  slope would only slow the safeguarded iteration down, so only this test
  would catch it;
* the sweeps spent on perfbench's eleven flow-solve cells: at most 50 in
  all, and no cell above what the Brent search spent.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from _strategies import hypothesis_settings
from oracles.flow import brent_release_order_flow
from repro.core import (
    CUBE,
    AffinePolynomialPower,
    Instance,
    PolynomialPower,
    TabulatedConvexPower,
)
from repro.exceptions import ReproError
from repro.flow.convex import _Chains, release_order_flow
from repro.workloads import equal_work_instance

LEAKY = AffinePolynomialPower(2.5, 1.5, 0.2)
TABULATED = TabulatedConvexPower(lambda s: s**2.2 + 0.3 * s**3.1, name="two-term")
#: power -> (relative tolerance against the reference, largest n drawn)
POWERS = {
    "cube": (CUBE, 1e-13, 64),
    "alpha-2": (PolynomialPower(2.0), 1e-13, 64),
    "alpha-2.5": (PolynomialPower(2.5), 1e-13, 64),
    "leaky": (LEAKY, 1e-13, 64),
    "tabulated": (TABULATED, 1e-11, 12),
}


@st.composite
def problems(draw, power_names=tuple(POWERS), max_chains=4, max_jobs=64):
    """An instance (ties likely), a power, cyclic chains and a budget or target."""
    name = draw(st.sampled_from(power_names))
    power, rtol, most = POWERS[name]
    n = draw(st.integers(1, min(most, max_jobs)))
    ticks = draw(st.lists(st.integers(0, max(1, n)), min_size=n, max_size=n))
    releases = sorted(0.5 * tick for tick in ticks)
    if draw(st.booleans()):
        works = [draw(st.sampled_from([0.5, 1.0, 2.0]))] * n
    else:
        works = draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))
    instance = Instance.from_arrays(releases, works)
    processors = draw(st.integers(1, max_chains))
    chains = [list(range(p, n, processors)) for p in range(processors)]
    scale = math.exp(draw(st.floats(-2.5, 2.5)))
    if draw(st.booleans()):
        energy = instance.total_work * scale
        if name == "leaky":  # above the critical-speed minimum
            energy += instance.total_work * power.energy_per_work(power.critical_speed)
        budget = {"energy_budget": energy}
    else:
        budget = {"flow_target": instance.total_work * scale}
    return instance, power, chains, budget, rtol


def _solve(solver, instance, power, chains, budget):
    try:
        return solver(instance, power, chains, **budget)
    except ReproError as error:
        return error


def _assert_pinned(got, want, rtol):
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert type(got) is type(want), (got, want)
        return
    assert abs(got.flow - want.flow) <= rtol * abs(want.flow)
    assert abs(got.energy - want.energy) <= rtol * abs(want.energy)
    np.testing.assert_allclose(got.speeds, want.speeds, rtol=rtol, atol=0.0)


class TestAgainstBrent:
    @hypothesis_settings(max_examples=80)
    @given(problem=problems())
    def test_answers_match_the_brent_search(self, problem):
        instance, power, chains, budget, rtol = problem
        got = _solve(release_order_flow, instance, power, chains, budget)
        want = _solve(brent_release_order_flow, instance, power, chains, budget)
        _assert_pinned(got, want, rtol)

    @pytest.mark.parametrize("processors", [1, 2, 3, 4])
    @pytest.mark.parametrize("power", [CUBE, LEAKY], ids=["cube", "leaky"])
    @pytest.mark.parametrize("budget", [("energy_budget", 0.4), ("energy_budget", 48.0),
                                        ("flow_target", 40.0), ("flow_target", 400.0)],
                             ids=["E0.4", "E48", "F40", "F400"])
    def test_seeded_equal_work(self, processors, power, budget):
        instance = equal_work_instance(48, seed=11)
        chains = [list(range(p, 48, processors)) for p in range(processors)]
        kind, value = budget
        if power is LEAKY and kind == "energy_budget":
            value += instance.total_work * power.energy_per_work(power.critical_speed)
        got = _solve(release_order_flow, instance, power, chains, {kind: value})
        want = _solve(brent_release_order_flow, instance, power, chains, {kind: value})
        if power is CUBE:  # a leaky target above the all-critical-speed flow never binds
            assert not isinstance(got, Exception), got
        _assert_pinned(got, want, 1e-13)


def _configuration(problem: _Chains, y: float) -> tuple:
    """Every chain's runs with whether each level is fixed (``b + 1`` or ``k``)."""
    speed_at = problem._speed_map(y)
    runs = []
    for c, jobs in enumerate(problem.jobs):
        starts, values = problem._chain_runs(c, y, speed_at)
        ends = starts[1:] + [len(jobs)]
        runs.append(tuple(
            (a, v == len(jobs) or v == e) for a, v, e in zip(starts, values, ends)
        ))
    return tuple(runs)


def _has_tight_run(configuration: tuple) -> bool:
    return any(not fixed for chain in configuration for _, fixed in chain)


def _check_slopes(problem: _Chains, t: float, step: float = 1e-6) -> bool:
    """Compare the sweep's slopes at ``t`` with central differences; ``False``
    where the configuration changes within the step (nothing compared)."""
    configuration = _configuration(problem, math.exp(t))
    if any(_configuration(problem, math.exp(t + d)) != configuration for d in (-step, step)):
        return False
    at, below, above = (problem.solve_at(math.exp(t + d)) for d in (0.0, -step, step))
    energy_slope = (math.log(above.energy) - math.log(below.energy)) / (2.0 * step)
    assert at.energy_slope / at.energy == pytest.approx(energy_slope, rel=1e-6)
    flows = [problem.flow(sweep.completions) for sweep in (at, below, above)]
    flow_slope = (math.log(flows[2]) - math.log(flows[1])) / (2.0 * step)
    assert at.flow_slope / flows[0] == pytest.approx(flow_slope, rel=1e-6)
    return True


class TestSlope:
    @hypothesis_settings(max_examples=60)
    @given(problem=problems(power_names=("cube", "leaky"), max_chains=3, max_jobs=24),
           depth=st.floats(0.0, 1.0))
    def test_slopes_match_central_differences(self, problem, depth):
        instance, power, chains, _, _ = problem
        solver = _Chains(instance, power, chains)
        # a point inside the laptop bracket [y_hi / longest, y_hi]
        energy = instance.total_work * 2.0
        if power is LEAKY:
            energy += instance.total_work * power.energy_per_work(power.critical_speed)
        t_hi = math.log(solver._marginal(power.speed_for_energy(instance.total_work, energy)))
        assume(_check_slopes(solver, t_hi - depth * math.log(solver.longest)))

    @pytest.mark.parametrize("power", [CUBE, LEAKY], ids=["cube", "leaky"])
    @pytest.mark.parametrize("processors", [1, 2, 3])
    def test_slopes_at_points_with_tight_runs(self, power, processors):
        instance = equal_work_instance(32, seed=7000)
        chains = [list(range(p, 32, processors)) for p in range(processors)]
        solver = _Chains(instance, power, chains)
        checked = tight = 0
        for t in np.linspace(-4.0, 1.0, 41):
            if _check_slopes(solver, float(t)):
                checked += 1
                tight += _has_tight_run(_configuration(solver, math.exp(t)))
        assert checked >= 30
        assert tight >= 5


#: perfbench's flow-solve cells and the sweeps the Brent search spent on each.
FLOW_SOLVE_CELLS = [
    ("flow", 1, 16, 7), ("flow", 1, 32, 10), ("flow", 1, 64, 10),
    ("flow-server", 1, 16, 7), ("flow-server", 1, 32, 10),
    ("multi-flow", 2, 16, 7), ("multi-flow", 2, 32, 7), ("multi-flow", 2, 64, 7),
    ("multi-flow", 4, 16, 2), ("multi-flow", 4, 32, 2), ("multi-flow", 4, 64, 2),
]


def _cell_sweeps(solver: str, processors: int, n: int) -> int:
    instance = equal_work_instance(n, seed=7000)
    chains = [list(range(p, n, processors)) for p in range(processors)]
    if solver == "flow-server":
        return release_order_flow(instance, CUBE, chains, flow_target=2.0 * n).iterations
    return release_order_flow(instance, CUBE, chains, energy_budget=float(n)).iterations


def test_flow_solve_cells_take_fewer_sweeps():
    sweeps = {cell[:3]: _cell_sweeps(*cell[:3]) for cell in FLOW_SOLVE_CELLS}
    for *cell, brent in FLOW_SOLVE_CELLS:
        assert sweeps[tuple(cell)] <= brent, cell
    assert sum(sweeps.values()) <= 50, sweeps
