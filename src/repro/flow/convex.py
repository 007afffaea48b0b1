"""Exact release-order total flow: Theorem 1 as one isotonic sweep.

With the job order fixed -- release order, which is optimal for equal-work
jobs (Pruhs, Uthaisombut and Woeginger; Section 4 of the paper) -- and, on
several processors, a fixed assignment of jobs to processors (Section 5),
minimising total flow for an energy budget is a convex program.  Its
optimality conditions are Theorem 1, which holds for any works and any
strictly convex power function ``P`` once speeds are measured by their
marginal energy ``h(s) = s P'(s) - P(s)`` (the energy a job saves per unit of
time it is slowed down by; ``(alpha - 1) * s**alpha`` for ``P = s**alpha``).

Fix ``y = h(sigma_n)``, the marginal energy of the last job; Section 5 shows
every processor's last job runs at that same speed.  Give the job at
position ``m`` (0-based) of a processor's chain of ``k`` release-ordered jobs
the *level* ``v_m = m + h(sigma_m) / y``.  Theorem 1 then says:

* ``v`` is non-decreasing along the chain and ``v_{k-1} = k``;
* ``v_m = v_{m+1}`` across a LATE boundary (``C_m > r_{m+1}``);
* ``v_m >= m + 1``, with equality across an EARLY boundary (``C_m < r_{m+1}``).

So a maximal run ``[a, b]`` of equal levels starts at ``r_a``, and unless it
ends the chain it finishes by ``r_{b+1}``: its level is ``b + 1`` when that
is fast enough, else the level at which it ends exactly at ``r_{b+1}`` (a
TIGHT boundary).  One pool-adjacent-violators pass finds the runs: each job
opens a run, which is pooled with its left neighbour while that neighbour's
level is larger.  No level exceeds ``k``, so a run whose level would exceed it is
capped at ``k``; it then runs straight into the chain's last run.

Energy grows and flow falls with ``y``, so one bracketed root-find on
``log y`` meets the energy budget (the laptop problem) or the flow target
(the server problem).  Theorem 8 is why that root-find cannot become a
formula: with a tight boundary, the speeds are roots of polynomials that are
not solvable by radicals.  :mod:`repro.flow.puw` replaces the root-find's
answer by the closed form whenever the configuration has no tight boundary.

For unequal-work jobs the solver returns the optimum *for the given order*
(release order); the paper makes no optimality claim across orders in that
case and neither do we.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.job import Instance
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import BudgetError, ConvergenceError, InfeasibleError

__all__ = [
    "ConvexFlowResult",
    "convex_flow_laptop",
    "convex_flow_server",
    "release_order_flow",
]

#: Relative tolerance of every root-find: four ulps.
_RTOL = 4.0 * sys.float_info.epsilon
#: Iteration cap of every loop (root-finds and bracket expansions).
_MAX_ITERATIONS = 200
#: A flow target that needs more energy than this is reported infeasible.
_MAX_ENERGY = 1e12


@dataclass(frozen=True)
class ConvexFlowResult:
    """Optimal release-order flow schedule, exact to rounding.

    ``iterations`` counts the sweeps the root-find on ``y`` evaluated.
    """

    flow: float
    energy: float
    durations: np.ndarray
    speeds: np.ndarray
    start_times: np.ndarray
    completion_times: np.ndarray
    iterations: int

    def schedule(self, instance: Instance, power: PowerFunction) -> Schedule:
        return Schedule.from_speeds(instance, power, self.speeds)


def _brent(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> float:
    """Brent's method: a root of ``f`` in ``[a, b]``, where ``fa``, ``fb`` differ in sign.

    Both callers' functions have slopes of order one, so the search stops
    once the bracket or the residual is ``_RTOL`` relative (absolute below 1)
    small, and returns the bracket end with the smaller residual.
    """
    if fa == 0.0:
        return a
    pre, f_pre, cur, f_cur = a, fa, b, fb
    blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_MAX_ITERATIONS):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            blk, f_blk = pre, f_pre
            s_pre = s_cur = cur - pre
        if abs(f_blk) < abs(f_cur):
            pre, cur, blk = cur, blk, cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * _RTOL * max(abs(cur), 1.0)
        s_bis = 0.5 * (blk - cur)
        if abs(f_cur) <= 2.0 * delta or abs(s_bis) < delta:
            return cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if pre == blk:  # secant
                s_try = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (pre - cur)
                d_blk = (f_blk - f_cur) / (blk - cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre)
                )
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        pre, f_pre = cur, f_cur
        cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(cur)
    raise ConvergenceError(f"root-find did not converge in {_MAX_ITERATIONS} steps")


def _increasing_root(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of the increasing function ``g``, bracketed outward from ``[lo, hi]``."""
    g_lo, g_hi = g(lo), g(hi)
    for _ in range(_MAX_ITERATIONS):
        if g_lo <= 0.0 <= g_hi:
            return _brent(g, lo, hi, g_lo, g_hi)
        step = 2.0 * max(hi - lo, 1.0)
        if g_hi < 0.0:
            lo, g_lo = hi, g_hi
            hi += step
            g_hi = g(hi)
        else:
            hi, g_hi = lo, g_lo
            lo -= step
            g_lo = g(lo)
    raise ConvergenceError(f"could not bracket the root in {_MAX_ITERATIONS} steps")


class _Chains:
    """Release-ordered chains of jobs (one per processor) under one power function."""

    def __init__(
        self, instance: Instance, power: PowerFunction, chains: Sequence[Sequence[int]]
    ) -> None:
        self.instance = instance
        self.power = power
        releases, works = instance.releases, instance.works
        self.jobs = [sorted(int(j) for j in chain) for chain in chains if len(chain)]
        self.releases = [[float(releases[j]) for j in jobs] for jobs in self.jobs]
        self.works = [[float(works[j]) for j in jobs] for jobs in self.jobs]
        self.longest = max(len(jobs) for jobs in self.jobs)
        self.sweeps = 0

    def _speed_map(self, y: float) -> Callable[[float], float]:
        """Speed of a job whose marginal energy is ``x * y``, as a function of ``x``."""
        if self.power.is_polynomial:
            alpha = self.power.alpha
            root = 1.0 / alpha
            sigma_n = (y / (alpha - 1.0)) ** root
            return lambda x: sigma_n * x ** root
        inverse = self.power.speed_for_marginal_energy
        return lambda x: inverse(x * y)

    def _marginal(self, speed: float) -> float:
        """``h(speed)``, or ``inf`` where it overflows."""
        try:
            marginal = self.power.marginal_energy(speed)
        except OverflowError:
            return math.inf
        return marginal if marginal < math.inf else math.inf  # nan (inf - inf) too

    def _tight_ratio(self, work: float, gap: float, y: float) -> float:
        """``h(s) / y`` for the speed ``s`` that runs ``work`` in exactly ``gap``."""
        return self._marginal(work / gap) / y if gap > 0.0 else math.inf

    def _chain_levels(
        self, c: int, y: float, speed_at: Callable[[float], float]
    ) -> list[float]:
        """``v_m - m`` for every job of chain ``c`` (the pool-adjacent-violators pass)."""
        k = len(self.works[c])
        top = float(k)
        starts: list[int] = []
        values: list[float] = []
        for m in range(k):
            a, v = m, top
            if m < k - 1:
                v = self._run_level(c, m, m, 0.0, top, y, speed_at)
            while values and values[-1] > v:
                a, left = starts.pop(), values.pop()
                if m < k - 1:
                    v = self._run_level(c, a, m, v, left, y, speed_at)
            starts.append(a)
            values.append(v)
        levels = [0.0] * k
        for a, b, v in zip(starts, starts[1:] + [k], values):
            for m in range(a, b):
                levels[m] = v - m
        return levels

    def _run_level(
        self, c: int, a: int, b: int, right: float, left: float, y: float,
        speed_at: Callable[[float], float],
    ) -> float:
        """Level of the run ``[a, b]`` of chain ``c``, clamped to ``[right, left]``.

        Unclamped, it is the level at which the run, started at ``r_a``, ends
        exactly at ``r_{b+1}``: where its work ``W`` runs at the average speed
        ``W / gap``.  Measured as ``h(W / duration) / y``, the run's speed is
        ``v - m`` for a single job ``m`` and lies in ``[v - b, v - a]`` for
        the run, so the level lies in ``[a + q, b + q]`` with
        ``q = h(W / gap) / y``, and Brent's method finds it in a few steps.
        """
        releases, works = self.releases[c], self.works[c]
        gap = releases[b + 1] - releases[a]
        work = math.fsum(works[a:b + 1])
        q = self._tight_ratio(work, gap, y)
        lo, hi = max(right, a + q, b + 1.0), min(left, b + q)
        if lo >= left:
            return left
        if hi <= lo:
            return lo

        def speed_gap(v: float) -> float:
            duration = sum(works[m] / speed_at(v - m) for m in range(a, b + 1))
            return self._tight_ratio(work, duration, y) - q

        f_lo = speed_gap(lo)
        if f_lo >= 0.0:
            return lo
        f_hi = speed_gap(hi)
        if f_hi <= 0.0:
            return hi
        return _brent(speed_gap, lo, hi, f_lo, f_hi)

    def solve_at(self, y: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Speeds, completion times (instance order) and energy of the optimum at ``y``."""
        self.sweeps += 1
        speed_at = self._speed_map(y)
        energy_per_work = self.power.energy_per_work
        speeds = np.empty(self.instance.n_jobs)
        completions = np.empty(self.instance.n_jobs)
        energy = 0.0
        for c, jobs in enumerate(self.jobs):
            clock = -math.inf
            levels = self._chain_levels(c, y, speed_at)
            for j, r, w, x in zip(jobs, self.releases[c], self.works[c], levels):
                s = speed_at(x)
                clock = max(clock, r) + w / s
                speeds[j], completions[j] = s, clock
                energy += w * energy_per_work(s)
        return speeds, completions, energy

    def result(self, solution: tuple[np.ndarray, np.ndarray, float]) -> ConvexFlowResult:
        speeds, completions, energy = solution
        durations = self.instance.works / speeds
        return ConvexFlowResult(
            flow=self.flow(completions),
            energy=energy,
            durations=durations,
            speeds=speeds,
            start_times=completions - durations,
            completion_times=completions,
            iterations=self.sweeps,
        )

    def flow(self, completions: np.ndarray) -> float:
        return float(np.sum(completions - self.instance.releases))

    def laptop(self, energy_budget: float) -> ConvexFlowResult:
        """The minimum-flow schedule that spends ``energy_budget``."""
        if energy_budget <= 0.0 or not math.isfinite(energy_budget):
            raise BudgetError(f"energy budget must be finite and > 0, got {energy_budget}")
        # every level lies in [1, longest chain], so with u the speed that
        # spends the budget uniformly, y lies in [h(u) / longest, h(u)]
        uniform = self.power.speed_for_energy(self.instance.total_work, energy_budget)
        y_hi = self._marginal(uniform)
        if not 0.0 < y_hi < math.inf:
            raise BudgetError(
                f"energy budget {energy_budget:g} is out of range: at the power "
                "function's critical-speed minimum, or too large or small for "
                "its marginal energy to be a float"
            )
        found: dict[float, tuple] = {}

        def excess(t: float) -> float:
            found[t] = self.solve_at(math.exp(t))
            return math.log(found[t][2] / energy_budget)

        t = _increasing_root(excess, math.log(y_hi / self.longest), math.log(y_hi))
        return self.result(found[t])

    def server(self, flow_target: float) -> ConvexFlowResult:
        """The minimum-energy schedule whose total flow is ``flow_target``."""
        if not math.isfinite(flow_target):
            raise BudgetError(f"flow target must be finite, got {flow_target}")
        # releases are sorted, so infinitely fast jobs have zero total flow
        if flow_target <= 0.0:
            raise InfeasibleError(
                f"flow target {flow_target:g} is at or below the infinite-speed "
                "lower bound 0"
            )
        found: dict[float, tuple] = {}

        def shortfall(t: float) -> float:
            if t < -700.0:  # y underflows: even the slowest schedule meets it
                raise BudgetError(f"flow target {flow_target:g} never binds")
            found[t] = speeds, completions, energy = self.solve_at(math.exp(t))
            flow = self.flow(completions)
            if flow > flow_target and energy > _MAX_ENERGY:
                raise InfeasibleError(
                    f"flow target {flow_target:g} needs more than {_MAX_ENERGY:g} energy"
                )
            return math.log(flow_target / flow)

        # first guess: every job at the one speed that meets the target unqueued
        y_guess = self._marginal(self.instance.total_work / flow_target)
        t = math.log(y_guess) if 0.0 < y_guess < math.inf else 0.0
        t = _increasing_root(shortfall, t - 1.0, t + 1.0)
        return self.result(found[t])


def release_order_flow(
    instance: Instance,
    power: PowerFunction,
    chains: Sequence[Sequence[int]],
    energy_budget: float | None = None,
    flow_target: float | None = None,
) -> ConvexFlowResult:
    """Optimal flow schedule of ``chains`` (job indices per processor, run in
    release order) for an energy budget or, failing that, a flow target."""
    problem = _Chains(instance, power, chains)
    if energy_budget is not None:
        return problem.laptop(float(energy_budget))
    return problem.server(float(flow_target))


def convex_flow_laptop(
    instance: Instance, power: PowerFunction, energy_budget: float
) -> ConvexFlowResult:
    """Minimise total flow subject to an energy budget (release-order schedule)."""
    return release_order_flow(
        instance, power, [range(instance.n_jobs)], energy_budget=energy_budget
    )


def convex_flow_server(
    instance: Instance, power: PowerFunction, flow_target: float
) -> ConvexFlowResult:
    """Minimise energy subject to a total-flow target (the server problem).

    The same sweep as :func:`convex_flow_laptop`; the root-find on ``y``
    meets the flow target instead of the energy budget, so the flow curve is
    inverted directly rather than through re-solves.
    """
    return release_order_flow(
        instance, power, [range(instance.n_jobs)], flow_target=flow_target
    )
