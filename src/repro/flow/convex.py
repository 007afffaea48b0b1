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

Energy grows and flow falls with ``y``, so one root-find on ``t = log y``
meets the energy budget (the laptop problem) or the flow target (the server
problem).  Theorem 8 is why that root-find cannot become a formula: with a
tight boundary, the speeds are roots of polynomials that are not solvable by
radicals.  :mod:`repro.flow.puw` replaces the root-find's answer by the
closed form whenever the configuration has no tight boundary.

The levels also give the root-find its slope.  With ``x_m = v_m - m``, so
that ``h(sigma_m) = x_m * y``, and ``eps(s) = s h'(s) / h(s)`` the elasticity
of ``h`` (``alpha`` for ``P = s**alpha``), a job of a run whose level is a
fixed number (``b + 1`` or ``k``) has ``d log sigma_m / dt = 1 / eps_m``.  A
tight run keeps ``sum w_m / sigma_m`` equal to its gap, so its level moves
with ``v' = -sum u_m / sum (u_m / x_m)``, ``u_m = w_m / (sigma_m eps_m)``,
and its jobs have ``d log sigma_m / dt = (1 + v' / x_m) / eps_m``.  Then
``dE/dt = y * sum u_m (x_m + v')``, and since a run starts at its first
job's release, ``dC_m/dt = -sum_{i=a..m} u_i (1 + v' / x_i)``.  So each sweep
returns the slopes of energy and flow for O(n) more work, and the root-find
is a Newton iteration kept inside a sign bracket (:func:`_newton_root`).

For unequal-work jobs the solver returns the optimum *for the given order*
(release order); the paper makes no optimality claim across orders in that
case and neither do we.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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


def _newton_root(
    g: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    at_hi: tuple[float, float],
    lazy_lo: bool,
) -> float:
    """Root of the increasing function ``g``, bracketed outward from ``[lo, hi]``.

    ``g(t)`` returns its value and a Newton step from ``t``; ``at_hi`` is
    ``g(hi)``.  The low end is evaluated once ``hi`` fails the stopping rule,
    or with ``lazy_lo`` only once a step reaches it.  Each step starts at
    the bracket end with the smaller residual.  A step that leaves the
    bracket is replaced by a bisection, and one shorter than the tolerance
    is lengthened to it, so that it crosses the root.  The search stops on
    Brent's rule in :func:`_brent`: the residual or the bracket is
    ``_RTOL`` relative (absolute below 1) small.
    """
    f_hi, s_hi = at_hi
    f_lo = s_lo = None
    for _ in range(_MAX_ITERATIONS):
        width = 2.0 * max(hi - lo, 1.0)
        if f_hi < 0.0:  # the root lies above the bracket
            lo, f_lo, s_lo = hi, f_hi, s_hi
            hi += width
            f_hi, s_hi = g(hi)
            continue
        if f_lo is not None and f_lo > 0.0:  # ... or below it
            hi, f_hi, s_hi = lo, f_lo, s_lo
            lo -= width
            f_lo = s_lo = None
            continue
        if f_lo is None or f_hi <= -f_lo:
            t, f, step = hi, f_hi, s_hi
        else:
            t, f, step = lo, f_lo, s_lo
        delta = 0.5 * _RTOL * max(abs(t), 1.0)
        if abs(f) <= 2.0 * delta or (f_lo is not None and hi - lo < 2.0 * delta):
            return t
        if f_lo is None and not lazy_lo:
            f_lo, s_lo = g(lo)
            continue
        if abs(step) < delta:
            step = math.copysign(delta, -f)
        t += step
        if not lo < t < hi:  # also a nan step
            t = lo if f_lo is None else 0.5 * (lo + hi)
        f, step = g(t)
        if f < 0.0 or t == lo:
            lo, f_lo, s_lo = t, f, step
        else:
            hi, f_hi, s_hi = t, f, step
    raise ConvergenceError(f"root-find did not converge in {_MAX_ITERATIONS} steps")


def _newton_step(value: float, target: float, slope: float, k: float) -> float:
    """Step in ``t`` that moves ``value`` (``V``) onto ``target``.

    ``slope`` is ``d log V / dt``.  The step is Newton's in ``z = exp(k t)``
    rather than in ``t``: for ``P = s**alpha`` a job in a run of fixed level
    has a speed proportional to ``y**(1 / alpha)``, and a tight run of one
    job a fixed speed, so with ``k`` matched to ``V`` the value is affine in
    ``z`` and one step reaches the root unless the configuration changes or
    a tight run holds several jobs.  ``nan`` where the affine model has no
    root.
    """
    try:
        return math.log1p(k * (target - value) / (value * slope)) / k
    except (ValueError, ZeroDivisionError):
        return math.nan


class _Sweep(NamedTuple):
    """The optimum at one ``y``, with the slopes of energy and flow in ``log y``."""

    speeds: np.ndarray
    completions: np.ndarray
    energy: float
    #: ``dE / dt`` and ``dF / dt`` at ``t = log y`` (``F`` the total flow)
    energy_slope: float
    flow_slope: float


class _Chains:
    """Release-ordered chains of jobs (one per processor) under one power function.

    :meth:`solve_at` is one sweep: every level at one ``y``, the schedule
    they give, and the slopes of its energy and flow in ``log y``.
    :meth:`laptop` and :meth:`server` run :func:`_newton_root` over sweeps.
    The laptop search starts at the ``y_hi`` of the uniform speed that
    spends the budget, which is the root, found in one sweep, when no job
    waits for another.
    """

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

    def _chain_runs(
        self, c: int, y: float, speed_at: Callable[[float], float]
    ) -> tuple[list[int], list[float]]:
        """First jobs and levels of chain ``c``'s runs (the pool-adjacent-violators pass)."""
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
        return starts, values

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

    def solve_at(self, y: float) -> _Sweep:
        """Speeds, completion times (instance order), energy and their slopes at ``y``.

        Adjacent runs of equal level (a run capped at ``k`` runs late into the
        next) form one group: its jobs run back to back from its first
        release, and a tight first run sets the whole group's level.  The
        completion-time slope restarts at each group.
        """
        self.sweeps += 1
        speed_at = self._speed_map(y)
        energy_per_work = self.power.energy_per_work
        elasticity = self.power.elasticity
        speeds = np.empty(self.instance.n_jobs)
        completions = np.empty(self.instance.n_jobs)
        energy = energy_slope = flow_slope = 0.0
        for c, jobs in enumerate(self.jobs):
            releases, works = self.releases[c], self.works[c]
            starts, values = self._chain_runs(c, y, speed_at)
            k = len(jobs)
            ends = starts[1:] + [k]
            clock = -math.inf
            i = 0
            while i < len(starts):
                a, v = starts[i], values[i]
                # a group's level is fixed unless its first run ends tight
                tight_end = ends[i] - 1 if v != k and v != ends[i] else -1
                while i + 1 < len(starts) and values[i + 1] == v:
                    i += 1
                # the group adds y * sum u (x + v') to dE/dt and the sum of its
                # dC_m/dt = -sum_{i<=m} u_i (1 + v' / x_i) to dF/dt, where v'
                # (level_slope) is 0 for a fixed level; u_sum and ux_sum are
                # the running sums of u and u / x, prefix and prefix_x theirs
                u_sum = ux_sum = prefix = prefix_x = energy_sum = level_slope = 0.0
                for m in range(a, ends[i]):
                    x = v - m
                    s = speed_at(x)
                    w = works[m]
                    duration = w / s
                    clock = max(clock, releases[m]) + duration
                    j = jobs[m]
                    speeds[j], completions[j] = s, clock
                    energy += w * energy_per_work(s)
                    u = duration / elasticity(s)
                    u_sum += u
                    ux_sum += u / x
                    prefix += u_sum
                    prefix_x += ux_sum
                    energy_sum += u * x
                    if m == tight_end:
                        level_slope = -u_sum / ux_sum
                energy_slope += energy_sum + level_slope * u_sum
                flow_slope -= prefix + level_slope * prefix_x
                i += 1
        return _Sweep(speeds, completions, energy, y * energy_slope, flow_slope)

    def result(self, sweep: _Sweep) -> ConvexFlowResult:
        durations = self.instance.works / sweep.speeds
        return ConvexFlowResult(
            flow=self.flow(sweep.completions),
            energy=sweep.energy,
            durations=durations,
            speeds=sweep.speeds,
            start_times=sweep.completions - durations,
            completion_times=sweep.completions,
            iterations=self.sweeps,
        )

    def last_elasticity(self, sweep: _Sweep) -> float:
        """Elasticity of ``h`` at the last job's speed (``alpha`` for ``P = s**alpha``)."""
        return self.power.elasticity(float(sweep.speeds[self.jobs[0][-1]]))

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
        found: dict[float, _Sweep] = {}

        def excess(t: float) -> tuple[float, float]:
            found[t] = sweep = self.solve_at(math.exp(t))
            energy = sweep.energy
            # Newton in y**(1 - 1/alpha), in which E is affine while no run is tight
            k = 1.0 - 1.0 / self.last_elasticity(sweep)
            step = _newton_step(energy, energy_budget, sweep.energy_slope / energy, k)
            return math.log(energy / energy_budget), step

        # where no job waits for another, every job runs at the uniform speed
        # and y_hi is the root: one sweep.  Else the curve bends between y_hi
        # and the root, and the low end is often nearer.
        t_hi = math.log(y_hi)
        t = _newton_root(excess, math.log(y_hi / self.longest), t_hi, excess(t_hi), False)
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
        found: dict[float, _Sweep] = {}

        def shortfall(t: float) -> tuple[float, float]:
            if t < -700.0:  # y underflows: even the slowest schedule meets it
                raise BudgetError(f"flow target {flow_target:g} never binds")
            found[t] = sweep = self.solve_at(math.exp(t))
            flow = self.flow(sweep.completions)
            if flow > flow_target and sweep.energy > _MAX_ENERGY:
                raise InfeasibleError(
                    f"flow target {flow_target:g} needs more than {_MAX_ENERGY:g} energy"
                )
            # Newton in y**(-1/alpha), in which F is affine while no run is tight
            k = -1.0 / self.last_elasticity(sweep)
            step = _newton_step(flow, flow_target, sweep.flow_slope / flow, k)
            return math.log(flow_target / flow), step

        # first guess: every job at the one speed that meets the target unqueued
        y_guess = self._marginal(self.instance.total_work / flow_target)
        t = math.log(y_guess) if 0.0 < y_guess < math.inf else 0.0
        t = _newton_root(shortfall, t - 1.0, t + 1.0, shortfall(t + 1.0), True)
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
