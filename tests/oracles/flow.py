"""SLSQP oracles for the release-order flow solvers.

The library solves total flow exactly, by the isotonic sweep of
:mod:`repro.flow.convex`.  The generic convex programs it replaced live here,
unchanged, as the independent references ``tests/test_flow_oracle.py`` and
``benchmarks/bench_flow_approximation.py`` compare against:

* :func:`convex_flow_laptop` -- minimise total flow for an energy budget on
  one processor, as one SLSQP program over ``2n`` variables (durations and
  start times);
* :func:`convex_flow_server` -- minimise energy for a flow target, by Brent's
  method over full re-solves of :func:`convex_flow_laptop`;
* :func:`flow_for_assignment` -- the multiprocessor program for a fixed
  job-to-processor assignment, with one shared energy constraint;
* :func:`brent_release_order_flow` -- the library's own sweep under the
  outer root-find it had before its Newton iteration: Brent's method on
  ``log y``, bracketed outward, stopped by the same four-ulp rule.

Import them as ``from oracles.flow import ...`` (``tests/`` is on
``sys.path`` under pytest; the benchmark adds it itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.core.job import Instance
from repro.core.power import PowerFunction
from repro.core.schedule import Schedule
from repro.exceptions import BudgetError, ConvergenceError, InfeasibleError
from repro.flow import convex
from repro.multi.assigned import AssignedFlowResult
from repro.multi.cyclic import assignment_to_subinstances

__all__ = [
    "ConvexFlowResult",
    "brent_release_order_flow",
    "convex_flow_laptop",
    "convex_flow_server",
    "flow_for_assignment",
]


@dataclass(frozen=True)
class ConvexFlowResult:
    """Optimal (to solver tolerance) release-order flow schedule."""

    flow: float
    energy: float
    durations: np.ndarray
    speeds: np.ndarray
    start_times: np.ndarray
    completion_times: np.ndarray
    iterations: int

    def schedule(self, instance: Instance, power: PowerFunction) -> Schedule:
        return Schedule.from_speeds(instance, power, self.speeds)


def _solve(
    instance: Instance,
    power: PowerFunction,
    energy_budget: float,
    tol: float,
    max_iterations: int,
) -> ConvexFlowResult:
    n = instance.n_jobs
    releases = instance.releases
    works = instance.works

    # Scale the duration variables by the uniform-speed durations so that the
    # starting point is the all-ones vector; this keeps SLSQP well conditioned
    # across many orders of magnitude of energy budgets.  Start times are
    # represented as non-negative offsets from the release times.
    uniform_speed = power.speed_for_energy(instance.total_work, energy_budget)
    d_scale = works / uniform_speed

    def split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[:n] * d_scale, x[n:] + releases

    def total_energy(durations: np.ndarray) -> float:
        return float(
            sum(power.energy_for_duration(w, d) for w, d in zip(works, durations))
        )

    # Normalise the objective so SLSQP's absolute ftol is meaningful across
    # budgets spanning many orders of magnitude (the flow itself scales like
    # the durations).
    flow_scale = max(1.0, float(np.sum(d_scale)))

    def objective(x: np.ndarray) -> float:
        d, s = split(x)
        return float(np.sum(s + d - releases)) / flow_scale

    def objective_grad(x: np.ndarray) -> np.ndarray:
        return np.concatenate([d_scale, np.ones(n)]) / flow_scale

    def energy_constraint(x: np.ndarray) -> float:
        d, _ = split(x)
        return (energy_budget - total_energy(d)) / energy_budget

    def energy_constraint_jac(x: np.ndarray) -> np.ndarray:
        d, _ = split(x)
        grad_d = np.array(
            [-power.denergy_dduration(w, di) for w, di in zip(works, d)]
        )
        return np.concatenate([grad_d * d_scale, np.zeros(n)]) / energy_budget

    constraints: list[dict] = [
        {"type": "ineq", "fun": energy_constraint, "jac": energy_constraint_jac}
    ]
    for i in range(1, n):
        a = np.zeros(2 * n)
        a[n + i] = 1.0
        a[n + i - 1] = -1.0
        a[i - 1] = -d_scale[i - 1]
        offset = releases[i] - releases[i - 1]
        constraints.append(
            {
                "type": "ineq",
                "fun": (lambda x, a=a, c=offset: float(a @ x) + c),
                "jac": (lambda x, a=a: a),
            }
        )

    bounds = [(1e-9, None)] * n + [(0.0, None)] * n

    def run(x0: np.ndarray, ftol: float) -> optimize.OptimizeResult:
        return optimize.minimize(
            objective,
            x0,
            jac=objective_grad,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": max_iterations, "ftol": ftol},
        )

    # Initial point: scaled durations of 1 (with a little slack so the energy
    # constraint is strictly satisfied), starts packed as early as possible.
    u0 = np.full(n, 1.001)
    s_offsets = np.empty(n)
    clock = releases[0]
    for i in range(n):
        clock = max(clock, releases[i])
        s_offsets[i] = clock - releases[i]
        clock += u0[i] * d_scale[i]
    x0 = np.concatenate([u0, s_offsets])

    result = run(x0, tol)
    if not result.success:
        # SLSQP can report a spurious line-search failure when started exactly
        # on a constraint boundary; retry from slightly slower schedules and
        # with a relaxed tolerance before giving up.
        for slack, ftol in ((1.05, tol), (1.25, max(tol, 1e-10)), (2.0, max(tol, 1e-9))):
            u_retry = np.full(n, slack)
            x_retry = np.concatenate([u_retry, s_offsets])
            result = run(x_retry, ftol)
            if result.success:
                break
    if not result.success:
        raise ConvergenceError(
            f"SLSQP failed on the convex flow problem: {result.message}"
        )
    d, s = split(np.asarray(result.x, dtype=float))
    # Re-normalise the start times: given durations, the flow-minimal start
    # times are "as early as possible", which removes any solver slack.
    starts = np.empty(n)
    clock = -math.inf
    for i in range(n):
        starts[i] = max(releases[i], clock)
        clock = starts[i] + d[i]
    completions = starts + d
    speeds = works / d
    return ConvexFlowResult(
        flow=float(np.sum(completions - releases)),
        energy=total_energy(d),
        durations=d,
        speeds=speeds,
        start_times=starts,
        completion_times=completions,
        iterations=int(result.nit),
    )


def convex_flow_laptop(
    instance: Instance,
    power: PowerFunction,
    energy_budget: float,
    tol: float = 1e-12,
    max_iterations: int = 1000,
) -> ConvexFlowResult:
    """Minimise total flow subject to an energy budget (release-order schedule)."""
    if energy_budget <= 0.0 or not math.isfinite(energy_budget):
        raise BudgetError(f"energy budget must be finite and > 0, got {energy_budget}")
    return _solve(instance, power, energy_budget, tol, max_iterations)


def convex_flow_server(
    instance: Instance,
    power: PowerFunction,
    flow_target: float,
    tol: float = 1e-10,
    max_iterations: int = 200,
) -> ConvexFlowResult:
    """Minimise energy subject to a total-flow budget (the server problem).

    Implemented as a bisection on the energy budget around the laptop solver:
    the optimal flow is continuous and strictly decreasing in the energy
    budget wherever it exceeds its unconstrained-by-energy infimum, so a
    bracketed root search on ``flow(E) - flow_target`` converges linearly and
    each evaluation is itself an arbitrarily-good approximation.
    """
    minimum_flow = _flow_lower_bound(instance)
    if flow_target <= minimum_flow:
        raise InfeasibleError(
            f"flow target {flow_target:g} is at or below the zero-processing-time "
            f"lower bound {minimum_flow:g}; no finite energy can reach it"
        )

    def flow_at(energy: float) -> float:
        return convex_flow_laptop(instance, power, energy, tol=1e-12).flow

    hi = 1.0
    while flow_at(hi) > flow_target:
        hi *= 4.0
        if hi > 1e12:
            raise InfeasibleError(
                f"flow target {flow_target:g} unreachable even with energy {hi:g}"
            )
    lo = hi / 2.0
    while flow_at(lo) < flow_target:
        lo /= 2.0
        if lo < 1e-9:
            break
    energy = float(
        optimize.brentq(lambda e: flow_at(e) - flow_target, lo, hi, xtol=tol, rtol=1e-12,
                        maxiter=max_iterations)
    )
    return convex_flow_laptop(instance, power, energy, tol=1e-12)


def _flow_lower_bound(instance: Instance) -> float:
    """Total flow if every job ran infinitely fast (still respecting order).

    Jobs queued behind an earlier release still wait, so the bound is the sum
    of ``max(0, previous release - r_i)`` terms -- zero when releases are
    distinct and ordered with gaps.
    """
    completions_lower = np.maximum.accumulate(instance.releases)
    return float(np.sum(completions_lower - instance.releases))


def flow_for_assignment(
    instance: Instance,
    power: PowerFunction,
    assignment: dict[int, list[int]],
    energy_budget: float,
    tol: float = 1e-12,
    max_iterations: int = 2000,
) -> AssignedFlowResult:
    """Minimise total flow for a fixed assignment under a shared energy budget.

    One convex program over all processors: per-job durations and start
    times, precedence constraints along each processor's chain, one shared
    energy constraint.  This is the multiprocessor extension of
    :func:`convex_flow_laptop` and provides the
    arbitrarily-good approximation of Section 5 for any fixed assignment.
    """
    if energy_budget <= 0.0 or not math.isfinite(energy_budget):
        raise BudgetError(f"energy budget must be finite and > 0, got {energy_budget}")
    subs = assignment_to_subinstances(instance, assignment)  # validates the assignment
    n = instance.n_jobs
    releases = instance.releases
    works = instance.works

    uniform_speed = power.speed_for_energy(instance.total_work, energy_budget)
    d_scale = works / uniform_speed
    flow_scale = max(1.0, float(np.sum(d_scale)))

    def split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[:n] * d_scale, x[n:] + releases

    def total_energy(durations: np.ndarray) -> float:
        return float(
            sum(power.energy_for_duration(w, d) for w, d in zip(works, durations))
        )

    def objective(x: np.ndarray) -> float:
        d, s = split(x)
        return float(np.sum(s + d - releases)) / flow_scale

    def objective_grad(x: np.ndarray) -> np.ndarray:
        return np.concatenate([d_scale, np.ones(n)]) / flow_scale

    def energy_constraint(x: np.ndarray) -> float:
        d, _ = split(x)
        return (energy_budget - total_energy(d)) / energy_budget

    def energy_constraint_jac(x: np.ndarray) -> np.ndarray:
        d, _ = split(x)
        grad_d = np.array([-power.denergy_dduration(w, di) for w, di in zip(works, d)])
        return np.concatenate([grad_d * d_scale, np.zeros(n)]) / energy_budget

    constraints: list[dict] = [
        {"type": "ineq", "fun": energy_constraint, "jac": energy_constraint_jac}
    ]
    for proc, jobs in assignment.items():
        ordered = sorted(jobs)
        for prev, cur in zip(ordered, ordered[1:]):
            a = np.zeros(2 * n)
            a[n + cur] = 1.0
            a[n + prev] = -1.0
            a[prev] = -d_scale[prev]
            offset = releases[cur] - releases[prev]
            constraints.append(
                {
                    "type": "ineq",
                    "fun": (lambda x, a=a, c=offset: float(a @ x) + c),
                    "jac": (lambda x, a=a: a),
                }
            )

    bounds = [(1e-9, None)] * n + [(0.0, None)] * n

    u0 = np.full(n, 1.001)
    s_offsets = np.zeros(n)
    for proc, jobs in assignment.items():
        clock = -math.inf
        for j in sorted(jobs):
            start = max(clock, releases[j])
            s_offsets[j] = start - releases[j]
            clock = start + u0[j] * d_scale[j]
    x0 = np.concatenate([u0, s_offsets])

    def run(x_init: np.ndarray, ftol: float) -> optimize.OptimizeResult:
        return optimize.minimize(
            objective,
            x_init,
            jac=objective_grad,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": max_iterations, "ftol": ftol},
        )

    result = run(x0, tol)
    if not result.success:
        for slack, ftol in ((1.05, tol), (1.25, max(tol, 1e-10)), (2.0, max(tol, 1e-9))):
            x_retry = np.concatenate([np.full(n, slack), s_offsets])
            result = run(x_retry, ftol)
            if result.success:
                break
    if not result.success:
        raise ConvergenceError(f"SLSQP failed on the multiprocessor flow problem: {result.message}")

    d, s = split(np.asarray(result.x, dtype=float))
    speeds = works / d
    # repack each processor as-early-as-possible to remove solver slack
    completions = np.empty(n)
    for proc, jobs in assignment.items():
        clock = -math.inf
        for j in sorted(jobs):
            start = max(clock, releases[j])
            clock = start + d[j]
            completions[j] = clock
    flow = float(np.sum(completions - releases))
    return AssignedFlowResult(
        flow=flow,
        energy=total_energy(d),
        assignment={p: list(jobs) for p, jobs in assignment.items() if jobs},
        speeds=speeds,
        completion_times=completions,
    )


def _increasing_root(g, lo: float, hi: float) -> float:
    """Root of the increasing function ``g``, bracketed outward from ``[lo, hi]``."""
    g_lo, g_hi = g(lo), g(hi)
    for _ in range(convex._MAX_ITERATIONS):
        if g_lo <= 0.0 <= g_hi:
            return convex._brent(g, lo, hi, g_lo, g_hi)
        step = 2.0 * max(hi - lo, 1.0)
        if g_hi < 0.0:
            lo, g_lo = hi, g_hi
            hi += step
            g_hi = g(hi)
        else:
            hi, g_hi = lo, g_lo
            lo -= step
            g_lo = g(lo)
    raise ConvergenceError(f"could not bracket the root in {convex._MAX_ITERATIONS} steps")


def brent_release_order_flow(
    instance: Instance,
    power: PowerFunction,
    chains,
    energy_budget: float | None = None,
    flow_target: float | None = None,
) -> convex.ConvexFlowResult:
    """:func:`repro.flow.convex.release_order_flow` with Brent's method as
    the outer root-find: the same sweep and bracket starts, no slope."""
    problem = convex._Chains(instance, power, chains)
    found: dict = {}
    if energy_budget is not None:
        energy_budget = float(energy_budget)
        if energy_budget <= 0.0 or not math.isfinite(energy_budget):
            raise BudgetError(f"energy budget must be finite and > 0, got {energy_budget}")
        uniform = power.speed_for_energy(instance.total_work, energy_budget)
        y_hi = problem._marginal(uniform)
        if not 0.0 < y_hi < math.inf:
            raise BudgetError(f"energy budget {energy_budget:g} is out of range")

        def excess(t: float) -> float:
            found[t] = problem.solve_at(math.exp(t))
            return math.log(found[t].energy / energy_budget)

        t = _increasing_root(excess, math.log(y_hi / problem.longest), math.log(y_hi))
        return problem.result(found[t])

    flow_target = float(flow_target)
    if not math.isfinite(flow_target):
        raise BudgetError(f"flow target must be finite, got {flow_target}")
    if flow_target <= 0.0:
        raise InfeasibleError(f"flow target {flow_target:g} is at or below 0")

    def shortfall(t: float) -> float:
        if t < -700.0:
            raise BudgetError(f"flow target {flow_target:g} never binds")
        found[t] = sweep = problem.solve_at(math.exp(t))
        flow = problem.flow(sweep.completions)
        if flow > flow_target and sweep.energy > convex._MAX_ENERGY:
            raise InfeasibleError(f"flow target {flow_target:g} needs too much energy")
        return math.log(flow_target / flow)

    y_guess = problem._marginal(instance.total_work / flow_target)
    t = math.log(y_guess) if 0.0 < y_guess < math.inf else 0.0
    t = _increasing_root(shortfall, t - 1.0, t + 1.0)
    return problem.result(found[t])
