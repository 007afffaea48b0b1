"""Convex-programming reference solver for uniprocessor makespan.

Once the job order is fixed to release order (Lemma 3), the laptop problem is
a smooth convex program in the per-job durations ``d_i``:

    minimise   C_n
    subject to C_i >= r_i + d_i                (job i cannot start before r_i)
               C_i >= C_{i-1} + d_i            (jobs do not overlap)
               sum_i energy(w_i, d_i) <= E     (energy budget)
               d_i > 0

``energy(w, d) = w * P(w/d) * d / w = P(w/d) * d`` is convex in ``d`` for any
convex ``P`` (perspective function), so a general-purpose NLP solver finds the
global optimum.  This module wraps :func:`scipy.optimize.minimize` (SLSQP)
around that formulation.  It is intentionally *independent* of the block
machinery: agreement between this solver and IncMerge is one of the strongest
correctness checks in the test suite (``tests/test_convex_ref.py``), and the
benchmark ``bench_makespan_baselines`` reports how much slower the generic
solver is.

Import it as ``from oracles.convex_ref import ...`` (``tests/`` is on
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
from repro.exceptions import BudgetError, ConvergenceError

__all__ = ["ConvexMakespanResult", "convex_laptop_makespan"]


@dataclass(frozen=True)
class ConvexMakespanResult:
    """Result of the convex reference solver."""

    makespan: float
    durations: np.ndarray
    speeds: np.ndarray
    energy: float
    iterations: int

    def schedule(self, instance: Instance, power: PowerFunction) -> Schedule:
        return Schedule.from_speeds(instance, power, self.speeds)


def convex_laptop_makespan(
    instance: Instance,
    power: PowerFunction,
    energy_budget: float,
    tol: float = 1e-10,
    max_iterations: int = 500,
) -> ConvexMakespanResult:
    """Solve the laptop makespan problem as a convex program (reference oracle)."""
    if energy_budget <= 0.0 or not math.isfinite(energy_budget):
        raise BudgetError(f"energy budget must be finite and > 0, got {energy_budget}")
    n = instance.n_jobs
    releases = instance.releases
    works = instance.works

    # Decision vector x = [d_1..d_n, s_1..s_n] where s_i is job i's start time.
    # The objective and precedence/release constraints are then *linear*; only
    # the energy budget constraint is nonlinear (and convex, and smooth), which
    # keeps SLSQP well behaved.
    def split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[:n], x[n:]

    def completions_from(durations: np.ndarray) -> np.ndarray:
        out = np.empty(n)
        clock = releases[0]
        for i in range(n):
            clock = max(clock, releases[i]) + durations[i]
            out[i] = clock
        return out

    def total_energy(durations: np.ndarray) -> float:
        return float(
            sum(power.energy_for_duration(w, d) for w, d in zip(works, durations))
        )

    def objective(x: np.ndarray) -> float:
        d, s = split(x)
        return float(s[-1] + d[-1])

    def objective_grad(x: np.ndarray) -> np.ndarray:
        g = np.zeros(2 * n)
        g[n - 1] = 1.0
        g[2 * n - 1] = 1.0
        return g

    def energy_constraint(x: np.ndarray) -> float:
        d, _ = split(x)
        return energy_budget - total_energy(d)

    constraints: list[dict] = [{"type": "ineq", "fun": energy_constraint}]
    # release constraints: s_i - r_i >= 0 (handled via bounds on s_i below)
    # precedence constraints: s_i - s_{i-1} - d_{i-1} >= 0
    for i in range(1, n):
        a = np.zeros(2 * n)
        a[n + i] = 1.0
        a[n + i - 1] = -1.0
        a[i - 1] = -1.0
        constraints.append({"type": "ineq", "fun": (lambda x, a=a: float(a @ x)), "jac": (lambda x, a=a: a)})

    # Initial point: spend the budget uniformly per unit of work, which is
    # always feasible (it may waste time on idle gaps but satisfies the
    # energy constraint with equality).  Give the durations a little slack so
    # the initial point is strictly feasible.
    uniform_speed = power.speed_for_energy(instance.total_work, energy_budget)
    d0 = works / uniform_speed * 1.001
    s0 = np.empty(n)
    clock = releases[0]
    for i in range(n):
        clock = max(clock, releases[i])
        s0[i] = clock
        clock += d0[i]
    x0 = np.concatenate([d0, s0])

    lower_d = works / 1e6  # speeds are capped at 1e6 to keep the problem bounded
    bounds = [(float(lo), None) for lo in lower_d] + [
        (float(r), None) for r in releases
    ]
    result = optimize.minimize(
        objective,
        x0,
        jac=objective_grad,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": max_iterations, "ftol": tol},
    )
    if not result.success:
        raise ConvergenceError(
            f"SLSQP failed to solve the convex makespan reference problem: {result.message}"
        )
    durations, _ = split(np.asarray(result.x, dtype=float))
    speeds = works / durations
    return ConvexMakespanResult(
        makespan=float(completions_from(durations)[-1]),
        durations=durations,
        speeds=speeds,
        energy=total_energy(durations),
        iterations=int(result.nit),
    )
