"""Multiprocessor scheduling with a *fixed* job-to-processor assignment.

Section 5 observes that once the assignment is known, "slight modifications of
IncMerge and the total flow algorithm of Pruhs et al. can solve multiprocessor
problems".  The key structural facts (both proved by convexity exchange
arguments in the paper) are:

* **Makespan**: in a non-dominated schedule every processor finishes its last
  job at the same time ``T``; otherwise energy could be moved from a processor
  that finishes early to the last-finishing one.  The minimum energy for a
  common finish time ``T`` is the sum of the per-processor server-problem
  energies, each a closed form over one upper hull of the processor's
  windows to ``T`` (time reversal, :mod:`repro.makespan.server`).  Solving
  ``sum_p E_p(T) = E`` for ``T`` (the total is continuous and strictly
  decreasing in ``T``) is then the one numerical step of the optimal
  makespan for an energy budget.
* **Total flow**: every processor's *last* job runs at the same speed; with
  per-processor job orders fixed, that one speed and Theorem 1 determine
  every other speed, so one root-find on it solves all processors at once.

Both solvers work for arbitrary (not just equal-work) jobs -- it is finding
the *assignment* that is NP-hard in general (Theorem 11).  The equal-work
front ends in :mod:`repro.multi.makespan_equal` and
:mod:`repro.multi.flow_equal` pair these solvers with the cyclic assignment of
Theorem 10; the heuristics and exact solvers pair them with other assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.job import Instance
from ..core.kernels import energy_eval
from ..core.power import PowerFunction
from ..core.roots import brentq
from ..core.schedule import Schedule
from ..exceptions import BudgetError, InfeasibleError
from ..flow.convex import release_order_flow
from ..makespan.server import minimum_energy_for_makespan, speeds_for_windows
from .cyclic import assignment_to_subinstances

__all__ = [
    "AssignedMakespanResult",
    "AssignedFlowResult",
    "makespan_for_assignment",
    "energy_for_assignment_makespan",
    "flow_for_assignment",
]


@dataclass(frozen=True)
class AssignedMakespanResult:
    """Optimal makespan under an energy budget for a fixed assignment."""

    makespan: float
    energy: float
    assignment: dict[int, list[int]]
    speeds: np.ndarray
    per_processor_energy: dict[int, float]

    def schedule(self, instance: Instance, power: PowerFunction) -> Schedule:
        return Schedule.from_processor_speeds(
            instance, power, self.assignment, self.speeds,
            n_processors=max(self.assignment) + 1,
        )


@dataclass(frozen=True)
class AssignedFlowResult:
    """Optimal total flow under an energy budget for a fixed assignment."""

    flow: float
    energy: float
    assignment: dict[int, list[int]]
    speeds: np.ndarray
    completion_times: np.ndarray

    def schedule(self, instance: Instance, power: PowerFunction) -> Schedule:
        return Schedule.from_processor_speeds(
            instance, power, self.assignment, self.speeds,
            n_processors=max(self.assignment) + 1,
        )


# ----------------------------------------------------------------------
# makespan
# ----------------------------------------------------------------------

def energy_for_assignment_makespan(
    instance: Instance,
    power: PowerFunction,
    assignment: dict[int, list[int]],
    makespan_target: float,
) -> float:
    """Minimum total energy for all processors to finish by ``makespan_target``."""
    total = 0.0
    for proc, sub in assignment_to_subinstances(instance, assignment).items():
        if makespan_target <= sub.last_release:
            raise InfeasibleError(
                f"processor {proc} has a job released at {sub.last_release:g}, after "
                f"the makespan target {makespan_target:g}"
            )
        total += minimum_energy_for_makespan(sub, power, makespan_target)
    return float(total)


def makespan_for_assignment(
    instance: Instance,
    power: PowerFunction,
    assignment: dict[int, list[int]],
    energy_budget: float,
) -> AssignedMakespanResult:
    """Optimal makespan for a fixed assignment and shared energy budget.

    Every processor finishes at the common time ``T``, and each processor's
    least energy for ``T`` is one hull pass over its jobs' windows to ``T``
    (:func:`repro.makespan.server.speeds_for_windows`).  So the only
    numerical step is the root-find of ``sum_p E_p(T) = energy_budget`` (the
    total is continuous and strictly decreasing).  It runs on the window
    ``u = T - r_last`` after the last release, where processor ``p``'s
    windows are ``u + (r_last - r_j)``: the energy and the tolerances then
    scale with the instance's windows, not with its absolute times.
    """
    if energy_budget <= 0.0 or not math.isfinite(energy_budget):
        raise BudgetError(f"energy budget must be finite and > 0, got {energy_budget}")
    subs = assignment_to_subinstances(instance, assignment)
    last_release = instance.last_release
    works = [sub.works for sub in subs.values()]
    lags = [last_release - sub.releases for sub in subs.values()]

    def solve_at(u: float) -> tuple[list[np.ndarray], list[float]]:
        speeds = [speeds_for_windows(u + lag, w) for lag, w in zip(lags, works)]
        energies = [float(np.sum(energy_eval(power, w, s))) for w, s in zip(works, speeds)]
        return speeds, energies

    def excess(u: float) -> float:
        return sum(solve_at(u)[1]) - energy_budget

    # bracket the root by doubling from the time the work takes at unit
    # speed; the total energy is infinite at u -> 0 and vanishes as u -> inf,
    # so both searches stop within the float range
    lo = hi = instance.total_work
    if excess(lo) > 0.0:
        hi = 2.0 * lo
        while excess(hi) > 0.0:
            lo, hi = hi, 2.0 * hi
    else:
        lo = 0.5 * hi
        while excess(lo) <= 0.0:
            lo, hi = 0.5 * lo, lo
    u = brentq(excess, lo, hi, xtol=1e-15 * lo, rtol=1e-15)

    per_proc_speeds, energies = solve_at(u)
    speeds = np.empty(instance.n_jobs)
    for proc, proc_speeds in zip(subs, per_proc_speeds):
        speeds[sorted(assignment[proc])] = proc_speeds
    per_proc_energy = dict(zip(subs, energies))
    return AssignedMakespanResult(
        makespan=last_release + u,
        energy=float(sum(energies)),
        assignment={p: list(jobs) for p, jobs in assignment.items() if jobs},
        speeds=speeds,
        per_processor_energy=per_proc_energy,
    )


# ----------------------------------------------------------------------
# total flow
# ----------------------------------------------------------------------

def flow_for_assignment(
    instance: Instance,
    power: PowerFunction,
    assignment: dict[int, list[int]],
    energy_budget: float,
) -> AssignedFlowResult:
    """Minimise total flow for a fixed assignment under a shared energy budget.

    Each processor runs its jobs in release order.  At the optimum every
    processor's last job runs at the same speed (Section 5), so the isotonic
    sweep of :mod:`repro.flow.convex` solves all processors at once: it fixes
    that common speed, finds every other speed from Theorem 1, and a
    safeguarded Newton iteration on the common speed's marginal energy, with
    the slope read off every processor's levels, meets the budget.  This is the
    arbitrarily-good algorithm of Section 5 for any fixed assignment, exact
    to rounding.
    """
    assignment_to_subinstances(instance, assignment)  # validates the assignment
    result = release_order_flow(
        instance, power, list(assignment.values()), energy_budget=energy_budget
    )
    return AssignedFlowResult(
        flow=result.flow,
        energy=result.energy,
        assignment={p: list(jobs) for p, jobs in assignment.items() if jobs},
        speeds=result.speeds,
        completion_times=result.completion_times,
    )
