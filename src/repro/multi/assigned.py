"""Multiprocessor scheduling with a *fixed* job-to-processor assignment.

Section 5 observes that once the assignment is known, "slight modifications of
IncMerge and the total flow algorithm of Pruhs et al. can solve multiprocessor
problems".  The key structural facts (both proved by convexity exchange
arguments in the paper) are:

* **Makespan**: in a non-dominated schedule every processor finishes its last
  job at the same time ``T``; otherwise energy could be moved from a processor
  that finishes early to the last-finishing one.  The minimum energy for a
  common finish time ``T`` is the sum of the per-processor server-problem
  energies, each of which comes from the uniprocessor frontier.  Solving
  ``sum_p E_p(T) = E`` for ``T`` (the total is continuous and strictly
  decreasing in ``T``) gives the optimal makespan for an energy budget.
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
from ..core.pareto import TradeoffCurve
from ..core.power import PowerFunction
from ..core.roots import brentq
from ..core.schedule import Schedule
from ..exceptions import BudgetError, InfeasibleError
from ..flow.convex import release_order_flow
from ..makespan.frontier import makespan_frontier
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
    frontiers: dict[int, TradeoffCurve] | None = None,
) -> float:
    """Minimum total energy for all processors to finish by ``makespan_target``."""
    subs = assignment_to_subinstances(instance, assignment)
    if frontiers is None:
        frontiers = {p: makespan_frontier(sub, power) for p, sub in subs.items()}
    total = 0.0
    for proc, sub in subs.items():
        if makespan_target <= sub.last_release:
            raise InfeasibleError(
                f"processor {proc} has a job released at {sub.last_release:g}, after "
                f"the makespan target {makespan_target:g}"
            )
        total += frontiers[proc].energy_for_value(float(makespan_target))
    return float(total)


def makespan_for_assignment(
    instance: Instance,
    power: PowerFunction,
    assignment: dict[int, list[int]],
    energy_budget: float,
    tol: float = 1e-11,
) -> AssignedMakespanResult:
    """Optimal makespan for a fixed assignment and shared energy budget.

    Solves ``sum_p E_p(T) = energy_budget`` for the common finish time ``T``
    by bracketed root finding on the (strictly decreasing, continuous) total
    energy, then recovers each processor's schedule from its own frontier /
    IncMerge solution at its share of the energy.
    """
    if energy_budget <= 0.0 or not math.isfinite(energy_budget):
        raise BudgetError(f"energy budget must be finite and > 0, got {energy_budget}")
    subs = assignment_to_subinstances(instance, assignment)
    frontiers = {p: makespan_frontier(sub, power) for p, sub in subs.items()}

    last_release = max(sub.last_release for sub in subs.values())

    def total_energy(T: float) -> float:
        return energy_for_assignment_makespan(
            instance, power, assignment, T, frontiers=frontiers
        )

    # bracket the makespan: lower bound just above the last release, upper
    # bound grown until the energy needed drops below the budget.
    lo = last_release + 1e-9 * max(1.0, abs(last_release)) + 1e-12
    hi = max(last_release + 1.0, 2.0 * last_release + 1.0)
    while total_energy(hi) > energy_budget:
        hi = last_release + (hi - last_release) * 2.0
        if hi > 1e15:
            raise InfeasibleError("could not bracket the optimal makespan (budget too small?)")
    # ensure lo is genuinely infeasible (needs more energy than the budget);
    # if even lo is affordable the optimum is essentially the last release.
    tries = 0
    while total_energy(lo) < energy_budget and tries < 60:
        lo = last_release + (lo - last_release) / 4.0
        tries += 1
    makespan = brentq(lambda T: total_energy(T) - energy_budget, lo, hi, xtol=tol, rtol=1e-13)

    # recover the per-job speeds: each processor solves its server problem at T
    from ..makespan.incmerge import incmerge  # local import to avoid cycles

    speeds = np.empty(instance.n_jobs)
    per_proc_energy: dict[int, float] = {}
    for proc, sub in subs.items():
        energy_p = frontiers[proc].energy_for_value(makespan)
        per_proc_energy[proc] = energy_p
        result = incmerge(sub, power, energy_p)
        # map the sub-instance's job order back to original indices
        original_indices = sorted(assignment[proc])
        for local_index, original in enumerate(original_indices):
            speeds[original] = result.speeds[local_index]
    total = float(sum(per_proc_energy.values()))
    return AssignedMakespanResult(
        makespan=makespan,
        energy=total,
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
    that common speed, finds every other speed from Theorem 1, and
    root-finds the common speed that spends the budget.  This is the
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
