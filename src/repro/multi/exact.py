"""Exact multiprocessor makespan by exhaustive assignment search.

Theorem 11 shows the general problem is NP-hard, so exponential-time exact
solvers are the best available certificates.  Two regimes are covered:

* **All jobs released at time zero** (the Theorem 11 / Partition regime): each
  processor runs its load at one constant speed and all processors finish
  together, so for an energy budget ``E`` the optimal makespan for a fixed
  assignment with loads ``W_p`` is

      ``T = (sum_p W_p**alpha / E) ** (1/(alpha-1))``            (power = s**alpha)

  and more generally the ``T`` at which ``sum_p energy(W_p, W_p/T) = E`` (a
  processor that would run below a leakage power's critical speed runs at
  that speed instead and finishes early).
  Minimising ``T`` is therefore exactly minimising ``sum_p W_p**alpha`` -- the
  ``L_alpha`` norm objective the paper points at for the PTAS remark.
* **Arbitrary release times**: every assignment is evaluated with the
  fixed-assignment solver of :mod:`repro.multi.assigned` (per-processor
  server hulls + common finish time).

Both searches prune the symmetric copies obtained by permuting processor
labels (job 0 is pinned to processor 0, and a new processor index may be
opened only in order).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..core.job import Instance
from ..core.power import PowerFunction
from ..core.roots import brentq
from ..exceptions import BudgetError, InfeasibleError, InvalidInstanceError
from .assigned import AssignedMakespanResult, makespan_for_assignment

__all__ = [
    "exact_multiprocessor_makespan",
    "exact_zero_release_makespan",
    "optimal_load_partition",
    "assignment_candidates",
    "makespan_for_loads",
]

_MAX_EXHAUSTIVE_JOBS = 14


def assignment_candidates(n_jobs: int, n_processors: int) -> Iterator[tuple[int, ...]]:
    """Enumerate job->processor maps up to processor relabelling.

    Yields tuples ``a`` with ``a[j]`` the processor of job ``j``; a processor
    index ``k`` may only appear after every index ``< k`` has appeared, which
    removes the ``m!`` label symmetry.
    """
    if n_jobs <= 0 or n_processors <= 0:
        raise InvalidInstanceError("n_jobs and n_processors must be positive")

    def rec(prefix: list[int], used: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n_jobs:
            yield tuple(prefix)
            return
        limit = min(used + 1, n_processors)
        for proc in range(limit):
            prefix.append(proc)
            yield from rec(prefix, max(used, proc + 1))
            prefix.pop()

    yield from rec([], 0)


def makespan_for_loads(
    loads: Sequence[float], power: PowerFunction, energy_budget: float
) -> float:
    """Optimal common finish time for per-processor loads released at time 0.

    For ``power = speed**alpha`` this is the closed form
    ``(sum_p W_p**alpha / E)**(1/(alpha-1))``; otherwise the equation
    ``sum_p energy(W_p, max(W_p/T, s_crit)) = E`` is solved by bracketed root
    finding.  Below a leakage power's critical speed ``s_crit`` energy per
    unit of work rises again, so a processor whose load would run slower
    runs at ``s_crit`` and finishes early; the least energy any finish time
    needs is ``sum_p energy(W_p, s_crit)``, and a smaller budget raises
    :class:`BudgetError`.
    """
    loads = [float(w) for w in loads if w > 0.0]
    if not loads:
        raise InvalidInstanceError("at least one processor must carry positive load")
    if energy_budget <= 0.0:
        raise BudgetError("energy budget must be positive")
    if power.is_polynomial:
        alpha = power.alpha
        return float(
            (sum(w**alpha for w in loads) / energy_budget) ** (1.0 / (alpha - 1.0))
        )
    floor = _critical_speed(power)

    def energy_at(T: float) -> float:
        return sum(power.energy(w, max(w / T, floor)) for w in loads)

    if floor > 0.0:
        # from here on every processor runs at the critical speed
        hi = max(loads) / floor
        least = energy_at(hi)
        if energy_budget < least:
            raise BudgetError(
                f"energy budget {energy_budget:g} is below {least:g}, the least "
                "energy these loads need (every processor at the critical speed)"
            )
    else:
        hi = 1.0
        while energy_at(hi) > energy_budget:
            hi *= 2.0
            if hi > 1e18:
                raise InfeasibleError("could not bracket the common finish time")
    lo = hi / 2.0
    while energy_at(lo) < energy_budget and lo > 1e-18:
        lo /= 2.0
    return brentq(lambda T: energy_at(T) - energy_budget, lo, hi, xtol=1e-14)


def _critical_speed(power: PowerFunction) -> float:
    """The speed below which ``power`` stops saving energy per unit of work (0 if none)."""
    return float(getattr(power, "critical_speed", 0.0))


def optimal_load_partition(
    works: Sequence[float], n_processors: int, alpha: float
) -> tuple[float, tuple[int, ...]]:
    """Minimise ``sum_p (load_p)**alpha`` exactly over all assignments.

    Returns the optimal objective value and the assignment tuple.  This is the
    combinatorial core of the zero-release multiprocessor makespan problem and
    of the Partition reduction.
    """
    works = [float(w) for w in works]
    n = len(works)
    if n > _MAX_EXHAUSTIVE_JOBS:
        raise InfeasibleError(
            f"exact search limited to {_MAX_EXHAUSTIVE_JOBS} jobs, got {n}"
        )
    best_value = math.inf
    best_assignment: tuple[int, ...] | None = None
    for assignment in assignment_candidates(n, n_processors):
        loads = [0.0] * n_processors
        for job, proc in enumerate(assignment):
            loads[proc] += works[job]
        value = sum(load**alpha for load in loads if load > 0.0)
        if value < best_value - 1e-15:
            best_value = value
            best_assignment = assignment
    assert best_assignment is not None
    return float(best_value), best_assignment


def exact_zero_release_makespan(
    instance: Instance,
    power: PowerFunction,
    n_processors: int,
    energy_budget: float,
) -> AssignedMakespanResult:
    """Exact multiprocessor makespan when every job is released at time zero."""
    if not instance.all_released_at_zero():
        raise InvalidInstanceError(
            "exact_zero_release_makespan requires all releases to be zero; use "
            "exact_multiprocessor_makespan for general release times"
        )
    if instance.n_jobs > _MAX_EXHAUSTIVE_JOBS:
        raise InfeasibleError(
            f"exact search limited to {_MAX_EXHAUSTIVE_JOBS} jobs, got {instance.n_jobs}"
        )
    works = instance.works
    best_T = math.inf
    best_assignment: tuple[int, ...] | None = None
    for assignment in assignment_candidates(instance.n_jobs, n_processors):
        loads = [0.0] * n_processors
        for job, proc in enumerate(assignment):
            loads[proc] += works[job]
        T = makespan_for_loads([l for l in loads if l > 0.0], power, energy_budget)
        if T < best_T - 1e-15:
            best_T = T
            best_assignment = assignment
    assert best_assignment is not None
    mapping: dict[int, list[int]] = {}
    for job, proc in enumerate(best_assignment):
        mapping.setdefault(proc, []).append(job)
    # per-job speeds: each processor runs its load at constant speed load / T,
    # or at the critical speed when that is faster (finishing before T)
    speeds = np.empty(instance.n_jobs)
    per_proc_energy: dict[int, float] = {}
    floor = _critical_speed(power)
    for proc, jobs in mapping.items():
        load = float(sum(works[j] for j in jobs))
        speed = max(load / best_T, floor)
        for j in jobs:
            speeds[j] = speed
        per_proc_energy[proc] = power.energy(load, speed)
    return AssignedMakespanResult(
        makespan=float(best_T),
        energy=float(sum(per_proc_energy.values())),
        assignment=mapping,
        speeds=speeds,
        per_processor_energy=per_proc_energy,
    )


def exact_multiprocessor_makespan(
    instance: Instance,
    power: PowerFunction,
    n_processors: int,
    energy_budget: float,
) -> AssignedMakespanResult:
    """Exact multiprocessor makespan for arbitrary release times (exponential search).

    Falls back to the much cheaper closed-form evaluation when every release
    is zero.  Every assignment (up to processor relabelling) is evaluated with
    the fixed-assignment common-finish-time solver; the best result is
    returned.
    """
    if instance.all_released_at_zero():
        return exact_zero_release_makespan(instance, power, n_processors, energy_budget)
    if instance.n_jobs > 10:
        raise InfeasibleError(
            "exact search with general release times is limited to 10 jobs; "
            "use repro.multi.heuristics for larger instances"
        )
    best: AssignedMakespanResult | None = None
    for assignment in assignment_candidates(instance.n_jobs, n_processors):
        mapping: dict[int, list[int]] = {}
        for job, proc in enumerate(assignment):
            mapping.setdefault(proc, []).append(job)
        try:
            result = makespan_for_assignment(instance, power, mapping, energy_budget)
        except InfeasibleError:
            continue
        if best is None or result.makespan < best.makespan - 1e-12:
            best = result
    if best is None:
        raise InfeasibleError("no feasible assignment found (budget too small?)")
    return best
