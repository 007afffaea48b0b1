"""Multiprocessor total flow for equal-work jobs (Section 5).

Combines Theorem 10 (cyclic assignment is optimal for total flow, which is
symmetric and non-decreasing) with the fixed-assignment solver of
:mod:`repro.multi.assigned`, exact to rounding.  The paper's observation that
in a non-dominated schedule every processor's *last* job runs at the same
speed -- the one speed that solver root-finds -- is exposed as
:func:`last_job_speeds` so tests can verify it on the solver's output.
"""

from __future__ import annotations

import numpy as np

from ..core.job import Instance
from ..core.metrics import TOTAL_FLOW
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from .assigned import AssignedFlowResult, flow_for_assignment
from .cyclic import check_cyclic_preconditions, cyclic_assignment

__all__ = [
    "multiprocessor_flow_equal_work",
    "multiprocessor_flow_schedule",
    "last_job_speeds",
]


def multiprocessor_flow_equal_work(
    instance: Instance,
    power: PowerFunction,
    n_processors: int,
    energy_budget: float,
) -> AssignedFlowResult:
    """Minimum total flow of equal-work jobs on ``n_processors`` with a shared budget."""
    check_cyclic_preconditions(instance, TOTAL_FLOW)
    assignment = cyclic_assignment(instance.n_jobs, n_processors)
    return flow_for_assignment(instance, power, assignment, energy_budget)


def multiprocessor_flow_schedule(
    instance: Instance,
    power: PowerFunction,
    n_processors: int,
    energy_budget: float,
) -> Schedule:
    """Materialised optimal multiprocessor flow schedule."""
    result = multiprocessor_flow_equal_work(instance, power, n_processors, energy_budget)
    return result.schedule(instance, power)


def last_job_speeds(result: AssignedFlowResult) -> np.ndarray:
    """Speed of the final job on each non-empty processor.

    The paper's structural observation for non-dominated multiprocessor flow
    schedules is that these are all equal; tests assert this on the solver
    output.
    """
    speeds = []
    for proc in sorted(result.assignment):
        jobs = result.assignment[proc]
        if jobs:
            speeds.append(result.speeds[max(jobs)])
    return np.array(speeds)
