"""Multiprocessor power-aware scheduling (Section 5 of the paper).

* :mod:`~repro.multi.cyclic` -- Theorem 10's cyclic assignment for equal-work
  jobs under symmetric non-decreasing metrics.
* :mod:`~repro.multi.assigned` -- optimal speeds for a *fixed* assignment:
  common-finish-time makespan, and flow by one isotonic sweep over every
  processor with a common last-job speed.
* :mod:`~repro.multi.makespan_equal` / :mod:`~repro.multi.flow_equal` -- the
  paper's exact equal-work makespan and equal-work flow.
* :mod:`~repro.multi.hardness` -- the Theorem 11 reduction from Partition.
* :mod:`~repro.multi.exact` -- exponential-time exact solvers (certificates).
* :mod:`~repro.multi.heuristics` / :mod:`~repro.multi.ptas` -- LPT/greedy
  heuristics and the PTAS-style scheme for the zero-release special case.
"""

from .assigned import (
    AssignedFlowResult,
    AssignedMakespanResult,
    energy_for_assignment_makespan,
    flow_for_assignment,
    makespan_for_assignment,
)
from .cyclic import assignment_to_subinstances, check_cyclic_preconditions, cyclic_assignment
from .exact import (
    assignment_candidates,
    exact_multiprocessor_makespan,
    exact_zero_release_makespan,
    makespan_for_loads,
    optimal_load_partition,
)
from .flow_equal import (
    last_job_speeds,
    multiprocessor_flow_equal_work,
    multiprocessor_flow_schedule,
)
from .hardness import (
    PartitionReduction,
    decide_partition_via_scheduling,
    has_perfect_partition_dp,
    partition_from_schedule,
    partition_to_scheduling,
)
from .heuristics import (
    greedy_release_assignment,
    heuristic_multiprocessor_makespan,
    lpt_assignment,
)
from .makespan_equal import (
    multiprocessor_energy_for_makespan_equal_work,
    multiprocessor_makespan_equal_work,
    multiprocessor_makespan_schedule,
)
from .ptas import PTASResult, ptas_zero_release_makespan

__all__ = [
    "AssignedFlowResult",
    "AssignedMakespanResult",
    "energy_for_assignment_makespan",
    "flow_for_assignment",
    "makespan_for_assignment",
    "assignment_to_subinstances",
    "check_cyclic_preconditions",
    "cyclic_assignment",
    "assignment_candidates",
    "exact_multiprocessor_makespan",
    "exact_zero_release_makespan",
    "makespan_for_loads",
    "optimal_load_partition",
    "last_job_speeds",
    "multiprocessor_flow_equal_work",
    "multiprocessor_flow_schedule",
    "PartitionReduction",
    "decide_partition_via_scheduling",
    "has_perfect_partition_dp",
    "partition_from_schedule",
    "partition_to_scheduling",
    "greedy_release_assignment",
    "heuristic_multiprocessor_makespan",
    "lpt_assignment",
    "multiprocessor_energy_for_makespan_equal_work",
    "multiprocessor_makespan_equal_work",
    "multiprocessor_makespan_schedule",
    "PTASResult",
    "ptas_zero_release_makespan",
]
