"""Scheduling metrics and their structural properties.

Section 5 of the paper proves the cyclic-assignment theorem for any metric
that is *symmetric* (invariant under permuting the completion times) and
*non-decreasing* (does not decrease when any completion time increases).
Makespan and total flow have both properties; total weighted flow is
non-decreasing but not symmetric.

This module defines a small metric registry so that multiprocessor code can
check those preconditions programmatically, and provides the metric
evaluation functions shared by algorithms, tests and benchmarks.  Metrics can
be evaluated either from a :class:`~repro.core.schedule.Schedule` or directly
from a vector of completion times (the form the paper's proofs use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..exceptions import InvalidInstanceError
from .job import Instance
from .schedule import Schedule

__all__ = [
    "Metric",
    "MAKESPAN",
    "TOTAL_FLOW",
    "TOTAL_WEIGHTED_FLOW",
    "MAX_FLOW",
    "METRICS",
    "makespan",
    "total_flow",
    "total_weighted_flow",
    "max_flow",
    "evaluate",
]


@dataclass(frozen=True)
class Metric:
    """A scheduling metric together with its structural properties.

    ``from_completions(completions, instance)`` computes the metric value from
    a completion-time vector aligned with the instance's job order.
    """

    name: str
    symmetric: bool
    non_decreasing: bool
    from_completions: Callable[[np.ndarray, Instance], float]

    def of_schedule(self, schedule: Schedule) -> float:
        """Evaluate the metric on a schedule."""
        return self.from_completions(schedule.completion_times, schedule.instance)

    def supports_cyclic_theorem(self) -> bool:
        """Whether Theorem 10 (cyclic assignment optimality) applies to this metric."""
        return self.symmetric and self.non_decreasing

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Metric({self.name!r}, symmetric={self.symmetric}, "
            f"non_decreasing={self.non_decreasing})"
        )


# ----------------------------------------------------------------------
# metric value functions
# ----------------------------------------------------------------------

def _check(completions: np.ndarray, instance: Instance) -> np.ndarray:
    completions = np.asarray(completions, dtype=float)
    if completions.shape != (instance.n_jobs,):
        raise InvalidInstanceError(
            f"completion vector shape {completions.shape} does not match "
            f"{instance.n_jobs} jobs"
        )
    return completions


def makespan(completions: np.ndarray, instance: Instance) -> float:
    """``max_i C_i``."""
    return float(_check(completions, instance).max())


def total_flow(completions: np.ndarray, instance: Instance) -> float:
    """``sum_i (C_i - r_i)``."""
    completions = _check(completions, instance)
    return float(np.sum(completions - instance.releases))


def total_weighted_flow(completions: np.ndarray, instance: Instance) -> float:
    """``sum_i weight_i * (C_i - r_i)`` (non-symmetric example from the paper)."""
    completions = _check(completions, instance)
    return float(np.sum(instance.weights * (completions - instance.releases)))


def max_flow(completions: np.ndarray, instance: Instance) -> float:
    """``max_i (C_i - r_i)``; symmetric only when all releases coincide.

    Registered as non-symmetric because permuting completion times across jobs
    with different release times changes its value.
    """
    completions = _check(completions, instance)
    return float(np.max(completions - instance.releases))


MAKESPAN = Metric("makespan", symmetric=True, non_decreasing=True, from_completions=makespan)
TOTAL_FLOW = Metric("total_flow", symmetric=True, non_decreasing=True, from_completions=total_flow)
TOTAL_WEIGHTED_FLOW = Metric(
    "total_weighted_flow",
    symmetric=False,
    non_decreasing=True,
    from_completions=total_weighted_flow,
)
MAX_FLOW = Metric("max_flow", symmetric=False, non_decreasing=True, from_completions=max_flow)

#: Registry of built-in metrics, keyed by name.
METRICS: Mapping[str, Metric] = {
    m.name: m for m in (MAKESPAN, TOTAL_FLOW, TOTAL_WEIGHTED_FLOW, MAX_FLOW)
}


def evaluate(metric: str | Metric, schedule: Schedule) -> float:
    """Evaluate a metric (by name or object) on a schedule."""
    if isinstance(metric, str):
        try:
            metric = METRICS[metric]
        except KeyError as exc:
            raise InvalidInstanceError(
                f"unknown metric {metric!r}; known metrics: {sorted(METRICS)}"
            ) from exc
    return metric.of_schedule(schedule)
