"""Optimality-structure checks for uniprocessor makespan schedules (Lemmas 2-6).

:class:`~repro.core.schedule.Schedule` already validates basic feasibility
(release times, non-overlap, work conservation).  This module adds the
*structural* checks that the paper's lemmas impose on optimal uniprocessor
makespan schedules, so tests and callers can assert not only "is this schedule
legal" but "does this schedule look like the optimum must look":

* Lemma 2 -- every job runs at a single speed,
* Lemma 3 -- jobs run in release order,
* Lemma 4 -- no idle time between ``r_1`` and the final completion,
* Lemma 5 -- jobs in the same block share one speed,
* Lemma 6 -- block speeds are non-decreasing.

These functions never *construct* schedules; they only inspect them, which
keeps them usable as independent oracles against any algorithm's output.
The ``optimal-structure`` certificate of :mod:`repro.verify.certificates`
runs them on the schedule reconstructed from a solve result.

:mod:`repro.core` re-exports these names lazily
(``from repro.core import check_optimal_structure``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.blocks import blocks_from_speeds
from ..core.schedule import Schedule
from ..exceptions import InvalidScheduleError

__all__ = ["StructureReport", "check_optimal_structure", "assert_optimal_structure"]

_EPS = 1e-7


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the structural checks of Lemmas 2-6 on a uniprocessor schedule."""

    single_speed_per_job: bool
    release_order: bool
    no_idle: bool
    uniform_speed_per_block: bool
    non_decreasing_block_speeds: bool

    @property
    def satisfies_all(self) -> bool:
        """Whether every structural property holds."""
        return (
            self.single_speed_per_job
            and self.release_order
            and self.no_idle
            and self.uniform_speed_per_block
            and self.non_decreasing_block_speeds
        )


def check_optimal_structure(schedule: Schedule, rtol: float = 1e-6) -> StructureReport:
    """Evaluate the Lemma 2-6 structural properties on a uniprocessor schedule.

    The schedule must use a single processor; multi-processor schedules raise
    :class:`InvalidScheduleError` (apply the check per processor instead).
    Reads :attr:`Schedule.columns`, which are sorted by start time.
    """
    jobs, procs, starts, ends, _ = schedule.columns
    if procs[0] != procs[-1]:
        raise InvalidScheduleError(
            "structure checks apply to uniprocessor schedules; "
            f"this schedule uses processors {np.unique(procs).tolist()}"
        )
    instance = schedule.instance

    # Lemma 2: single speed (and contiguous execution) per job.
    single_speed = bool(np.bincount(jobs).max() == 1)

    # Lemma 3: release order == execution order.
    runs = jobs[np.concatenate(([True], jobs[1:] != jobs[:-1]))]
    release_order = bool(np.all(runs[1:] >= runs[:-1]))

    # Lemma 4: no idle time between r_1 and the last completion.
    clock = np.maximum.accumulate(np.concatenate(([instance.first_release], ends[:-1])))
    no_idle = not np.any(starts > clock + _EPS)

    # Lemmas 5-6: block speeds uniform and non-decreasing.  Only meaningful for
    # single-speed-per-job schedules; otherwise report False conservatively.
    uniform = False
    non_decreasing = False
    if single_speed and release_order:
        speeds = schedule.speeds
        first = np.array([block[0] for block in blocks_from_speeds(instance, speeds)])
        sizes = np.diff(np.append(first, instance.n_jobs))
        leader = np.repeat(speeds[first], sizes)
        # np.isclose(speeds, leader, rtol=rtol, atol=1e-12), every block at once
        uniform = bool(np.all(
            (np.abs(speeds - leader) <= 1e-12 + rtol * np.abs(leader)) & np.isfinite(leader)
            | (speeds == leader)
        ))
        block_speeds = np.array(
            [np.mean(speeds[a : a + k]) for a, k in zip(first.tolist(), sizes.tolist())]
        )
        non_decreasing = bool(np.all(block_speeds[1:] >= block_speeds[:-1] * (1.0 - rtol)))

    return StructureReport(
        single_speed_per_job=single_speed,
        release_order=release_order,
        no_idle=no_idle,
        uniform_speed_per_block=uniform,
        non_decreasing_block_speeds=non_decreasing,
    )


def assert_optimal_structure(schedule: Schedule, rtol: float = 1e-6) -> None:
    """Raise :class:`InvalidScheduleError` unless all Lemma 2-6 properties hold."""
    report = check_optimal_structure(schedule, rtol=rtol)
    if not report.satisfies_all:
        raise InvalidScheduleError(
            "schedule violates the optimal-structure properties of Lemmas 2-6: "
            f"{report}"
        )
