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
    """
    procs = {p.processor for p in schedule.pieces}
    if len(procs) != 1:
        raise InvalidScheduleError(
            "structure checks apply to uniprocessor schedules; "
            f"this schedule uses processors {sorted(procs)}"
        )
    instance = schedule.instance
    pieces_by_job: dict[int, list] = {}
    for piece in schedule.pieces:
        pieces_by_job.setdefault(piece.job, []).append(piece)

    # Lemma 2: single speed (and contiguous execution) per job.
    single_speed = True
    for job_pieces in pieces_by_job.values():
        speeds = {round(p.speed, 12) for p in job_pieces}
        if len(speeds) > 1 or len(job_pieces) > 1:
            single_speed = False
            break

    # Lemma 3: release order == execution order.
    ordered = sorted(schedule.pieces, key=lambda p: p.start)
    job_sequence = []
    for piece in ordered:
        if not job_sequence or job_sequence[-1] != piece.job:
            job_sequence.append(piece.job)
    release_order = job_sequence == sorted(job_sequence)

    # Lemma 4: no idle time between r_1 and the last completion.
    no_idle = True
    clock = instance.first_release
    for piece in ordered:
        if piece.start > clock + _EPS:
            no_idle = False
            break
        clock = max(clock, piece.end)

    # Lemmas 5-6: block speeds uniform and non-decreasing.  Only meaningful for
    # single-speed-per-job schedules; otherwise report False conservatively.
    uniform = False
    non_decreasing = False
    if single_speed and release_order:
        speeds = schedule.speeds
        ranges = blocks_from_speeds(instance, speeds)
        uniform = True
        block_speeds = []
        for first, last in ranges:
            segment = speeds[first : last + 1]
            if not np.allclose(segment, segment[0], rtol=rtol, atol=1e-12):
                uniform = False
            block_speeds.append(float(np.mean(segment)))
        non_decreasing = all(
            b2 >= b1 * (1.0 - rtol) for b1, b2 in zip(block_speeds, block_speeds[1:])
        )

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
