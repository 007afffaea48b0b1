"""Per-job-speed EDF oracle: the full-rescan loop and its piece merge.

:func:`edf_schedule_at_speeds_scan` is the loop
:func:`repro.online.yds.edf_schedule_at_speeds` ran before it became
event-driven: one ``np.where`` scan of the remaining/release arrays per step,
one :class:`~repro.core.schedule.Piece` per step, merged afterwards by
:func:`merge_adjacent` and handed to the ``Piece``-list
:class:`~repro.core.schedule.Schedule` constructor.  The event-driven
executor must reproduce its schedules bit for bit (where the loop
terminates: it raises when a residual's finish time rounds to the current
time, which the executor resolves).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.job import Instance
from repro.core.power import PowerFunction
from repro.core.schedule import Piece, Schedule
from repro.exceptions import InfeasibleError, InvalidInstanceError

__all__ = ["edf_schedule_at_speeds_scan", "merge_adjacent"]


def edf_schedule_at_speeds_scan(
    instance: Instance,
    power: PowerFunction,
    speeds: np.ndarray,
) -> Schedule:
    """Realise per-job speeds as an EDF schedule, rescanning every step."""
    if not instance.has_deadlines():
        raise InvalidInstanceError(
            "YDS requires every job to carry a finite deadline; attach them with "
            "Instance.with_deadlines()"
        )
    speeds = np.asarray(speeds, dtype=float)
    if speeds.shape != (instance.n_jobs,):
        raise InvalidInstanceError("need one speed per job")
    if np.any(speeds <= 0.0) or np.any(~np.isfinite(speeds)):
        raise InvalidInstanceError("speeds must be finite and positive")

    remaining = instance.works.astype(float).copy()
    releases = instance.releases
    deadlines = instance.deadlines
    pieces: list[Piece] = []
    t = float(releases.min())
    # event-driven simulation: the state changes only at releases and
    # completions, so we can jump between those.
    for _ in range(10 * instance.n_jobs * (instance.n_jobs + 1) + 10):
        unfinished = np.where(remaining > 1e-12)[0]
        if len(unfinished) == 0:
            break
        available = unfinished[releases[unfinished] <= t + 1e-12]
        if len(available) == 0:
            t = float(releases[unfinished].min())
            continue
        job = int(available[np.argmin(deadlines[available])])
        speed = float(speeds[job])
        finish_time = t + remaining[job] / speed
        future = unfinished[releases[unfinished] > t + 1e-12]
        next_release = float(releases[future].min()) if len(future) else math.inf
        end = min(finish_time, next_release)
        if end > t + 1e-15:
            pieces.append(Piece(job=job, processor=0, start=t, end=end, speed=speed))
            remaining[job] -= speed * (end - t)
        t = end
    else:  # pragma: no cover - defensive
        raise InfeasibleError("EDF simulation did not terminate")
    return Schedule(instance, power, merge_adjacent(pieces))


def merge_adjacent(pieces: list[Piece]) -> list[Piece]:
    """Merge consecutive pieces of the same job at the same speed."""
    merged: list[Piece] = []
    for piece in pieces:
        if (
            merged
            and merged[-1].job == piece.job
            and math.isclose(merged[-1].end, piece.start, abs_tol=1e-12)
            and math.isclose(merged[-1].speed, piece.speed, rel_tol=1e-12)
        ):
            merged[-1] = Piece(
                job=piece.job,
                processor=piece.processor,
                start=merged[-1].start,
                end=piece.end,
                speed=piece.speed,
            )
        else:
            merged.append(piece)
    return merged
