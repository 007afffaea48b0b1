"""EDF executor oracles: the heap loop and the full-rescan reference.

:func:`execute_profile_edf_heap` is the one-step-per-piece heap loop
:func:`repro.online.executor.execute_profile_edf` ran before it became
event-driven, together with the ``Piece``-based :func:`conserve_work_pieces`
and the ``Piece``-list :class:`~repro.core.schedule.Schedule` constructor;
the event-driven executor must reproduce its schedules bit for bit.
:func:`execute_profile_edf_reference` re-scans the full remaining/release
arrays at every step and anchors both.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from repro.core.job import Instance
from repro.core.power import PowerFunction
from repro.core.schedule import Piece, Schedule
from repro.exceptions import InfeasibleError, InvalidInstanceError

__all__ = [
    "conserve_work_pieces",
    "execute_profile_edf_heap",
    "execute_profile_edf_reference",
]


def execute_profile_edf_heap(
    instance: Instance,
    power: PowerFunction,
    segments: Sequence[tuple[float, float, float]],
    work_tolerance: float = 1e-6,
) -> Schedule:
    """Run EDF on a piecewise-constant speed profile, one heap step per piece."""
    if not instance.has_deadlines():
        raise InvalidInstanceError("profile execution requires deadlines (EDF ordering)")
    segs = sorted(((float(a), float(b), float(s)) for a, b, s in segments), key=lambda x: x[0])
    starts_arr = np.array([s[0] for s in segs])
    ends_arr = np.array([s[1] for s in segs])
    if np.any(starts_arr[1:] < ends_arr[:-1] - 1e-12):
        raise InvalidInstanceError("speed profile segments overlap")

    remaining = instance.works.astype(float).copy()
    releases = instance.releases  # sorted: Instance orders jobs by release
    deadlines = instance.deadlines
    n = instance.n_jobs
    pieces: list[Piece] = []
    # (deadline, index) heap of released jobs; lazily cleaned of finished ones
    pending: list[tuple[float, int]] = []
    next_job = 0  # jobs[next_job:] not yet pushed (release order)

    for seg_start, seg_end, speed in segs:
        t = seg_start
        while next_job < n and releases[next_job] <= t + 1e-12:
            heapq.heappush(pending, (float(deadlines[next_job]), next_job))
            next_job += 1
        guard = 0
        while t < seg_end - 1e-15:
            guard += 1
            if guard > 4 * n + 8:  # pragma: no cover - defensive
                raise InfeasibleError("profile execution did not advance")
            while pending and remaining[pending[0][1]] <= 1e-12:
                heapq.heappop(pending)
            if not pending:
                if next_job >= n:
                    break  # everything released is done; rest of profile idles
                t = min(max(float(releases[next_job]), t), seg_end)
                while next_job < n and releases[next_job] <= t + 1e-12:
                    heapq.heappush(pending, (float(deadlines[next_job]), next_job))
                    next_job += 1
                continue
            if speed <= 0.0:
                break
            job = pending[0][1]
            finish = t + remaining[job] / speed
            next_release = float(releases[next_job]) if next_job < n else math.inf
            end = min(finish, next_release, seg_end)
            if end > t + 1e-15:
                pieces.append(Piece(job=job, processor=0, start=t, end=end, speed=speed))
                remaining[job] -= speed * (end - t)
            t = end
            while next_job < n and releases[next_job] <= t + 1e-12:
                heapq.heappush(pending, (float(deadlines[next_job]), next_job))
                next_job += 1

    _check_leftovers(instance, remaining, work_tolerance)
    return Schedule(instance, power, conserve_work_pieces(instance, pieces))


def execute_profile_edf_reference(
    instance: Instance,
    power: PowerFunction,
    segments: Sequence[tuple[float, float, float]],
    work_tolerance: float = 1e-6,
) -> Schedule:
    """Scalar reference: re-scans the full remaining/release arrays per step."""
    if not instance.has_deadlines():
        raise InvalidInstanceError("profile execution requires deadlines (EDF ordering)")
    segs = sorted(((float(a), float(b), float(s)) for a, b, s in segments), key=lambda x: x[0])
    for (a1, b1, _), (a2, _, _) in zip(segs, segs[1:]):
        if a2 < b1 - 1e-12:
            raise InvalidInstanceError("speed profile segments overlap")

    remaining = instance.works.astype(float).copy()
    releases = instance.releases
    deadlines = instance.deadlines
    pieces: list[Piece] = []

    for seg_start, seg_end, speed in segs:
        t = seg_start
        guard = 0
        while t < seg_end - 1e-15:
            guard += 1
            if guard > 4 * instance.n_jobs + 8:  # pragma: no cover - defensive
                raise InfeasibleError("profile execution did not advance")
            unfinished = np.where(remaining > 1e-12)[0]
            if len(unfinished) == 0:
                break
            available = unfinished[releases[unfinished] <= t + 1e-12]
            if len(available) == 0:
                future = releases[unfinished]
                nxt = float(future.min())
                t = min(max(nxt, t), seg_end)
                continue
            if speed <= 0.0:
                break
            job = int(available[np.argmin(deadlines[available])])
            finish = t + remaining[job] / speed
            future = unfinished[releases[unfinished] > t + 1e-12]
            next_release = float(releases[future].min()) if len(future) else math.inf
            end = min(finish, next_release, seg_end)
            if end > t + 1e-15:
                pieces.append(Piece(job=job, processor=0, start=t, end=end, speed=speed))
                remaining[job] -= speed * (end - t)
            t = end

    _check_leftovers(instance, remaining, work_tolerance)
    return Schedule(instance, power, conserve_work_pieces(instance, pieces))


def _check_leftovers(instance: Instance, remaining: np.ndarray, work_tolerance: float) -> None:
    leftovers = remaining / instance.works
    if np.any(leftovers > work_tolerance):
        bad = [int(i) for i in np.where(leftovers > work_tolerance)[0]]
        raise InfeasibleError(
            f"speed profile finished with unprocessed work on jobs {bad}; "
            "the profile does not complete the instance"
        )


def conserve_work_pieces(instance: Instance, pieces: list[Piece]) -> list[Piece]:
    """Rescale each job's piece speeds so the executed work matches exactly."""
    executed = np.zeros(instance.n_jobs)
    for piece in pieces:
        executed[piece.job] += piece.work
    factors = np.ones(instance.n_jobs)
    nonzero = executed > 0
    factors[nonzero] = instance.works[nonzero] / executed[nonzero]
    return [
        Piece(
            job=p.job,
            processor=p.processor,
            start=p.start,
            end=p.end,
            speed=p.speed * float(factors[p.job]),
        )
        for p in pieces
    ]
