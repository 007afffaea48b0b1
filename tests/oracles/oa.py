"""OA oracle: the policy simulated literally, one full YDS plan per arrival.

:func:`oa_schedule` plans each residual instance with
:func:`repro.online.yds.yds_speeds`, realises the plan with the rescanning
EDF loop :func:`oracles.edf.edf_schedule_at_speeds_scan` and executes it up
to the next release.  Re-running the general critical-interval YDS per event
makes it roughly cubic in the number of jobs;
:func:`repro.online.oa.oa_schedule_incremental` is pinned to it at 1e-9
relative energy by ``tests/test_online_equivalence.py``, and bit for bit to
:func:`oa_schedule_incremental_pieces`, its own loop as it was when it still
built one :class:`~repro.core.schedule.Piece` per executed step.
"""

from __future__ import annotations

import math

import numpy as np

from oracles.edf import edf_schedule_at_speeds_scan
from repro.core.job import Instance, Job
from repro.core.kernels import common_release_prefix_speeds
from repro.core.power import PowerFunction
from repro.core.schedule import Piece, Schedule
from repro.exceptions import InfeasibleError, InvalidInstanceError
from repro.online.yds import yds_speeds

__all__ = ["oa_schedule", "oa_schedule_incremental_pieces"]


def oa_schedule(instance: Instance, power: PowerFunction) -> Schedule:
    """Run the Optimal Available policy and return the resulting schedule."""
    if not instance.has_deadlines():
        raise InvalidInstanceError("OA requires deadlines on every job")

    releases = instance.releases
    events = sorted(set(float(r) for r in releases))
    remaining = instance.works.astype(float).copy()
    pieces: list[Piece] = []

    for k, now in enumerate(events):
        next_event = events[k + 1] if k + 1 < len(events) else math.inf
        # Build the residual instance: jobs released by `now` with unfinished
        # work, treated as released at `now` (their original release is in the
        # past), keeping their deadlines.
        active = [
            j
            for j in range(instance.n_jobs)
            if releases[j] <= now + 1e-12 and remaining[j] > 1e-12
        ]
        if not active:
            continue
        residual_jobs = [
            Job(
                index=i,
                release=now,
                work=float(remaining[j]),
                deadline=float(instance.deadlines[j]),
            )
            for i, j in enumerate(active)
        ]
        residual = Instance(residual_jobs, name="oa-residual")
        plan_speeds = yds_speeds(residual).speeds
        plan = edf_schedule_at_speeds_scan(residual, power, plan_speeds)
        # execute the plan until the next release
        for piece in sorted(plan.pieces, key=lambda p: p.start):
            if piece.start >= next_event - 1e-15:
                break
            end = min(piece.end, next_event)
            if end <= piece.start + 1e-15:
                continue
            original_job = active[piece.job]
            done = piece.speed * (end - piece.start)
            remaining[original_job] -= done
            pieces.append(
                Piece(
                    job=original_job,
                    processor=0,
                    start=piece.start,
                    end=end,
                    speed=piece.speed,
                )
            )

    if np.any(remaining > 1e-6 * instance.works):
        # cannot happen for feasible instances: after the last release the plan
        # runs to completion unless a deadline has already been violated.
        bad = [int(i) for i in np.where(remaining > 1e-6 * instance.works)[0]]
        raise InvalidInstanceError(f"OA left unfinished work on jobs {bad}")
    return Schedule(instance, power, pieces)


def oa_schedule_incremental_pieces(instance: Instance, power: PowerFunction) -> Schedule:
    """Incremental OA building one ``Piece`` per executed plan step.

    :func:`repro.online.oa.oa_schedule_incremental` as it was before it kept
    its executed pieces as columns; the columnar engine must reproduce its
    schedules bit for bit.
    """
    if not instance.has_deadlines():
        raise InvalidInstanceError("OA requires deadlines on every job")

    releases = instance.releases
    deadlines = instance.deadlines
    events = sorted(set(float(r) for r in releases))
    remaining = instance.works.astype(float).copy()
    pieces: list[Piece] = []

    # residual structure: original job indices sorted by deadline; jobs enter
    # at their release event and leave (lazily) once their work is exhausted.
    order = np.empty(0, dtype=np.intp)
    next_new = 0  # jobs[next_new:] have not been released yet (release order)
    n = instance.n_jobs

    for k, now in enumerate(events):
        next_event = events[k + 1] if k + 1 < len(events) else math.inf
        # merge newly released jobs into the deadline-sorted order
        first_new = next_new
        while next_new < n and releases[next_new] <= now + 1e-12:
            next_new += 1
        if next_new > first_new:
            new_jobs = np.arange(first_new, next_new, dtype=np.intp)
            # sort the arriving batch by deadline first: searchsorted positions
            # only interleave against the existing order, they do not order
            # same-position (same-event) arrivals among themselves
            new_jobs = new_jobs[np.argsort(deadlines[new_jobs], kind="stable")]
            positions = np.searchsorted(
                deadlines[order], deadlines[new_jobs], side="left"
            )
            order = np.insert(order, positions, new_jobs)
        # drop exhausted jobs (same residual-work threshold as the reference)
        order = order[remaining[order] > 1e-12]
        if len(order) == 0:
            continue
        res_deadlines = deadlines[order]
        if res_deadlines[0] <= now:
            raise InfeasibleError(
                f"job {int(order[0])} still has residual work at its deadline "
                f"{res_deadlines[0]:g} (time {now:g}); the instance is infeasible"
            )
        res_works = remaining[order]
        speeds = common_release_prefix_speeds(now, res_deadlines, res_works)
        # the plan runs jobs back-to-back in deadline order from `now`
        ends = now + np.cumsum(res_works / speeds)
        starts = np.empty_like(ends)
        starts[0] = now
        starts[1:] = ends[:-1]
        # execute the plan until the next release (same truncation guards as
        # the scalar reference loop)
        n_exec = int(np.searchsorted(starts, next_event - 1e-15, side="left"))
        for i in range(n_exec):
            end = min(float(ends[i]), next_event)
            start = float(starts[i])
            if end <= start + 1e-15:
                continue
            job = int(order[i])
            speed = float(speeds[i])
            remaining[job] -= speed * (end - start)
            pieces.append(
                Piece(job=job, processor=0, start=start, end=end, speed=speed)
            )

    if np.any(remaining > 1e-6 * instance.works):
        bad = [int(i) for i in np.where(remaining > 1e-6 * instance.works)[0]]
        raise InvalidInstanceError(f"OA left unfinished work on jobs {bad}")
    return Schedule(instance, power, pieces)
