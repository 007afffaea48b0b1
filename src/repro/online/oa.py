"""Optimal Available (OA) online speed scaling.

OA is the second online algorithm proposed by Yao, Demers and Shenker and
shown ``alpha**alpha``-competitive by Bansal, Kimbrel and Pruhs (both papers
are cited in the related-work section of the paper under reproduction).  The
policy: whenever a job arrives, recompute the optimal (YDS) schedule for the
*currently remaining* work assuming no further arrivals, and follow it until
the next arrival.

:func:`oa_schedule_incremental` exploits the fact that every residual
instance OA plans over is a *common-release* instance (all residual jobs are
available "now"), for which the YDS plan is just the prefix-density
staircase (:func:`repro.core.kernels.common_release_prefix_speeds`).  The
deadline-sorted residual-work arrays are maintained *incrementally* across
releases — new arrivals are merged in by binary insertion and executed work
is subtracted in place — so each event costs one O(m) hull pass plus a few
vector operations instead of a full YDS solve.

``tests/test_online_equivalence.py`` pins it at 1e-9 relative energy to the
policy simulated literally (a full YDS plan per arrival, realised by EDF:
``tests/oracles/oa.py``) across all deadline workload families.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.job import Instance
from ..core.kernels import common_release_prefix_speeds
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import InfeasibleError, InvalidInstanceError

__all__ = ["oa_schedule_incremental"]


def oa_schedule_incremental(instance: Instance, power: PowerFunction) -> Schedule:
    """Run Optimal Available with the incremental prefix-density planner.

    Maintains the residual jobs in one deadline-sorted structure across
    release events.  At each event the newly released jobs are merged in by
    binary insertion, the plan is recomputed as the upper hull of the
    residual cumulative-work staircase, and the plan is executed (jobs run
    back-to-back in deadline order at their staircase speeds) until the next
    release, subtracting the executed work in place.  Each event's executed
    pieces are kept as columns, and the result is built by
    :meth:`Schedule.from_columns`.
    """
    if not instance.has_deadlines():
        raise InvalidInstanceError("OA requires deadlines on every job")

    releases = instance.releases
    deadlines = instance.deadlines
    events = sorted(set(float(r) for r in releases))
    remaining = instance.works.astype(float).copy()
    # executed pieces, kept as columns
    jobs_col: list[int] = []
    starts_col: list[float] = []
    ends_col: list[float] = []
    speeds_col: list[float] = []

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
        for job, start, end, speed in zip(
            order[:n_exec].tolist(),
            starts[:n_exec].tolist(),
            ends[:n_exec].tolist(),
            speeds[:n_exec].tolist(),
        ):
            end = min(end, next_event)
            if end <= start + 1e-15:
                continue
            remaining[job] -= speed * (end - start)
            jobs_col.append(job)
            starts_col.append(start)
            ends_col.append(end)
            speeds_col.append(speed)

    if np.any(remaining > 1e-6 * instance.works):
        bad = [int(i) for i in np.where(remaining > 1e-6 * instance.works)[0]]
        raise InvalidInstanceError(f"OA left unfinished work on jobs {bad}")
    return Schedule.from_columns(instance, power, jobs_col, starts_col, ends_col, speeds_col)
