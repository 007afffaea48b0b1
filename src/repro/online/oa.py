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
staircase (:func:`repro.core.kernels.common_release_prefix_speed_list`).
The residual jobs are kept deadline-sorted *incrementally* across releases —
new arrivals are merged in by binary insertion (before residual jobs with an
equal deadline, tied arrivals in release order), finished jobs leave — so
each event costs one O(m) hull pass plus a walk over the jobs that run
before the next release, instead of a full YDS solve.  The event loop runs
on Python floats and lists: its residual sets hold a few dozen jobs, where
each NumPy call's fixed cost exceeds its arithmetic.  Every float operation
is the one the array formulation performs, in the same order (the run times
are summed sequentially, as a 1-D ``np.cumsum`` adds).  A job whose planned
end the next release does not cut is done by plan, where the array
formulation subtracted its executed work; at ordinary times that subtraction
leaves at most rounding size, which the 1e-12 drop test discards, so
schedules are bit for bit those of
``oracles.oa.oa_schedule_incremental_pieces``.  Far from t = 0 the residual
is larger, and only the done-by-plan rule lets OA finish.

``tests/test_online_equivalence.py`` pins it at 1e-9 relative energy to the
policy simulated literally (a full YDS plan per arrival, realised by EDF:
``tests/oracles/oa.py``) across all deadline workload families.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from ..core.job import Instance
from ..core.kernels import common_release_prefix_speed_list
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import InfeasibleError, InvalidInstanceError

__all__ = ["oa_schedule_incremental"]


def oa_schedule_incremental(instance: Instance, power: PowerFunction) -> Schedule:
    """Run Optimal Available with the incremental prefix-density planner.

    Keeps the residual jobs as two deadline-sorted lists (job index and
    deadline) across release events.  At each event:

    * the arrivals, sorted by deadline (ties in release order), are inserted
      by ``bisect_left``; each position is taken on the residual deadlines as
      they stood before the event, plus the number of arrivals already
      inserted, so an arrival goes before a residual job with an equal
      deadline and tied arrivals keep release order;
    * the plan is the upper hull of the residual cumulative-work staircase;
    * the plan runs jobs back to back in deadline order at their hull speeds,
      with a running sum of run times, up to the first job that starts at or
      after ``next_event - 1e-15``;
    * a job whose planned end lies at or before the next release is done by
      plan: its remaining work is set to zero.  Only the piece the next
      release cuts has its executed work subtracted.  Subtracting from a
      finished job would leave a rounding residual, which from t ~ 1e4 on
      exceeds the 1e-12 below which a job counts as done, and the job would
      then stall at its deadline;
    * jobs left with at most 1e-12 work leave the residual lists.

    The executed pieces are kept as columns, and the result is built by
    :meth:`Schedule.from_columns`.
    """
    if not instance.has_deadlines():
        raise InvalidInstanceError("OA requires deadlines on every job")

    releases = instance.releases.tolist()
    deadlines = instance.deadlines.tolist()
    works = instance.works.tolist()
    remaining = list(works)
    events = sorted(set(releases))
    n = len(releases)
    # executed pieces, kept as columns
    jobs_col: list[int] = []
    starts_col: list[float] = []
    ends_col: list[float] = []
    speeds_col: list[float] = []

    # residual jobs in deadline order: original indices and their deadlines.
    # Every job in them has more than 1e-12 work left or has not run yet.
    res_jobs: list[int] = []
    res_deadlines: list[float] = []
    next_new = 0  # jobs[next_new:] have not been released yet (release order)

    for k, now in enumerate(events):
        next_event = events[k + 1] if k + 1 < len(events) else math.inf
        first_new = next_new
        while next_new < n and releases[next_new] <= now + 1e-12:
            next_new += 1
        # arrivals in deadline order, ties in release order
        arrivals = sorted(range(first_new, next_new), key=deadlines.__getitem__)
        # positions on the residual deadlines as they stood before the event;
        # the i-th arrival lands i places later
        positions = [bisect_left(res_deadlines, deadlines[j]) for j in arrivals]
        for i, (position, job) in enumerate(zip(positions, arrivals)):
            res_jobs.insert(position + i, job)
            res_deadlines.insert(position + i, deadlines[job])
        if not res_jobs:
            continue
        if res_deadlines[0] <= now:
            raise InfeasibleError(
                f"job {res_jobs[0]} still has residual work at its deadline "
                f"{res_deadlines[0]:g} (time {now:g}); the instance is infeasible"
            )
        res_works = [remaining[j] for j in res_jobs]
        speeds = common_release_prefix_speed_list(now, res_deadlines, res_works)
        # execute the plan until the next release (same truncation guards as
        # the scalar reference loop)
        cutoff = next_event - 1e-15
        start = now
        planned = 0.0
        n_exec = 0
        for job, work, speed in zip(res_jobs, res_works, speeds):
            if start >= cutoff:
                break
            n_exec += 1
            if speed == 0.0:
                # its work vanished in the hull's cumulative sums: it cannot
                # run, and the final check reports it
                continue
            planned += work / speed
            end = now + planned
            piece_end = min(end, next_event)
            if piece_end > start + 1e-15:
                if end <= next_event:
                    # the piece is not cut: its job is done by plan.  The
                    # subtraction would leave a rounding residual, above the
                    # 1e-12 drop test far from t = 0
                    remaining[job] = 0.0
                else:
                    remaining[job] -= speed * (piece_end - start)
                jobs_col.append(job)
                starts_col.append(start)
                ends_col.append(piece_end)
                speeds_col.append(speed)
            start = end
        # drop the executed jobs left with at most 1e-12 work; no other job's
        # work changed
        kept = [i for i in range(n_exec) if remaining[res_jobs[i]] > 1e-12]
        if len(kept) < n_exec:
            res_jobs[:n_exec] = [res_jobs[i] for i in kept]
            res_deadlines[:n_exec] = [res_deadlines[i] for i in kept]

    bad = [j for j in range(n) if remaining[j] > 1e-6 * works[j]]
    if bad:
        raise InvalidInstanceError(f"OA left unfinished work on jobs {bad}")
    return Schedule.from_columns(instance, power, jobs_col, starts_col, ends_col, speeds_col)
