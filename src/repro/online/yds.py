"""Yao-Demers-Shenker (YDS) optimal speed scaling for jobs with deadlines.

The paper's related-work section (and much of the follow-up literature it
cites) is built on the deadline-feasibility model of Yao, Demers and Shenker:
every job has a release time and a deadline, and the goal is the
minimum-energy schedule meeting every deadline.  This package implements YDS
because it serves three roles in the reproduction:

* it is the optimal *offline* baseline against which the online algorithms
  (AVR, OA, BKP -- Section 2 / Section 6 of the paper) are measured,
* with a common deadline equal to a makespan target it solves the makespan
  *server problem*, giving an oracle for Section 3 that shares no code with
  IncMerge (:func:`repro.makespan.baselines.server_energy_via_yds`),
* it is the planning subroutine inside Optimal Available (OA).

Algorithm (classic): repeatedly find the *critical interval* -- the interval
``[t1, t2]`` maximising the intensity ``w(t1, t2) / (t2 - t1)``, where
``w(t1, t2)`` sums the work of jobs whose entire ``[release, deadline]``
window lies inside ``[t1, t2]`` -- run those jobs at exactly that speed in
EDF order, remove them, collapse the interval, and recurse.  The returned
per-job speeds are then realised as an explicit schedule by the event-driven
EDF executor :func:`edf_schedule_at_speeds`, which the tests validate
against every deadline.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.job import Instance
from ..core.kernels import (
    BatchWorkspace,
    max_density_interval,
    max_density_interval_batched,
    pack_instances,
)
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import InfeasibleError, InvalidInstanceError

__all__ = [
    "YDSResult",
    "yds_speeds",
    "yds_speeds_batch",
    "yds_schedule",
    "edf_schedule_at_speeds",
]


@dataclass(frozen=True)
class YDSResult:
    """Per-job speeds chosen by YDS, plus the critical intervals found."""

    speeds: np.ndarray
    critical_intervals: tuple[tuple[float, float, float], ...]  # (t1, t2, intensity)


def _require_deadlines(instance: Instance) -> None:
    if not instance.has_deadlines():
        raise InvalidInstanceError(
            "YDS requires every job to carry a finite deadline; attach them with "
            "Instance.with_deadlines()"
        )


def yds_speeds(instance: Instance) -> YDSResult:
    """Compute the YDS speed of every job (independent of the power function).

    The optimal speeds depend only on the releases, deadlines and works; the
    power function matters only when converting the schedule to energy.

    Each round finds the critical (maximum-density) interval with the
    vectorised prefix-sum kernel
    :func:`repro.core.kernels.max_density_interval` instead of re-enumerating
    the member set of every release/deadline pair; the interval-collapse step
    is a pair of array updates.  Results match the scalar member-set loop
    (``tests/oracles/yds.py``) to floating-point accuracy;
    ``tests/test_kernels.py`` pins the two together.
    """
    _require_deadlines(instance)
    n = instance.n_jobs
    releases = instance.releases
    deadlines = instance.deadlines
    works = instance.works
    alive = np.ones(n, dtype=bool)
    speeds = np.zeros(n)
    intervals: list[tuple[float, float, float]] = []

    while np.any(alive):
        live = np.where(alive)[0]
        found = max_density_interval(releases[live], deadlines[live], works[live])
        if found is None:  # pragma: no cover - defensive
            raise InfeasibleError("YDS failed to find a critical interval")
        t1, t2, intensity, members = found
        intervals.append((t1, t2, intensity))
        removed = live[members]
        speeds[removed] = intensity
        alive[removed] = False
        # collapse [t1, t2]: times past t2 shift left by the interval length,
        # times inside (t1, t2) snap to t1
        length = t2 - t1
        rest = np.where(alive)[0]
        r = releases[rest]
        d = deadlines[rest]
        releases[rest] = np.where(r >= t2, r - length, np.where(r > t1, t1, r))
        deadlines[rest] = np.where(d >= t2, d - length, np.where(d > t1, t1, d))

    return YDSResult(speeds=speeds, critical_intervals=tuple(intervals))


def edf_schedule_at_speeds(
    instance: Instance,
    power: PowerFunction,
    speeds: np.ndarray,
) -> Schedule:
    """Realise per-job speeds as an EDF (earliest-deadline-first) schedule.

    At every instant the released, unfinished job with the earliest deadline
    runs at *its own* assigned speed.  This reconstructs the YDS optimal
    schedule from its speed assignment and is also reused to execute other
    per-job speed assignments (e.g. verify's reconstruction of an answer's
    speeds) under EDF.

    Event-driven: released jobs wait in a ``(deadline, index)`` min-heap
    that is touched only at releases and completions, consecutive pieces of
    one job are merged as they are emitted, and the pieces are kept as
    columns for :meth:`Schedule.from_columns`.  A residual that would finish
    within 1e-15 of the current time (below the clock's resolution at large
    absolute times, or a rounding remnant run at a very high speed) counts
    as done, and so does a residual of at most 1e-12 once its job has run: a
    job whose whole work is that small still gets its piece.
    """
    _require_deadlines(instance)
    speeds = np.asarray(speeds, dtype=float)
    if speeds.shape != (instance.n_jobs,):
        raise InvalidInstanceError("need one speed per job")
    if np.any(speeds <= 0.0) or np.any(~np.isfinite(speeds)):
        raise InvalidInstanceError("speeds must be finite and positive")

    n = instance.n_jobs
    releases = instance.releases.tolist()  # sorted: Instance orders jobs by release
    deadlines = instance.deadlines.tolist()
    remaining = instance.works.tolist()
    ran = [False] * n
    speed_of = speeds.tolist()
    pending: list[tuple[float, int]] = []  # (deadline, index) heap of released jobs
    next_job = 0  # jobs[next_job:] not yet pushed (release order)
    jobs_col: list[int] = []
    starts_col: list[float] = []
    ends_col: list[float] = []
    t = releases[0]
    for _ in range(10 * n * (n + 1) + 10):
        while next_job < n and releases[next_job] <= t + 1e-12:
            heapq.heappush(pending, (deadlines[next_job], next_job))
            next_job += 1
        while pending and ran[pending[0][1]] and remaining[pending[0][1]] <= 1e-12:
            heapq.heappop(pending)
        if not pending:
            if next_job >= n:
                break
            t = releases[next_job]
            continue
        job = pending[0][1]
        speed = speed_of[job]
        finish = t + remaining[job] / speed
        if finish <= t + 1e-15:
            # done: otherwise t creeps by ulps while the work never shrinks
            heapq.heappop(pending)
            continue
        # the piece is not empty: finish > t + 1e-15, and the next release
        # is after t + 1e-12 (every earlier one was pushed above)
        release = releases[next_job] if next_job < n else math.inf
        end = finish if finish < release else release
        # a job keeps its one speed, so only the times decide a merge
        if jobs_col and jobs_col[-1] == job and math.isclose(ends_col[-1], t, abs_tol=1e-12):
            ends_col[-1] = end
        else:
            jobs_col.append(job)
            starts_col.append(t)
            ends_col.append(end)
        remaining[job] -= speed * (end - t)
        ran[job] = True
        t = end
    else:  # pragma: no cover - defensive
        raise InfeasibleError("EDF simulation did not terminate")
    jobs = np.array(jobs_col, dtype=np.intp)
    return Schedule.from_columns(instance, power, jobs, starts_col, ends_col, speeds[jobs])


def yds_schedule(instance: Instance, power: PowerFunction) -> Schedule:
    """The full YDS minimum-energy schedule meeting every deadline."""
    result = yds_speeds(instance)
    return edf_schedule_at_speeds(instance, power, result.speeds)


# ----------------------------------------------------------------------
# structure-of-arrays batched tier
# ----------------------------------------------------------------------

def yds_speeds_batch(instances: Sequence[Instance]) -> np.ndarray:
    """YDS speeds for a whole chunk of instances in lockstep.

    Packs the chunk into padded ``(batch, n)`` arrays and runs every YDS
    round once over all still-active rows via
    :func:`repro.core.kernels.max_density_interval_batched`, so a fleet of
    small instances pays one NumPy dispatch per round instead of one per
    instance per round.  Returns a ``(batch, max_n)`` speed array whose row
    ``b`` equals ``yds_speeds(instances[b]).speeds`` *bitwise* on the first
    ``instances[b].n_jobs`` slots (padding slots are 0); pinned by
    ``tests/test_batched_kernels.py``.
    """
    for instance in instances:
        _require_deadlines(instance)
    batch = pack_instances(instances)
    releases = np.where(batch.mask, batch.releases, np.inf)
    deadlines = np.where(batch.mask, batch.deadlines, np.inf)
    works = np.where(batch.mask, batch.works, 0.0)
    n_rows, width = releases.shape
    ids = np.broadcast_to(np.arange(width), (n_rows, width)).copy()
    rows = np.arange(n_rows)
    speeds = np.zeros((n_rows, width))
    workspace = (
        BatchWorkspace(n_rows, width) if n_rows * width >= 1024 else None
    )
    while len(rows):
        t1, t2, density = max_density_interval_batched(
            releases, deadlines, works, workspace
        )
        live_rows = np.where(density > 0.0)[0]
        if len(live_rows) == 0:
            break
        if len(live_rows) < len(rows):
            rows = rows[live_rows]
            releases = releases[live_rows]
            deadlines = deadlines[live_rows]
            works = works[live_rows]
            ids = ids[live_rows]
            t1 = t1[live_rows]
            t2 = t2[live_rows]
            density = density[live_rows]
        members = (releases >= t1[:, None]) & (deadlines <= t2[:, None])
        mem_r, mem_c = np.nonzero(members)
        speeds[rows[mem_r], ids[mem_r, mem_c]] = density[mem_r]
        # retire the members, then collapse [t1, t2] exactly as the
        # per-instance rounds do
        works[members] = 0.0
        releases[members] = np.inf
        deadlines[members] = np.inf
        lo = t1[:, None]
        hi = t2[:, None]
        length = hi - lo
        releases = np.where(
            releases >= hi, releases - length, np.where(releases > lo, lo, releases)
        )
        deadlines = np.where(
            deadlines >= hi, deadlines - length, np.where(deadlines > lo, lo, deadlines)
        )
        alive = np.isfinite(deadlines)
        live_width = int(alive.sum(axis=1).max()) if len(alive) else 0
        if live_width == 0:
            break
        if live_width < releases.shape[1]:
            # stable-partition live jobs first and shrink the row width so
            # later rounds run on the smallest grid that still fits
            order = np.argsort(~alive, axis=1, kind="stable")
            releases = np.take_along_axis(releases, order, axis=1)[:, :live_width]
            deadlines = np.take_along_axis(deadlines, order, axis=1)[:, :live_width]
            works = np.take_along_axis(works, order, axis=1)[:, :live_width]
            ids = np.take_along_axis(ids, order, axis=1)[:, :live_width]
    return speeds
