"""EDF execution of a processor speed profile.

The online algorithms AVR and BKP decide the *processor speed* as a function
of time and process pending jobs in earliest-deadline-first order at that
speed.  This module turns a piecewise-constant speed profile plus an instance
into an explicit :class:`~repro.core.schedule.Schedule`, by an event-driven
simulation whose events are segment boundaries, job releases and job
completions.

Feasibility is not assumed: if the profile does not provide enough speed the
simulation simply produces a schedule that misses deadlines (or leaves work
unfinished, which raises), and the caller/test decides how to treat that.
This keeps the executor honest as an *observer* of whatever policy produced
the profile.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from ..core.job import Instance
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import InfeasibleError, InvalidInstanceError

__all__ = ["execute_profile_edf"]

#: Whole segments the scalar check consumes before it hands the rest of the
#: stretch to a vectorised run: a run costs a fixed ~20 NumPy calls, more
#: than stepping a few segments in Python.
_LOOKAHEAD = 8

#: Segments a vectorised run looks ahead at first; the window doubles while
#: the top job keeps covering every segment in it.
_RUN_WINDOW = 64


def execute_profile_edf(
    instance: Instance,
    power: PowerFunction,
    segments: Sequence[tuple[float, float, float]] | np.ndarray,
    work_tolerance: float = 1e-6,
) -> Schedule:
    """Run EDF on a piecewise-constant processor speed profile.

    Parameters
    ----------
    segments:
        ``(start, end, speed)`` rows -- a sequence of triples or an
        ``(S, 3)`` array -- non-overlapping, in any order.  Speed zero
        segments (or gaps between segments) are idle time.
    work_tolerance:
        Relative tolerance on leftover work: if any job has more than this
        fraction of its work unfinished when the profile ends, the profile was
        infeasible and :class:`InfeasibleError` is raised.

    Released pending jobs live in a ``(deadline, index)`` min-heap, and the
    heap logic runs in Python only at EDF events: releases, completions and
    segments the top job does not cover whole.  A segment the top job covers
    whole (or an idle one while it waits) is stepped by a scalar check of
    the loop's own conditions; once that check has stepped eight in a row,
    the rest of the stretch is consumed by one ``np.subtract.accumulate``
    over the segments' work -- the loop's own float operations, in order.
    Profiles whose segments end at events (AVR) thus keep the scalar step,
    and finely sliced ones (BKP) run in a few NumPy passes.  A stretch with
    nothing pending is skipped up to the next release.  Pieces are kept as
    columns and the result is built by :meth:`Schedule.from_columns`.  A
    residual whose finish time rounds to the current time (below the clock's
    resolution at large absolute times) counts as done, and so does a
    residual of at most 1e-12 once its job has run: a job whose whole work is
    that small still gets its piece.
    """
    if not instance.has_deadlines():
        raise InvalidInstanceError("profile execution requires deadlines (EDF ordering)")
    table = np.asarray(segments, dtype=float)
    if table.size == 0:
        table = table.reshape(0, 3)
    if table.ndim != 2 or table.shape[1] != 3:
        raise InvalidInstanceError("speed profile segments must be (start, end, speed) rows")
    table = table[np.argsort(table[:, 0], kind="stable")]
    starts = np.ascontiguousarray(table[:, 0])
    ends = np.ascontiguousarray(table[:, 1])
    speeds = np.ascontiguousarray(table[:, 2])
    if np.any(starts[1:] < ends[:-1] - 1e-12):
        raise InvalidInstanceError("speed profile segments overlap")

    count = len(starts)
    n = instance.n_jobs
    releases = instance.releases.tolist()  # sorted: Instance orders jobs by release
    deadlines = instance.deadlines.tolist()
    remaining = instance.works.astype(float).tolist()
    ran = [False] * n
    starts_l, ends_l, speeds_l = starts.tolist(), ends.tolist(), speeds.tolist()
    # a release at or below a segment's start (end) + 1e-12 is pushed there
    starts_tol = starts + 1e-12
    ends_tol = ends + 1e-12
    # the conditions of covered() below over whole columns, for the
    # vectorised run; the gates let idle rows pass the busy-only tests
    busy = speeds > 0.0
    passable = ~busy | ((starts < ends - 1e-15) & (ends > starts + 1e-15))
    seg_work = np.where(busy, speeds * (ends - starts), 0.0)
    release_gate = np.where(busy, ends_tol, -math.inf)
    finish_gate = np.where(busy, ends, -math.inf)
    divisor = np.where(busy, speeds, 1.0)

    jobs_col: list[int] = []
    starts_col: list[float] = []
    ends_col: list[float] = []
    speeds_col: list[float] = []
    # piece columns in emission order (the empty first chunk keeps an
    # all-idle profile's columns well-typed)
    chunks: list[tuple[np.ndarray, ...]] = [
        (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0), np.empty(0))
    ]
    pending: list[tuple[float, int]] = []  # (deadline, index) heap of released jobs
    next_job = 0  # jobs[next_job:] not yet pushed (release order)

    def flush() -> None:
        if jobs_col:
            chunks.append((np.array(jobs_col, dtype=np.intp), np.array(starts_col),
                           np.array(ends_col), np.array(speeds_col)))
            jobs_col.clear()
            starts_col.clear()
            ends_col.clear()
            speeds_col.clear()

    def covered(k: int, left: float, release: float) -> float | None:
        """Work left after segment ``k`` if the top job covers it, else None.

        Covered means the step loop would run segment ``k`` in one piece of
        the top job (or idle through it): no release is pushed at its start
        or, for a busy segment, at its end; the job is unfinished; the loop
        enters the segment, the piece has positive length and the job does
        not finish first.
        """
        start, end, speed = starts_l[k], ends_l[k], speeds_l[k]
        if not (start + 1e-12 < release and left > 1e-12):
            return None
        if speed <= 0.0:
            return left
        if not (start < end - 1e-15 and end > start + 1e-15 and end + 1e-12 < release):
            return None
        if not end <= start + left / speed:
            return None
        return left - speed * (end - start)

    def run(first: int, left: float, release: float) -> tuple[int, float]:
        """Consume the segments from ``first`` on that the top job covers."""
        # segments starting at or past the release's push point are out
        limit = max(first, int(np.searchsorted(starts_tol, release, side="left")))
        lo, window = first, _RUN_WINDOW
        while True:
            hi = min(limit, lo + window)
            span = slice(lo, hi)
            lefts = np.subtract.accumulate(np.concatenate(([left], seg_work[span])))
            before = lefts[:-1]
            ok = passable[span] & (release_gate[span] < release) & (before > 1e-12)
            ok &= finish_gate[span] <= starts[span] + before / divisor[span]
            taken = hi - lo if ok.all() else int(np.argmin(ok))
            left = float(lefts[taken])
            lo += taken
            if lo < hi or hi == limit:
                return lo, left
            window *= 2

    i = 0
    while i < count:
        t = starts_l[i]
        while next_job < n and releases[next_job] <= t + 1e-12:
            heapq.heappush(pending, (deadlines[next_job], next_job))
            next_job += 1
        while pending and ran[pending[0][1]] and remaining[pending[0][1]] <= 1e-12:
            heapq.heappop(pending)
        release = releases[next_job] if next_job < n else math.inf
        if not pending:
            if next_job >= n:
                break  # everything released is done; the rest of the profile idles
            # idle segments before the next release change nothing
            stop = int(np.searchsorted(starts_tol, release, side="left"))
            blocked = np.flatnonzero(ends_tol[i:stop] >= release)
            stop = i + int(blocked[0]) if len(blocked) else stop
            if stop > i:
                i = stop
                continue
        else:
            # the top job covers segments whole: step them here, and hand a
            # stretch longer than the lookahead to one vectorised run
            job = pending[0][1]
            stop, left = i, remaining[job]
            while stop < count and stop - i < _LOOKAHEAD:
                after = covered(stop, left, release)
                if after is None:
                    break
                if speeds_l[stop] > 0.0:
                    jobs_col.append(job)
                    starts_col.append(starts_l[stop])
                    ends_col.append(ends_l[stop])
                    speeds_col.append(speeds_l[stop])
                    ran[job] = True
                stop, left = stop + 1, after
            if stop - i == _LOOKAHEAD:
                first = stop
                stop, left = run(first, left, release)
                flush()
                on = busy[first:stop]
                chunks.append((np.full(int(on.sum()), job, dtype=np.intp),
                               starts[first:stop][on], ends[first:stop][on],
                               speeds[first:stop][on]))
                ran[job] = ran[job] or bool(on.any())
            if stop > i:
                remaining[job] = left
                i = stop
                continue
        seg_end, speed = ends_l[i], speeds_l[i]
        guard = 0
        while t < seg_end - 1e-15:
            guard += 1
            if guard > 4 * n + 8:  # pragma: no cover - defensive
                raise InfeasibleError("profile execution did not advance")
            while pending and ran[pending[0][1]] and remaining[pending[0][1]] <= 1e-12:
                heapq.heappop(pending)
            if not pending:
                if next_job >= n:
                    break
                t = min(max(releases[next_job], t), seg_end)
                while next_job < n and releases[next_job] <= t + 1e-12:
                    heapq.heappush(pending, (deadlines[next_job], next_job))
                    next_job += 1
                continue
            if speed <= 0.0:
                break
            job = pending[0][1]
            finish = t + remaining[job] / speed
            if finish == t:
                # a residual below the clock's resolution at t: done
                remaining[job] = 0.0
                ran[job] = True
                continue
            next_release = releases[next_job] if next_job < n else math.inf
            end = min(finish, next_release, seg_end)
            if end > t + 1e-15:
                jobs_col.append(job)
                starts_col.append(t)
                ends_col.append(end)
                speeds_col.append(speed)
                remaining[job] -= speed * (end - t)
                ran[job] = True
            t = end
            while next_job < n and releases[next_job] <= t + 1e-12:
                heapq.heappush(pending, (deadlines[next_job], next_job))
                next_job += 1
        i += 1

    leftovers = np.array(remaining) / instance.works
    if np.any(leftovers > work_tolerance):
        bad = [int(i) for i in np.where(leftovers > work_tolerance)[0]]
        raise InfeasibleError(
            f"speed profile finished with unprocessed work on jobs {bad}; "
            "the profile does not complete the instance"
        )
    flush()
    jobs, piece_starts, piece_ends, piece_speeds = (
        np.concatenate(column) for column in zip(*chunks)
    )
    return Schedule.from_columns(
        instance,
        power,
        jobs,
        piece_starts,
        piece_ends,
        _conserve_work(instance, jobs, piece_starts, piece_ends, piece_speeds),
    )


def _conserve_work(
    instance: Instance,
    jobs: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    speeds: np.ndarray,
) -> np.ndarray:
    """Piece speeds rescaled per job so the executed work matches exactly.

    Discretisation can leave a tiny work deficit (well below the tolerance);
    scaling the speeds of the job's pieces by the common factor removes it
    without changing any start or end time.  ``np.bincount`` adds each
    job's piece work in emission order, like a running sum.
    """
    executed = np.bincount(jobs, weights=speeds * (ends - starts), minlength=instance.n_jobs)
    factors = np.ones(instance.n_jobs)
    nonzero = executed > 0
    factors[nonzero] = instance.works[nonzero] / executed[nonzero]
    return speeds * factors[jobs]
