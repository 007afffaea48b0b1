"""YDS oracle: the scalar critical-interval loop.

:func:`yds_speeds_reference` re-enumerates every release/deadline pair's
member set each round, exactly as the classic algorithm is usually stated;
:func:`repro.online.yds.yds_speeds` (vectorised prefix-sum kernel) is pinned
to it by ``tests/test_kernels.py``.  It is cubic per round, so
``benchmarks/bench_yds_kernel.py`` times it only at small and mid sizes.
"""

from __future__ import annotations

import numpy as np

from repro.core.job import Instance
from repro.exceptions import InfeasibleError, InvalidInstanceError
from repro.online.yds import YDSResult

__all__ = ["yds_speeds_reference"]


def yds_speeds_reference(instance: Instance) -> YDSResult:
    """Scalar reference implementation of :func:`repro.online.yds.yds_speeds`."""
    if not instance.has_deadlines():
        raise InvalidInstanceError(
            "YDS requires every job to carry a finite deadline; attach them with "
            "Instance.with_deadlines()"
        )
    remaining: list[tuple[int, float, float, float]] = [
        (job.index, job.release, float(job.deadline), job.work)  # type: ignore[arg-type]
        for job in instance.jobs
    ]
    speeds = np.zeros(instance.n_jobs)
    intervals: list[tuple[float, float, float]] = []

    while remaining:
        releases = sorted({r for _, r, _, _ in remaining})
        deadlines = sorted({d for _, _, d, _ in remaining})
        best_intensity = -1.0
        best_pair: tuple[float, float] | None = None
        best_set: list[int] = []
        for t1 in releases:
            for t2 in deadlines:
                if t2 <= t1:
                    continue
                members = [idx for idx, (jid, r, d, w) in enumerate(remaining) if r >= t1 and d <= t2]
                if not members:
                    continue
                work = sum(remaining[i][3] for i in members)
                intensity = work / (t2 - t1)
                # strict > : keep the first pair attaining the maximum, the
                # same tie-break the vectorised kernel's argmax applies
                if intensity > best_intensity:
                    best_intensity = intensity
                    best_pair = (t1, t2)
                    best_set = members
        if best_pair is None:  # pragma: no cover - defensive
            raise InfeasibleError("YDS failed to find a critical interval")
        t1, t2 = best_pair
        intervals.append((t1, t2, best_intensity))
        removed_ids = set()
        for i in best_set:
            jid = remaining[i][0]
            speeds[jid] = best_intensity
            removed_ids.add(jid)
        length = t2 - t1
        new_remaining = []
        for jid, r, d, w in remaining:
            if jid in removed_ids:
                continue
            if r >= t2:
                r -= length
            elif r > t1:
                r = t1
            if d >= t2:
                d -= length
            elif d > t1:
                d = t1
            new_remaining.append((jid, r, d, w))
        remaining = new_remaining

    return YDSResult(speeds=speeds, critical_intervals=tuple(intervals))
