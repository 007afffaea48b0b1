"""The Bansal-Kimbrel-Pruhs (BKP) online speed-scaling algorithm.

The paper's related-work section cites Bansal et al.'s
``2 * (alpha/(alpha-1))**alpha * e**alpha``-competitive algorithm for
deadline-feasible speed scaling.  BKP sets the processor speed at time ``t``
to

    ``s(t) = max_{t' > t}  e * w(t, e*t - (e-1)*t', t') / (t' - t)``

where ``w(t, t1, t2)`` is the amount of work of jobs that have arrived by time
``t``, were released no earlier than ``t1`` and have deadline no later than
``t2``; pending work is processed in EDF order.

Unlike AVR, the BKP speed changes continuously between events, so the
simulation here discretises time: each interval between consecutive event
points (releases and deadlines) is split into ``steps_per_interval`` equal
slices and the speed is held constant (at the value computed at the slice
start) within a slice.  The discretisation error vanishes as the step count
grows; because holding an overestimate too long can shave a sliver of work off
the tail, the executor tolerates (and then rescales away) a tiny relative
work deficit, and the tests check deadline feasibility only up to the
discretisation tolerance.  This is an extension experiment (the paper itself
proves nothing new about BKP), so the approximate simulation is acceptable;
README's "Deviations from the paper" section records the 64-slice grid and
the 1e-3 work tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.job import Instance
from ..core.kernels import interval_work_grid
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import InvalidInstanceError
from .executor import execute_profile_edf

__all__ = ["bkp_speed_profile", "bkp_schedule"]

#: (candidate, slice) evaluations per block of the profile pass: bounds the
#: temporaries to a few hundred KiB whatever the instance size.
_BLOCK_CELLS = 16384


def _slice_grid(starts: np.ndarray, ends: np.ndarray, steps: int) -> np.ndarray:
    """Row ``k`` is ``np.linspace(starts[k], ends[k], steps + 1)``, bit for bit."""
    delta = ends - starts
    step = delta / steps
    ramp = np.arange(steps + 1, dtype=float)
    grid = np.where(
        (step == 0.0)[:, np.newaxis],
        # linspace's denormal branch: scale the ramp by delta / steps late
        (ramp / steps)[np.newaxis, :] * delta[:, np.newaxis],
        ramp[np.newaxis, :] * step[:, np.newaxis],
    )
    grid += starts[:, np.newaxis]
    grid[:, -1] = ends
    return grid


def bkp_speed_profile(instance: Instance, steps_per_interval: int = 64) -> np.ndarray:
    """Discretised BKP speed profile between consecutive event points.

    Returns an ``(S, 3)`` array of ``(start, end, speed)`` rows, the
    ``steps_per_interval`` slices of each event interval in time order.

    Every slice of every interval is evaluated in one blocked pass.  The
    window work function ``w(t, t1, t2)`` is a difference of two entries of
    the cumulative release x deadline work grid
    (:func:`repro.core.kernels.interval_work_grid`), and a candidate ``t'``
    of an interval is *live* when its job has arrived by the interval's last
    slice and its deadline lies after the interval start -- a deadline at or
    before the start gives every slice a non-positive span, which the max
    ignores.  The live (interval, candidate) pairs are expanded over the
    interval's slices in blocks of at most ``_BLOCK_CELLS`` evaluations and
    max-reduced per interval, with the tolerances, operation order and
    per-slice arrival test of a one-slice-at-a-time evaluation, so the
    profile is bit-identical to it.
    """
    if not instance.has_deadlines():
        raise InvalidInstanceError("BKP requires deadlines on every job")
    if steps_per_interval < 1:
        raise InvalidInstanceError("steps_per_interval must be >= 1")
    releases = instance.releases  # sorted (Instance orders jobs by release)
    deadlines = instance.deadlines
    e = math.e
    grid_r, grid_d, member = interval_work_grid(releases, deadlines, instance.works)
    events = np.unique(np.concatenate([releases, deadlines]))
    grid = _slice_grid(events[:-1], events[1:], steps_per_interval)
    ts = grid[:, :-1]  # (intervals, steps) slice start times
    arrived = np.searchsorted(releases, ts + 1e-12, side="right")
    upper = np.searchsorted(grid_r, ts + 1e-12, side="right")  # release > t + 1e-12
    # candidate t' = each distinct deadline, available once its first job arrived
    _, first_job = np.unique(deadlines, return_index=True)
    b_idx = np.searchsorted(grid_d, grid_d + 1e-12, side="right") - 1
    live = (first_job[np.newaxis, :] < arrived[:, -1:]) & (
        grid_d[np.newaxis, :] > events[:-1, np.newaxis]
    )
    pair_k, pair_u = np.nonzero(live)

    speeds = np.zeros(ts.shape)
    per_block = max(1, _BLOCK_CELLS // steps_per_interval)
    for lo in range(0, len(pair_k), per_block):
        k = pair_k[lo : lo + per_block]
        u = pair_u[lo : lo + per_block]
        t = ts[k]
        c = grid_d[u][:, np.newaxis]
        b = b_idx[u][:, np.newaxis]
        t1 = e * t - (e - 1.0) * c
        a1 = np.searchsorted(grid_r, t1 - 1e-12, side="left")
        work = member[a1, b] - member[upper[k], b]
        span = c - t
        valid = (span > 0.0) & (work > 0.0) & (first_job[u][:, np.newaxis] < arrived[k])
        value = np.where(valid, e * work / np.where(valid, span, 1.0), 0.0)
        # pairs are grouped by interval: max-reduce each group of rows
        heads = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        rows = k[heads]
        speeds[rows] = np.maximum(speeds[rows], np.maximum.reduceat(value, heads, axis=0))
    return np.column_stack([ts.ravel(), grid[:, 1:].ravel(), speeds.ravel()])


def bkp_schedule(
    instance: Instance,
    power: PowerFunction,
    steps_per_interval: int = 64,
    work_tolerance: float = 1e-3,
) -> Schedule:
    """Execute the (discretised) BKP policy and return the resulting schedule."""
    profile = bkp_speed_profile(instance, steps_per_interval=steps_per_interval)
    return execute_profile_edf(instance, power, profile, work_tolerance=work_tolerance)
