"""BKP speed-profile oracles: the scalar and per-interval evaluations.

:func:`bkp_speed_profile_per_interval` is the grid evaluation
:func:`repro.online.bkp.bkp_speed_profile` used before it became one blocked
pass over all intervals; it returns the same ``(start, end, speed)`` rows as
a list of tuples, and the array-native profile must equal it bit for bit.
:func:`bkp_speed_profile_reference` evaluates :func:`bkp_speed_at` once per
slice and anchors both at 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.job import Instance
from repro.core.kernels import interval_work_grid
from repro.exceptions import InvalidInstanceError

__all__ = [
    "bkp_speed_at",
    "bkp_speed_profile_per_interval",
    "bkp_speed_profile_reference",
]


def bkp_speed_at(instance: Instance, t: float) -> float:
    """The BKP speed at time ``t`` (exact evaluation of the max over ``t'``).

    The maximum over ``t'`` only needs to consider deadlines of jobs released
    by ``t`` (the work function is piecewise constant in ``t'`` and changes
    only at deadlines), which keeps the evaluation exact and cheap.
    """
    releases = instance.releases
    deadlines = instance.deadlines
    works = instance.works
    arrived = releases <= t + 1e-12
    if not np.any(arrived):
        return 0.0
    e = math.e
    best = 0.0
    for t_prime in sorted(set(deadlines[arrived])):
        if t_prime <= t:
            continue
        t1 = e * t - (e - 1.0) * t_prime
        mask = arrived & (releases >= t1 - 1e-12) & (deadlines <= t_prime + 1e-12)
        work = float(np.sum(works[mask]))
        if work <= 0.0:
            continue
        best = max(best, e * work / (t_prime - t))
    return best


def bkp_speed_profile_per_interval(
    instance: Instance, steps_per_interval: int = 64
) -> list[tuple[float, float, float]]:
    """One interval's slice grid at a time on the cumulative work grid."""
    if not instance.has_deadlines():
        raise InvalidInstanceError("BKP requires deadlines on every job")
    if steps_per_interval < 1:
        raise InvalidInstanceError("steps_per_interval must be >= 1")
    releases = instance.releases  # sorted (Instance orders jobs by release)
    deadlines = instance.deadlines
    works = instance.works
    e = math.e
    grid_r, grid_d, member = interval_work_grid(releases, deadlines, works)
    events = np.unique(np.concatenate([releases, deadlines]))

    segments: list[tuple[float, float, float]] = []
    for start, end in zip(events, events[1:]):
        grid = np.linspace(float(start), float(end), steps_per_interval + 1)
        ts = grid[:-1]
        speeds = np.zeros(len(ts))
        # the arrived set is constant per slice grid except in pathological
        # sub-1e-12 intervals, so group the slice times by arrived count
        counts = np.searchsorted(releases, ts + 1e-12, side="right")
        for cnt in np.unique(counts):
            sel = counts == cnt
            if cnt == 0:
                continue
            t_sel = ts[sel]
            # candidate t' values: distinct deadlines of arrived jobs
            candidates = np.unique(deadlines[:cnt])
            # w(t, t1, t') via the cumulative grid: release >= t1 - 1e-12
            # minus release > t + 1e-12, both with deadline <= t' + 1e-12
            b_idx = np.searchsorted(grid_d, candidates + 1e-12, side="right") - 1
            t1 = e * t_sel[np.newaxis, :] - (e - 1.0) * candidates[:, np.newaxis]
            a1 = np.searchsorted(grid_r, t1 - 1e-12, side="left")
            a2 = np.searchsorted(grid_r, t_sel + 1e-12, side="right")
            work = (
                member[a1, b_idx[:, np.newaxis]]
                - member[a2[np.newaxis, :], b_idx[:, np.newaxis]]
            )
            span = candidates[:, np.newaxis] - t_sel[np.newaxis, :]
            valid = (span > 0.0) & (work > 0.0)
            value = np.where(valid, e * work / np.where(valid, span, 1.0), 0.0)
            speeds[sel] = np.max(value, axis=0, initial=0.0)
        for a, b, s in zip(grid, grid[1:], speeds):
            segments.append((float(a), float(b), float(s)))
    return segments


def bkp_speed_profile_reference(
    instance: Instance, steps_per_interval: int = 64
) -> list[tuple[float, float, float]]:
    """Scalar reference profile: one :func:`bkp_speed_at` call per slice."""
    if not instance.has_deadlines():
        raise InvalidInstanceError("BKP requires deadlines on every job")
    if steps_per_interval < 1:
        raise InvalidInstanceError("steps_per_interval must be >= 1")
    events = np.unique(np.concatenate([instance.releases, instance.deadlines]))
    segments: list[tuple[float, float, float]] = []
    for start, end in zip(events, events[1:]):
        grid = np.linspace(float(start), float(end), steps_per_interval + 1)
        for a, b in zip(grid, grid[1:]):
            speed = bkp_speed_at(instance, float(a))
            segments.append((float(a), float(b), speed))
    return segments
