"""Anytime deadline-feasible energy: a certified cut between AVR and YDS.

YDS is the offline optimum but pays several critical-interval rounds; AVR is
a one-pass heuristic whose energy can be checked against an independently
computable lower bound.  The *anytime* solver runs AVR first and accepts it
as the answer whenever its certified gap against the Jensen window bound is
within the requested accuracy, escalating to exact YDS otherwise.

The lower bound: for any window ``[t1, t2]`` the jobs whose whole
``[release, deadline]`` interval lies inside must complete ``W(t1, t2)``
units of work without leaving the window.  Because the power function is
convex with ``P(0) = 0``, spreading that work at constant speed
``W / (t2 - t1)`` over the whole window is the cheapest way to do it
(Jensen's inequality), so every feasible schedule spends at least
``(t2 - t1) * P(W / (t2 - t1))`` energy — and other jobs only add more.
Maximising over the release/deadline grid gives a bound that is *tight* on
the YDS critical interval when a single round covers all jobs.
"""

from __future__ import annotations

import math

from ..core.job import Instance
from ..core.kernels import interval_work_grid, jensen_window_bound
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import InvalidInstanceError

__all__ = ["anytime_min_energy", "jensen_energy_lower_bound"]


def jensen_energy_lower_bound(instance: Instance, power: PowerFunction) -> float:
    """Maximum window bound ``(t2-t1) * P(W(t1,t2)/(t2-t1))`` over the grid.

    Valid for every convex power function with ``P(0) = 0``; recomputed
    independently by the ``error-bound`` certificate checker, so the solver
    cannot overstate its own accuracy.  One expression over the cumulative
    work grid of :func:`~repro.core.kernels.interval_work_grid`.
    """
    if not instance.has_deadlines():
        raise InvalidInstanceError(
            "the Jensen window bound requires every job to carry a deadline"
        )
    grid_r, grid_d, member = interval_work_grid(
        instance.releases, instance.deadlines, instance.works
    )
    return jensen_window_bound(grid_r, grid_d, member, power)


def anytime_min_energy(
    instance: Instance,
    power: PowerFunction,
    target_epsilon: float = 0.1,
) -> tuple[Schedule, float, str]:
    """AVR as an anytime cut, escalating to exact YDS when the gap is too big.

    Returns ``(schedule, certified_epsilon, bound_kind)``: either the AVR
    schedule with its certified relative gap against
    :func:`jensen_energy_lower_bound` (``bound_kind == "jensen-gap"``), or
    the exact YDS schedule with a zero gap (``bound_kind == "yds-exact"``).
    """
    from .avr import avr_schedule
    from .yds import yds_schedule

    target = float(target_epsilon)
    if not math.isfinite(target) or target <= 0.0:
        raise InvalidInstanceError(
            f"target_epsilon must be a finite value > 0, got {target_epsilon!r}"
        )
    lower = jensen_energy_lower_bound(instance, power)
    if lower > 0.0:
        cut = avr_schedule(instance, power)
        gap = max(0.0, cut.energy / lower - 1.0)
        if gap <= target:
            return cut, gap, "jensen-gap"
    return yds_schedule(instance, power), 0.0, "yds-exact"
