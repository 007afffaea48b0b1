"""The server problem for uniprocessor makespan: minimum energy for a deadline.

The paper frames power-aware scheduling as a bicriteria problem whose two
natural single-criterion restrictions are the *laptop problem* (fix energy,
minimise the metric -- solved by :func:`repro.makespan.incmerge.incmerge`)
and the *server problem* (fix the metric, minimise energy).  For makespan the
server problem asks: what is the least energy with which all jobs can finish
by a common deadline ``T``?

That is the Yao-Demers-Shenker minimum-energy problem with every deadline
equal to ``T``, and it is solved by reversing time.  The map ``t -> T - t``
turns each release ``r_j`` into a deadline ``T - r_j`` and releases every job
at once; a schedule and its reversal run each job at the same speeds for the
same time, so they cost the same energy.  The YDS speeds of a common-release
instance are the slopes of one upper hull of its cumulative work
(:func:`repro.core.kernels.common_release_prefix_speeds`, one O(n) pass).  So
:func:`speeds_for_windows` runs that hull on each job's *window* ``T - r_j``,
read backwards, and reverses the speeds back.  Run in release order, those
speeds end the first hull segment's jobs exactly at ``T``: the makespan is the
target by construction, and the energy is the sum of the jobs' energies.

:func:`repro.makespan.baselines.server_energy_via_yds` (general YDS) and the
frontier inversion in the test oracles cross-check the hull.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.job import Instance
from ..core.kernels import common_release_prefix_speeds, energy_eval
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import InfeasibleError

__all__ = [
    "minimum_energy_for_makespan",
    "schedule_for_makespan",
    "server_speeds",
    "speeds_for_windows",
]


def speeds_for_windows(windows: np.ndarray, works: np.ndarray) -> np.ndarray:
    """Minimum-energy speeds for jobs that must all finish at one common time.

    ``windows[j] > 0`` is the time from job ``j``'s release to the common
    finish time, so it is non-increasing over jobs in release order;
    ``works`` is aligned with it.  Reversing time makes the windows
    deadlines of a common-release instance, whose optimal speeds are the
    slopes of one upper hull.
    """
    return common_release_prefix_speeds(0.0, windows[::-1], works[::-1])[::-1]


def server_speeds(instance: Instance, makespan_target: float) -> np.ndarray:
    """The per-job speeds of the server optimum for ``makespan_target``.

    Raises
    ------
    InfeasibleError
        If the target is not finite or does not exceed the last release time
        (no finite-speed schedule can meet it).
    """
    if not math.isfinite(makespan_target):
        raise InfeasibleError(f"makespan target must be finite, got {makespan_target!r}")
    if makespan_target <= instance.last_release:
        raise InfeasibleError(
            f"makespan target {makespan_target:g} does not exceed the last release "
            f"time {instance.last_release:g}; the final job cannot finish in time "
            "at any finite speed"
        )
    return speeds_for_windows(float(makespan_target) - instance.releases, instance.works)


def minimum_energy_for_makespan(
    instance: Instance,
    power: PowerFunction,
    makespan_target: float,
) -> float:
    """Minimum energy needed to finish every job by ``makespan_target``."""
    speeds = server_speeds(instance, makespan_target)
    return float(np.sum(energy_eval(power, instance.works, speeds)))


def schedule_for_makespan(
    instance: Instance,
    power: PowerFunction,
    makespan_target: float,
) -> Schedule:
    """The minimum-energy schedule meeting ``makespan_target`` (server optimum)."""
    return Schedule.from_speeds(instance, power, server_speeds(instance, makespan_target))

