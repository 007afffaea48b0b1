"""Jensen window bound oracle: the double loop over the release/deadline grid.

:func:`jensen_energy_lower_bound_loop` is
:func:`repro.online.anytime.jensen_energy_lower_bound` as one Python
iteration per (release, deadline) pair.  The library evaluates the same
bound as one expression over :func:`repro.core.kernels.interval_work_grid`;
the two sum each window's work in a different order, so they agree to
rounding, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.job import Instance
from repro.core.power import PowerFunction
from repro.exceptions import InvalidInstanceError

__all__ = ["jensen_energy_lower_bound_loop"]


def jensen_energy_lower_bound_loop(instance: Instance, power: PowerFunction) -> float:
    """Maximum window bound ``(t2-t1) * P(W(t1,t2)/(t2-t1))`` over the grid."""
    if not instance.has_deadlines():
        raise InvalidInstanceError(
            "the Jensen window bound requires every job to carry a deadline"
        )
    releases = instance.releases
    deadlines = instance.deadlines
    works = instance.works
    best = 0.0
    for t1 in np.unique(releases):
        inside_left = releases >= t1
        for t2 in np.unique(deadlines):
            window = float(t2 - t1)
            if window <= 0.0:
                continue
            work = float(works[inside_left & (deadlines <= t2)].sum())
            if work <= 0.0:
                continue
            best = max(best, power.energy(work, work / window))
    return float(best)
