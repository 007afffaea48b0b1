"""Average Rate (AVR) online speed scaling (Yao, Demers, Shenker).

AVR is one of the two online heuristics proposed in the original YDS paper
and analysed by Bansal et al.; the paper under reproduction cites both in its
related-work section.  The policy: every active job ``i`` (released, deadline
not yet passed) contributes its *average rate* ``w_i / (d_i - r_i)``; the
processor runs at the sum of the active rates and processes pending work in
EDF order.

AVR is ``2**(alpha-1) * alpha**alpha``-competitive in energy against the
offline optimum (YDS); the benchmark ``bench_online_competitive`` measures the
empirical ratio on synthetic workloads, which is far smaller than the worst
case.

The processor speed changes only at releases and deadlines, so the profile is
exactly piecewise constant -- no discretisation is involved.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.job import Instance
from ..core.kernels import (
    pack_instances,
    stepwise_rate_profile,
    stepwise_rate_profile_batched,
)
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import InvalidInstanceError
from .executor import execute_profile_edf

__all__ = [
    "avr_speed_profile",
    "avr_speed_profiles_batch",
    "avr_schedule",
]


def avr_speed_profile(instance: Instance) -> list[tuple[float, float, float]]:
    """The AVR processor speed as a piecewise-constant profile.

    Returns ``(start, end, speed)`` segments between consecutive event points
    (releases and deadlines).  Segments of zero speed are included so the
    profile covers the whole horizon.

    Built on the :func:`repro.core.kernels.stepwise_rate_profile` event-grid
    kernel (scatter-add of rate deltas + one cumulative sum) instead of one
    activity scan per segment; pinned to the one-scan-per-segment loop in
    ``tests/oracles/avr.py`` at 1e-9 by the equivalence suite.
    """
    if not instance.has_deadlines():
        raise InvalidInstanceError("AVR requires deadlines on every job")
    releases = instance.releases
    deadlines = instance.deadlines
    rates = instance.works / (deadlines - releases)
    events, levels = stepwise_rate_profile(releases, deadlines, rates)
    return [
        (float(a), float(b), float(s))
        for a, b, s in zip(events, events[1:], levels)
    ]


def avr_speed_profiles_batch(
    instances: Sequence[Instance],
) -> list[list[tuple[float, float, float]]]:
    """AVR profiles for a whole chunk of instances via one batched sweep.

    Packs the chunk and runs
    :func:`repro.core.kernels.stepwise_rate_profile_batched` once; each row's
    duplicate/padding segments (zero length or non-finite end) are dropped,
    which recovers exactly the per-instance
    :func:`avr_speed_profile` list — bitwise, since the dup-grid scatter and
    cumulative sum only interleave exact ``+ 0.0`` terms.  Pinned by
    ``tests/test_batched_kernels.py``.
    """
    for instance in instances:
        if not instance.has_deadlines():
            raise InvalidInstanceError("AVR requires deadlines on every job")
    batch = pack_instances(instances)
    with np.errstate(invalid="ignore"):
        rates = np.where(
            batch.mask,
            batch.works / (batch.deadlines - batch.releases),
            0.0,
        )
    events, levels = stepwise_rate_profile_batched(
        batch.releases, batch.deadlines, rates, batch.mask
    )
    profiles: list[list[tuple[float, float, float]]] = []
    for b in range(batch.batch_size):
        row_events = events[b]
        row_levels = levels[b]
        profiles.append(
            [
                (float(a), float(c), float(s))
                for a, c, s in zip(row_events, row_events[1:], row_levels)
                if c > a and math.isfinite(c)
            ]
        )
    return profiles


def avr_schedule(instance: Instance, power: PowerFunction) -> Schedule:
    """Execute AVR and return the resulting schedule (always meets deadlines).

    Feasibility holds because, integrated over any job's window, the profile
    provides at least that job's average rate, and EDF never wastes speed on
    jobs that could be postponed past another job's deadline.
    """
    profile = avr_speed_profile(instance)
    return execute_profile_edf(instance, power, profile)
