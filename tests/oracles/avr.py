"""AVR oracle: the profile built by one activity scan per segment.

:func:`avr_speed_profile_reference` is what
:func:`repro.online.avr.avr_speed_profile` (event-grid scatter-add kernel)
is pinned to at 1e-9 by ``tests/test_online_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.job import Instance
from repro.exceptions import InvalidInstanceError

__all__ = ["avr_speed_profile_reference"]


def avr_speed_profile_reference(
    instance: Instance,
) -> list[tuple[float, float, float]]:
    """Scalar reference for :func:`repro.online.avr.avr_speed_profile`."""
    if not instance.has_deadlines():
        raise InvalidInstanceError("AVR requires deadlines on every job")
    releases = instance.releases
    deadlines = instance.deadlines
    works = instance.works
    rates = works / (deadlines - releases)
    events = np.unique(np.concatenate([releases, deadlines]))
    segments: list[tuple[float, float, float]] = []
    for start, end in zip(events, events[1:]):
        mid = 0.5 * (start + end)
        active = (releases <= mid) & (mid < deadlines)
        speed = float(np.sum(rates[active]))
        segments.append((float(start), float(end), speed))
    return segments
