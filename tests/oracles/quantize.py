"""Profile-quantisation oracle: the one-segment-at-a-time loop.

:func:`quantize_profile_loop` is the loop
:func:`repro.discrete.quantize_profile` ran before it became masked array
code; it returns ``(segments, clamped, slowed, deficit)`` with the segments
as a tuple of triples, and the array-native quantiser must equal it bit for
bit.
"""

from __future__ import annotations

import math

from repro.discrete.models import SpeedLevels
from repro.discrete.quantize import IDLE_SPEED_EPS, two_level_split
from repro.exceptions import InvalidScheduleError

__all__ = ["quantize_profile_loop"]


def quantize_profile_loop(
    segments, levels: SpeedLevels, policy: str = "two-level"
) -> tuple[tuple[tuple[float, float, float], ...], int, int, float]:
    """Quantise a speed profile onto discrete levels, one segment at a time."""
    out: list[tuple[float, float, float]] = []
    clamped = 0
    slowed = 0
    deficit = 0.0
    for start, end, speed in segments:
        duration = float(end) - float(start)
        if duration <= 0:
            raise InvalidScheduleError(
                f"profile segment [{start:g}, {end:g}] has non-positive duration"
            )
        if speed < -IDLE_SPEED_EPS:
            raise InvalidScheduleError("profile speeds must be non-negative")
        if speed <= IDLE_SPEED_EPS:
            out.append((float(start), float(end), 0.0))
            continue
        if speed > levels.max_speed and not math.isclose(speed, levels.max_speed):
            clamped += 1
            deficit += (speed - levels.max_speed) * duration
            out.append((float(start), float(end), levels.max_speed))
            continue
        if policy == "nearest":
            level = levels.nearest(speed)
            if level >= speed or math.isclose(level, speed):
                busy = speed * duration / level
                out.append((float(start), float(start) + busy, level))
                if duration - busy > 1e-15:
                    out.append((float(start) + busy, float(end), 0.0))
            else:
                slowed += 1
                deficit += (speed - level) * duration
                out.append((float(start), float(end), level))
            continue
        if speed < levels.min_speed and not math.isclose(speed, levels.min_speed):
            busy = speed * duration / levels.min_speed
            out.append((float(start), float(start) + busy, levels.min_speed))
            if duration - busy > 1e-15:
                out.append((float(start) + busy, float(end), 0.0))
            continue
        lo, hi = levels.bracket(speed)
        frac_hi, frac_lo = two_level_split(speed, lo, hi)
        t_hi = duration * frac_hi
        cursor = float(start)
        if t_hi > 1e-15:
            out.append((cursor, cursor + t_hi, hi))
            cursor += t_hi
        if duration * frac_lo > 1e-15:
            out.append((cursor, float(end), lo))
    return tuple(out), clamped, slowed, deficit
