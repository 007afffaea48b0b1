"""Emulating continuous-speed schedules on discrete-speed processors.

Section 6 of the paper singles out discrete speed levels as the most obvious
gap between the continuous model and real hardware.  The standard emulation
(also the basis of the approximation results it cites) is *two-level
rounding*: a job planned at speed ``sigma`` between two adjacent available
levels ``lo <= sigma <= hi`` is run partly at ``hi`` and partly at ``lo`` so
that it completes the same work in the same wall-clock window.  Convexity of
the power function makes the energy of the mix at least that of the continuous
speed, and the overhead shrinks as the level grid gets finer.

This module quantises any single-speed-per-job schedule produced by the
continuous algorithms, reports the energy overhead, and flags infeasibility
when a planned speed exceeds the hardware's maximum (in that case the job is
clamped to the maximum level and the completion times shift right -- the
caller decides whether that is acceptable).

Two policies are supported end-to-end:

* ``"two-level"`` -- the work-conserving emulation above (never misses a
  deadline unless the maximum level clamps),
* ``"nearest"`` -- snap to the closest level; rounding *down* loses capacity
  inside the window, so completions shift right and deadline misses become
  possible.  The simulation layer (:mod:`repro.sim`) records them instead of
  raising.

:func:`quantize_profile` applies the same policies to a piecewise-constant
speed *profile* (the ``(start, end, speed)`` triples consumed by
:func:`repro.online.execute_profile_edf`).  Zero-speed segments are idle, not
work: they stay at speed 0 so the machine model can charge idle or sleep
power for them -- never the lowest operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.power import PowerFunction
from ..core.schedule import Piece, Schedule
from ..exceptions import InvalidScheduleError
from .models import SpeedLevels

__all__ = [
    "ProfileQuantization",
    "QuantizationResult",
    "quantize_profile",
    "quantize_schedule",
    "two_level_split",
]

#: Speeds at or below this are idle, not an operating point to round.
IDLE_SPEED_EPS = 1e-12

QUANTIZATION_POLICIES = ("two-level", "nearest")


def _check_policy(policy: str) -> None:
    if policy not in QUANTIZATION_POLICIES:
        raise InvalidScheduleError(
            f"unknown quantization policy {policy!r}; "
            f"expected one of {QUANTIZATION_POLICIES}"
        )


def two_level_split(speed: float, lo: float, hi: float) -> tuple[float, float]:
    """Fractions of time to spend at ``hi`` and ``lo`` to emulate ``speed``.

    Returns ``(fraction_at_hi, fraction_at_lo)`` such that
    ``fraction_at_hi * hi + fraction_at_lo * lo == speed`` and the fractions
    sum to 1.  When ``lo == hi`` the split is trivially all at that level.
    """
    if speed <= 0 or lo <= 0 or hi <= 0:
        raise InvalidScheduleError("speeds must be positive")
    if not lo <= speed <= hi and not math.isclose(lo, hi):
        raise InvalidScheduleError(
            f"speed {speed:g} is not inside the bracket [{lo:g}, {hi:g}]"
        )
    if math.isclose(hi, lo):
        return (1.0, 0.0)
    frac_hi = (speed - lo) / (hi - lo)
    return (float(frac_hi), float(1.0 - frac_hi))


@dataclass(frozen=True)
class QuantizationResult:
    """Outcome of quantising a continuous schedule onto a discrete speed set."""

    schedule: Schedule
    continuous_energy: float
    discrete_energy: float
    clamped_jobs: tuple[int, ...]
    makespan_increase: float

    @property
    def energy_overhead(self) -> float:
        """Relative energy increase of the discrete emulation (>= 0 when nothing clamps)."""
        return self.discrete_energy / self.continuous_energy - 1.0


def quantize_schedule(
    schedule: Schedule,
    levels: SpeedLevels,
    policy: str = "two-level",
) -> QuantizationResult:
    """Quantise a continuous-speed schedule onto the given speed levels.

    With the default ``"two-level"`` policy every piece is replaced by at
    most two pieces (the two-level emulation) occupying the same time window,
    except when the planned speed exceeds the maximum level: such pieces are
    *clamped* to the maximum level, take longer, and push the subsequent
    pieces of the same processor later (preserving order and release-time
    feasibility).  With ``"nearest"`` each piece snaps to the closest level;
    rounding down extends the piece the same way clamping does.  Idle gaps
    between pieces are preserved as gaps -- they are never filled with the
    lowest operating point.
    """
    _check_policy(policy)
    power = schedule.power
    instance = schedule.instance
    new_pieces: list[Piece] = []
    clamped: set[int] = set()
    # process per processor to propagate shifts caused by clamping
    by_proc: dict[int, list[Piece]] = {}
    for piece in schedule.pieces:
        by_proc.setdefault(piece.processor, []).append(piece)
    for proc, pieces in by_proc.items():
        pieces.sort(key=lambda p: p.start)
        shift = 0.0
        for piece in pieces:
            start = piece.start + shift
            release = instance.jobs[piece.job].release
            start = max(start, release)
            if piece.speed > levels.max_speed and not math.isclose(piece.speed, levels.max_speed):
                # clamp: run the whole piece's work at the maximum level
                clamped.add(piece.job)
                duration = piece.work / levels.max_speed
                new_pieces.append(
                    Piece(job=piece.job, processor=proc, start=start, end=start + duration,
                          speed=levels.max_speed)
                )
                shift = max(0.0, (start + duration) - piece.end)
                continue
            if policy == "nearest":
                level = levels.nearest(piece.speed)
                duration = piece.work / level
                new_pieces.append(
                    Piece(job=piece.job, processor=proc, start=start, end=start + duration,
                          speed=level)
                )
                # rounding down loses capacity inside the window, so the piece
                # extends and pushes later pieces exactly like clamping does
                shift = max(0.0, (start + duration) - piece.end)
                continue
            if piece.speed < levels.min_speed and not math.isclose(piece.speed, levels.min_speed):
                # planned slower than the slowest level: run at the minimum level
                # for exactly the piece's work and idle for the remainder of the
                # window (this wastes energy relative to the continuous plan but
                # never delays anything).
                duration = piece.work / levels.min_speed
                new_pieces.append(
                    Piece(job=piece.job, processor=proc, start=start, end=start + duration,
                          speed=levels.min_speed)
                )
                shift = max(0.0, (start + duration) - piece.end)
                continue
            lo, hi = levels.bracket(piece.speed)
            frac_hi, frac_lo = two_level_split(piece.speed, lo, hi)
            t_hi = piece.duration * frac_hi
            t_lo = piece.duration * frac_lo
            cursor = start
            if t_hi > 1e-15:
                new_pieces.append(
                    Piece(job=piece.job, processor=proc, start=cursor, end=cursor + t_hi, speed=hi)
                )
                cursor += t_hi
            if t_lo > 1e-15:
                new_pieces.append(
                    Piece(job=piece.job, processor=proc, start=cursor, end=cursor + t_lo, speed=lo)
                )
                cursor += t_lo
            shift = max(0.0, cursor - piece.end)

    quantized = Schedule(instance, power, new_pieces, n_processors=schedule.n_processors)
    return QuantizationResult(
        schedule=quantized,
        continuous_energy=schedule.energy,
        discrete_energy=quantized.energy,
        clamped_jobs=tuple(sorted(clamped)),
        makespan_increase=quantized.makespan - schedule.makespan,
    )


@dataclass(frozen=True)
class ProfileQuantization:
    """Outcome of quantising a piecewise-constant speed profile.

    ``profile`` is the quantised profile as an ``(S, 3)`` array of
    ``(start, end, speed)`` rows, the input of
    :func:`repro.online.execute_profile_edf`; speed ``0.0`` marks idle time.
    :attr:`segments` is the same rows as a tuple of triples.
    ``deficit_work`` is the work the quantized profile can no longer place
    inside the original windows (clamping above ``max_speed``, or nearest
    rounding down) -- the caller must append make-up capacity (e.g. a
    maximum-speed tail) or accept deadline misses.
    """

    profile: np.ndarray
    clamped_segments: int
    slowed_segments: int
    deficit_work: float

    @cached_property
    def segments(self) -> tuple[tuple[float, float, float], ...]:
        """The quantised ``(start, end, speed)`` rows as a tuple of triples."""
        return tuple(map(tuple, self.profile.tolist()))


def _isclose(a: np.ndarray, b: np.ndarray | float) -> np.ndarray:
    """Element-wise :func:`math.isclose` at its default tolerances."""
    diff = np.abs(b - a)
    near = (diff <= np.abs(1e-9 * b)) | (diff <= np.abs(1e-9 * a))
    # an infinite difference is never close; equal infinities are
    return (a == b) | (near & np.isfinite(diff))


def quantize_profile(
    segments: list[tuple[float, float, float]]
    | tuple[tuple[float, float, float], ...]
    | np.ndarray,
    levels: SpeedLevels,
    policy: str = "two-level",
) -> ProfileQuantization:
    """Quantise a speed profile onto discrete levels, preserving idle time.

    Segments with speed at or below :data:`IDLE_SPEED_EPS` pass through at
    speed 0 -- idle maps to idle (or sleep) power, never to the lowest
    operating point.  Sub-``min_speed`` segments run at ``min_speed`` just
    long enough to cover the planned work, then idle for the remainder of
    the window (work-conserving, no delay).  Segments above ``max_speed``
    are clamped and accrue ``deficit_work``; with the ``"nearest"`` policy,
    rounding down does the same.

    ``segments`` may be a sequence of triples or an ``(S, 3)`` array.  Every
    rule is a mask over the whole profile: each input row yields one or two
    output rows, kept in input order, with the float operations of
    :func:`two_level_split` and :meth:`SpeedLevels.bracket` /
    :meth:`SpeedLevels.nearest` applied element-wise, and the deficit summed
    in input order.
    """
    _check_policy(policy)
    table = np.asarray(segments, dtype=float).reshape(-1, 3)
    start, end, speed = table[:, 0], table[:, 1], table[:, 2]
    duration = end - start
    bad = (duration <= 0) | (speed < -IDLE_SPEED_EPS)
    if bad.any():
        k = int(np.argmax(bad))
        if duration[k] <= 0:
            raise InvalidScheduleError(
                f"profile segment [{start[k]:g}, {end[k]:g}] has non-positive duration"
            )
        raise InvalidScheduleError("profile speeds must be non-negative")
    ladder = np.asarray(levels.levels)
    top, bottom = levels.max_speed, levels.min_speed
    # speeds at or below IDLE_SPEED_EPS include the float-noise "negative
    # zeros" the profile builders emit for idle stretches (e.g. -1e-16 from
    # AVR's density sums): they stay idle
    idle = speed <= IDLE_SPEED_EPS
    clamped = ~idle & (speed > top) & ~_isclose(speed, top)
    rest = ~(idle | clamped)
    # every row becomes (start, first_end, first_speed) and, where kept,
    # (second_start, end, second_speed): a "busy" row runs the planned work
    # at ``level`` and then idles, a "split" row runs at hi and then at lo
    with np.errstate(divide="ignore", invalid="ignore"):
        if policy == "nearest":
            level = ladder[np.argmin(np.abs(ladder - speed[:, np.newaxis]), axis=1)]
            busy = rest & ((level >= speed) | _isclose(level, speed))
            slowed = rest & ~busy
            split = np.zeros_like(busy)
            deficit_rows = clamped | slowed
            deficit = (speed - np.where(clamped, top, level)) * duration
            first_speed = np.where(clamped, top, level)
        else:
            busy = rest & (speed < bottom) & ~_isclose(speed, bottom)
            slowed = np.zeros_like(busy)
            split = rest & ~busy
            level = bottom
            deficit_rows = clamped
            deficit = (speed - top) * duration
            # the bracketing levels, pinned to the ends outside the ladder
            hi_idx = np.minimum(np.searchsorted(ladder, speed), len(ladder) - 1)
            lo_idx = np.where(ladder[hi_idx] > speed, hi_idx - 1, hi_idx)
            inside = (speed > bottom) & (speed < top)
            pinned = np.where(speed <= bottom, bottom, top)
            lo = np.where(inside, ladder[lo_idx], pinned)
            hi = np.where(inside, ladder[hi_idx], pinned)
            same = _isclose(hi, lo)
            frac_hi = np.where(same, 1.0, (speed - lo) / (hi - lo))
            frac_lo = np.where(same, 0.0, 1.0 - frac_hi)
            t_hi = duration * frac_hi
            has_hi = t_hi > 1e-15
            hi_end = start + t_hi
            first_speed = np.where(split, hi, np.where(clamped, top, bottom))
        busy_time = speed * duration / level
    busy_end = start + busy_time
    out = np.empty((len(table), 2, 3))
    out[:, 0, 0] = start
    out[:, 0, 1] = np.where(busy, busy_end, end)
    out[:, 0, 2] = np.where(idle, 0.0, first_speed)
    out[:, 1, 0] = busy_end
    out[:, 1, 1] = end
    out[:, 1, 2] = 0.0
    keep = np.empty((len(table), 2), dtype=bool)
    keep[:, 0] = True
    keep[:, 1] = busy & (duration - busy_time > 1e-15)
    if split.any():
        out[split, 0, 1] = hi_end[split]
        out[split, 1, 0] = np.where(has_hi, hi_end, start)[split]
        out[split, 1, 2] = lo[split]
        keep[split, 0] = has_hi[split]
        keep[split, 1] = (duration * frac_lo > 1e-15)[split]
    parts = deficit[deficit_rows]
    return ProfileQuantization(
        profile=out[keep],
        clamped_segments=int(np.count_nonzero(clamped)),
        slowed_segments=int(np.count_nonzero(slowed)),
        deficit_work=float(np.add.accumulate(parts)[-1]) if len(parts) else 0.0,
    )
