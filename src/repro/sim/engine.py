"""The deterministic trace-replay event loop.

:func:`simulate` replays an arrival trace through one of the online policies
(OA via the incremental engine, AVR and BKP via their native speed profiles)
on a :class:`~repro.sim.machine.MachineModel`, and accounts for everything
the continuous model ignores:

* **discrete speed levels** — when the machine has a
  :class:`~repro.discrete.SpeedLevels` ladder, OA's schedule goes through
  :func:`repro.discrete.quantize_schedule` and the AVR/BKP profiles through
  :func:`repro.discrete.quantize_profile` (the machine's ``quantization``
  policy picks two-level vs nearest).  Capacity lost to clamping or
  nearest-down rounding is made up by a maximum-speed tail segment, so the
  replay completes and *deadline misses are recorded instead of raised*;
* **static power** — charged over every awake moment (busy or idle);
* **sleep states** — idle gaps at least as long as the machine's break-even
  time (and its wake latency) are slept through: the gap is charged at the
  sleep-state power plus the one-off transition energy;
* **the clairvoyant bound** — the YDS optimum of the full trace under the
  same dynamic-power curve (exactly the registry's ``yds`` solver), the
  denominator of the reported energy ratio.

The replay is an explicit event walk: arrivals, replan points (one per
distinct arrival time — every policy replans when new work appears),
speed-switch boundaries of the executed machine timeline (idle counts as
speed 0), sleep/wake transitions, completions and deadline misses.  Both the
event list and every energy figure are pure functions of
``(trace, machine, algorithm)`` — no wall clock, no hidden randomness — so
runs are deterministic and goldens can pin them byte for byte.

On a machine with no static power, no sleep state and no speed ladder the
replay charges exactly ``schedule.energy`` of the same schedule object the
registry's online solvers build, so continuous-model rows reproduce the
``repro compete`` pipeline bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.job import Instance
from ..core.schedule import Schedule
from ..discrete.quantize import quantize_profile, quantize_schedule
from ..exceptions import InvalidInstanceError
from ..online.avr import avr_speed_profile
from ..online.bkp import bkp_speed_profile
from ..online.executor import execute_profile_edf
from ..online.oa import oa_schedule_incremental
from ..online.yds import yds_schedule
from .machine import MachineModel
from .report import SimReport
from .traces import Trace

__all__ = ["SIM_ALGORITHMS", "SimEvent", "SimResult", "simulate"]

#: Online policies the replay driver knows, in registry order.
SIM_ALGORITHMS: tuple[str, ...] = ("avr", "oa", "bkp")

#: Completion later than ``deadline * (1 + _MISS_RTOL) + _MISS_ATOL`` is a miss
#: (floats: the EDF executor finishes tight jobs within work tolerance).
_MISS_RTOL = 1e-6
_MISS_ATOL = 1e-9

#: Timeline stitching tolerances: pieces closer than this are contiguous, and
#: speeds closer than this (relative) are the same operating point.
_GAP_EPS = 1e-9
_SPEED_RTOL = 1e-9

_KIND_ORDER = {
    "arrival": 0,
    "replan": 1,
    "wake": 2,
    "speed-switch": 3,
    "completion": 4,
    "deadline-miss": 5,
    "sleep": 6,
}


@dataclass(frozen=True)
class SimEvent:
    """One event of the replay (time, kind, optional job index / new speed)."""

    time: float
    kind: str
    job: int | None = None
    speed: float | None = None

    def sort_key(self) -> tuple:
        return (
            self.time,
            _KIND_ORDER.get(self.kind, 99),
            -1 if self.job is None else self.job,
            0.0 if self.speed is None else self.speed,
        )


@dataclass(frozen=True)
class SimResult:
    """Everything :func:`simulate` produced: the report, the executed
    schedule, and the full chronological event list."""

    report: SimReport
    schedule: Schedule
    events: tuple[SimEvent, ...]


def _planned_schedule(
    instance: Instance, machine: MachineModel, algorithm: str, steps_per_interval: int
) -> tuple[Schedule, int]:
    """The executed schedule on this machine, plus the clamped/slowed count."""
    power = machine.power
    levels = machine.levels
    if algorithm == "oa":
        planned = oa_schedule_incremental(instance, power)
        if levels is None:
            return planned, 0
        quantized = quantize_schedule(planned, levels, machine.quantization)
        return quantized.schedule, len(quantized.clamped_jobs)
    if algorithm == "avr":
        profile = avr_speed_profile(instance)
        tolerance = 1e-6
    elif algorithm == "bkp":
        profile = bkp_speed_profile(instance, steps_per_interval)
        tolerance = 1e-3
    else:
        raise InvalidInstanceError(
            f"unknown simulation algorithm {algorithm!r}; known: {SIM_ALGORITHMS}"
        )
    if levels is None:
        return execute_profile_edf(instance, power, profile, work_tolerance=tolerance), 0
    pq = quantize_profile(profile, levels, machine.quantization)
    segments = pq.profile
    if pq.deficit_work > 0:
        # make-up capacity for work the quantized profile cannot place in the
        # original windows: a max-speed tail after the last segment.  EDF only
        # uses it if work is actually left over; jobs finishing there are the
        # recorded deadline misses.
        last_end = float(segments[:, 1].max())
        duration = pq.deficit_work / levels.max_speed * 1.001 + 1e-9
        tail = (last_end, last_end + duration, levels.max_speed)
        segments = np.vstack([segments, tail])
    executed = execute_profile_edf(
        instance, power, segments, work_tolerance=tolerance
    )
    return executed, pq.clamped_segments + pq.slowed_segments


def _merged_runs(schedule: Schedule) -> list[tuple[float, float, float]]:
    """The machine's busy timeline: maximal same-speed runs, chronological.

    Walks the schedule's piece columns ordered by ``(start, end)``, so no
    :class:`~repro.core.schedule.Piece` is built.
    """
    _, _, starts, ends, speeds = schedule.columns
    order = np.lexsort((ends, starts))
    runs: list[tuple[float, float, float]] = []
    for piece_start, piece_end, piece_speed in zip(
        starts[order].tolist(), ends[order].tolist(), speeds[order].tolist()
    ):
        if runs:
            start, end, speed = runs[-1]
            contiguous = piece_start - end <= _GAP_EPS
            same = math.isclose(piece_speed, speed, rel_tol=_SPEED_RTOL)
            if contiguous and same:
                runs[-1] = (start, max(end, piece_end), speed)
                continue
        runs.append((piece_start, piece_end, piece_speed))
    return runs


def simulate(
    trace: Trace | Instance,
    machine: MachineModel,
    algorithm: str = "oa",
    *,
    steps_per_interval: int = 64,
    yds_bound: float | None = None,
) -> SimResult:
    """Replay a trace through an online policy on a machine model.

    ``yds_bound`` injects a precomputed clairvoyant optimum (the scenario
    matrix computes bounds once per trace through the batch engine and its
    cache); left ``None``, the bound is computed here via
    :func:`repro.online.yds.yds_schedule` — the registry's ``yds`` solver.
    """
    instance = trace.to_instance() if isinstance(trace, Trace) else trace
    if not isinstance(instance, Instance):
        raise InvalidInstanceError(
            f"simulate needs a Trace or Instance, got {type(trace).__name__}"
        )
    if not instance.has_deadlines():
        raise InvalidInstanceError(
            "trace replay requires deadlines on every event (EDF ordering "
            "and the YDS bound are deadline-driven)"
        )

    executed, clamped = _planned_schedule(
        instance, machine, algorithm, steps_per_interval
    )

    # --- machine timeline: busy runs, idle gaps, sleep decisions -----------
    runs = _merged_runs(executed)
    busy_time = sum(end - start for start, end, _ in runs)
    events: list[SimEvent] = []
    idle_time = 0.0
    sleep_time = 0.0
    sleep_transitions = 0
    speed_switches = 0
    previous_speed = None  # operating state; idle gaps are speed 0.0
    previous_end = None
    for start, end, speed in runs:
        if previous_end is not None and start - previous_end > _GAP_EPS:
            gap = start - previous_end
            if machine.should_sleep(gap):
                sleep_time += gap
                sleep_transitions += 1
                events.append(SimEvent(time=previous_end, kind="sleep"))
                events.append(SimEvent(time=start, kind="wake"))
            else:
                idle_time += gap
            if previous_speed not in (None, 0.0):
                speed_switches += 1  # stepping down to idle
                events.append(
                    SimEvent(time=previous_end, kind="speed-switch", speed=0.0)
                )
            previous_speed = 0.0
        if previous_speed is None or not math.isclose(
            speed, previous_speed, rel_tol=_SPEED_RTOL, abs_tol=0.0
        ):
            if previous_speed is not None:
                speed_switches += 1
                events.append(SimEvent(time=start, kind="speed-switch", speed=speed))
            previous_speed = speed
        previous_end = max(end, previous_end or end)

    # --- energy accounting --------------------------------------------------
    # dynamic energy is exactly the executed schedule's energy: on a pure
    # machine (no static power, no sleep, no ladder) the replay total equals
    # the registry solver's reported energy bit for bit
    dynamic_energy = float(executed.energy)
    static_energy = machine.static_power * (busy_time + idle_time)
    sleep_energy = 0.0
    transition_energy = 0.0
    if machine.sleep is not None:
        sleep_energy = machine.sleep.power * sleep_time
        transition_energy = machine.sleep.transition_energy * sleep_transitions
    total_energy = dynamic_energy + static_energy + sleep_energy + transition_energy

    # --- deadline accounting ------------------------------------------------
    completions = np.asarray(executed.completion_times, dtype=float)
    deadlines = instance.deadlines
    lateness = completions - deadlines
    miss_mask = completions > deadlines * (1.0 + _MISS_RTOL) + _MISS_ATOL
    deadline_misses = int(np.count_nonzero(miss_mask))
    max_lateness = float(max(0.0, float(lateness.max())))

    # --- arrival / replan / completion events -------------------------------
    for job in instance.jobs:
        events.append(SimEvent(time=job.release, kind="arrival", job=job.index))
        events.append(
            SimEvent(
                time=float(completions[job.index]), kind="completion", job=job.index
            )
        )
        if miss_mask[job.index]:
            events.append(
                SimEvent(time=float(job.deadline), kind="deadline-miss", job=job.index)
            )
    replan_times = sorted(set(float(r) for r in instance.releases))
    for t in replan_times:
        events.append(SimEvent(time=t, kind="replan"))
    events.sort(key=SimEvent.sort_key)

    if yds_bound is None:
        yds_bound = float(yds_schedule(instance, machine.power).energy)

    report = SimReport(
        trace=instance.name,
        algorithm=algorithm,
        machine=machine.name,
        alpha=machine.alpha,
        n_jobs=instance.n_jobs,
        energy=total_energy,
        dynamic_energy=dynamic_energy,
        static_energy=static_energy,
        sleep_energy=sleep_energy,
        transition_energy=transition_energy,
        yds_bound=float(yds_bound),
        energy_ratio=total_energy / float(yds_bound),
        deadline_misses=deadline_misses,
        max_lateness=max_lateness,
        speed_switches=speed_switches,
        sleep_transitions=sleep_transitions,
        clamped_segments=int(clamped),
        replans=len(replan_times),
        n_events=len(events),
        busy_time=float(busy_time),
        idle_time=float(idle_time),
        sleep_time=float(sleep_time),
        makespan=float(executed.makespan),
    )
    return SimResult(report=report, schedule=executed, events=tuple(events))
