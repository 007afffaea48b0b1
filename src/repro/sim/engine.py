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

The replay walks the executed machine timeline as masked array code over
the schedule's piece columns: pieces merge into busy runs, and the idle
gaps between runs are idled or slept through.  Its events are arrivals,
replan points (one per distinct arrival time — every policy replans when
new work appears), speed-switch boundaries (idle counts as speed 0),
sleep/wake transitions, completions and deadline misses; they are counted
arithmetically, and :attr:`SimResult.events` builds them on first access.
Both the event list and every energy figure are pure functions of
``(trace, machine, algorithm)`` — no wall clock, no hidden randomness — so
runs are deterministic and goldens can pin them byte for byte.

On a machine with no static power, no sleep state and no speed ladder the
replay charges exactly ``schedule.energy`` of the same schedule object the
registry's online solvers build, so continuous-model rows reproduce the
``repro compete`` pipeline bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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


class _Timeline(NamedTuple):
    """The executed machine timeline, as arrays over its busy runs.

    ``starts`` and ``speeds`` hold every run; the other three hold runs
    ``1..``: the machine's latest busy end before the run, whether an idle
    gap precedes it, and whether that gap is slept through.
    """

    starts: np.ndarray
    speeds: np.ndarray
    gap_from: np.ndarray
    gapped: np.ndarray
    sleeping: np.ndarray


@dataclass(frozen=True)
class SimResult:
    """Everything :func:`simulate` produced: the report, the executed
    schedule, and the full chronological event list."""

    report: SimReport
    schedule: Schedule
    _timeline: _Timeline = field(repr=False, compare=False)
    _missed: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def events(self) -> tuple[SimEvent, ...]:
        """Every replay event in chronological order, built on first access."""
        return _events(self.schedule, self._timeline, self._missed)


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


def _isclose(a: np.ndarray, b: np.ndarray, rel_tol: float) -> np.ndarray:
    """``math.isclose(a, b, rel_tol=rel_tol)`` elementwise, for finite floats."""
    diff = np.abs(b - a)
    return (a == b) | (diff <= np.abs(rel_tol * b)) | (diff <= np.abs(rel_tol * a))


def _run_heads(contiguous: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """Indices of the pieces that open a busy run (pieces in time order).

    A piece joins the current run when it is contiguous with it and within
    ``_SPEED_RTOL`` of the run's *first* speed.  The pairwise test (each
    piece against its predecessor) gives the same runs whenever every piece
    it joins is close to its run's first speed and every speed break it
    makes is one from that first speed too; otherwise the speeds drift
    within a stretch, and the runs are found one piece at a time.
    """
    close = _isclose(speeds[1:], speeds[:-1], _SPEED_RTOL)
    opens = np.concatenate(([True], ~(contiguous & close)))
    first = np.maximum.accumulate(np.where(opens, np.arange(len(speeds)), 0))
    anchored = _isclose(speeds[1:], speeds[first[:-1]], _SPEED_RTOL)
    if np.array_equal(contiguous & anchored, ~opens[1:]):
        return np.flatnonzero(opens)
    heads = [0]
    for k in range(1, len(speeds)):
        if not (contiguous[k - 1] and math.isclose(
            speeds[k], speeds[heads[-1]], rel_tol=_SPEED_RTOL
        )):
            heads.append(k)
    return np.array(heads, dtype=np.intp)


def _timeline(schedule: Schedule, machine: MachineModel) -> tuple[_Timeline, float, float, float]:
    """The busy runs and idle gaps of a schedule, and busy/idle/sleep time.

    The pieces are read from :attr:`Schedule.columns` in ``(start, end)``
    order.  One processor's pieces never nest, so the latest end before a
    piece is the end of the run it would join: a piece more than
    ``_GAP_EPS`` past it opens a run after an idle gap.  Busy time is the
    built-in ``sum`` of the run lengths (from Python 3.12 ``sum`` compensates
    its rounding, so no numpy total matches it on every version); idle and
    sleep time are sequential ``np.cumsum`` in run order, as a ``+=`` loop
    adds them.
    """
    _, _, starts, ends, speeds = schedule.columns
    order = np.lexsort((ends, starts))
    starts, ends, speeds = starts[order], ends[order], speeds[order]
    reach = np.maximum.accumulate(ends)
    step = starts[1:] - reach[:-1]
    heads = _run_heads(step <= _GAP_EPS, speeds)
    run_starts = starts[heads]
    gaps = step[heads[1:] - 1]
    gapped = gaps > _GAP_EPS
    sleeping = gapped & machine.should_sleep(gaps)
    timeline = _Timeline(
        starts=run_starts,
        speeds=speeds[heads],
        gap_from=reach[heads[1:] - 1],
        gapped=gapped,
        sleeping=sleeping,
    )
    busy_time = sum((np.maximum.reduceat(ends, heads) - run_starts).tolist())
    idle_time = _running_total(gaps[gapped & ~sleeping])
    sleep_time = _running_total(gaps[sleeping])
    return timeline, busy_time, idle_time, sleep_time


def _running_total(values: np.ndarray) -> float:
    """The total of ``values`` added left to right, as a ``+=`` loop adds."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _events(schedule: Schedule, timeline: _Timeline, missed: np.ndarray) -> tuple[SimEvent, ...]:
    """The replay's events, chronological: what :func:`simulate` counts."""
    events: list[SimEvent] = []
    gap_from = timeline.gap_from.tolist()
    run_starts = timeline.starts.tolist()
    run_speeds = timeline.speeds.tolist()
    for i, (gapped, sleeping) in enumerate(
        zip(timeline.gapped.tolist(), timeline.sleeping.tolist())
    ):
        if sleeping:
            events.append(SimEvent(time=gap_from[i], kind="sleep"))
            events.append(SimEvent(time=run_starts[i + 1], kind="wake"))
        if gapped:
            # stepping down to idle
            events.append(SimEvent(time=gap_from[i], kind="speed-switch", speed=0.0))
        events.append(
            SimEvent(time=run_starts[i + 1], kind="speed-switch", speed=run_speeds[i + 1])
        )
    instance = schedule.instance
    completions = schedule.completion_times
    for job in instance.jobs:
        events.append(SimEvent(time=job.release, kind="arrival", job=job.index))
        events.append(
            SimEvent(
                time=float(completions[job.index]), kind="completion", job=job.index
            )
        )
        if missed[job.index]:
            events.append(
                SimEvent(time=float(job.deadline), kind="deadline-miss", job=job.index)
            )
    replan_times = sorted(set(float(r) for r in instance.releases))
    for t in replan_times:
        events.append(SimEvent(time=t, kind="replan"))
    events.sort(key=SimEvent.sort_key)
    return tuple(events)


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
    timeline, busy_time, idle_time, sleep_time = _timeline(executed, machine)
    sleep_transitions = int(np.count_nonzero(timeline.sleeping))
    # every run after the first opens with a switch to its speed (a run
    # contiguous with the previous one is not close to its speed, or the
    # two would have merged); a gap adds the step down to idle
    speed_switches = len(timeline.starts) - 1 + int(np.count_nonzero(timeline.gapped))

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

    # --- events: arrivals and completions per job, one replan per distinct
    # arrival time, misses, sleep/wake pairs and speed switches -------------
    replans = len(np.unique(instance.releases))
    n_events = (
        2 * instance.n_jobs + deadline_misses + replans
        + 2 * sleep_transitions + speed_switches
    )

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
        replans=replans,
        n_events=n_events,
        busy_time=float(busy_time),
        idle_time=float(idle_time),
        sleep_time=float(sleep_time),
        makespan=float(executed.makespan),
    )
    return SimResult(report, executed, timeline, miss_mask)
