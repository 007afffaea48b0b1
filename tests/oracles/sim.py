"""Replay-walk oracle: the eager event walk of the trace-replay engine.

:func:`simulate_eager` is :func:`repro.sim.engine.simulate` as it was before
the walk became masked array code: :func:`merged_runs` merges the executed
pieces into busy runs in a Python loop with :func:`math.isclose`, the
idle/sleep/speed-switch accounting walks those runs one by one, and every
event is built as a :class:`~repro.sim.engine.SimEvent` and key-sorted.  The
clairvoyant bound is realised with the rescanning EDF loop
:func:`oracles.edf.edf_schedule_at_speeds_scan`.  The executed schedule comes
from the engine's own planners (``repro.sim.engine._planned_schedule``), so
a test that swaps a planner attribute of ``repro.sim.engine`` swaps it here
too.  :func:`repro.sim.engine.simulate` must reproduce the report and the
event tuple bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from oracles.edf import edf_schedule_at_speeds_scan
from repro.core.job import Instance
from repro.core.schedule import Schedule
from repro.online.yds import yds_speeds
from repro.sim.engine import SimEvent, _planned_schedule
from repro.sim.machine import MachineModel
from repro.sim.report import SimReport
from repro.sim.traces import Trace

__all__ = ["merged_runs", "simulate_eager"]

_MISS_RTOL = 1e-6
_MISS_ATOL = 1e-9
_GAP_EPS = 1e-9
_SPEED_RTOL = 1e-9


def merged_runs(schedule: Schedule) -> list[tuple[float, float, float]]:
    """The machine's busy timeline: maximal same-speed runs, chronological."""
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


def simulate_eager(
    trace: Trace | Instance,
    machine: MachineModel,
    algorithm: str = "oa",
    *,
    steps_per_interval: int = 64,
    yds_bound: float | None = None,
) -> tuple[SimReport, tuple[SimEvent, ...]]:
    """Replay a trace with the eager walk; returns the report and the events."""
    instance = trace.to_instance() if isinstance(trace, Trace) else trace
    executed, clamped = _planned_schedule(
        instance, machine, algorithm, steps_per_interval
    )

    # --- machine timeline: busy runs, idle gaps, sleep decisions -----------
    runs = merged_runs(executed)
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
        yds_bound = float(
            edf_schedule_at_speeds_scan(
                instance, machine.power, yds_speeds(instance).speeds
            ).energy
        )

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
    return report, tuple(events)
