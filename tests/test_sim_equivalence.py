"""Equivalence suite for the array-native replay walk.

:func:`repro.sim.simulate` merges the executed pieces into busy runs, and
accounts idle, sleep and speed switches, as masked array code; it counts its
events arithmetically and builds :attr:`SimResult.events` on first access.
Every report field and the full event tuple are pinned, with ``==``, to the
eager walk it replaced (``oracles.sim.simulate_eager``), on the benchmark's
64-job traces and on random (Hypothesis) traces, for every machine preset and
policy.  The suite also holds the replay's hot path to building no
:class:`~repro.core.schedule.Piece`, and replays at large absolute times to
completing with the energies of the unshifted replay.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles.sim
from _strategies import hypothesis_settings
from oracles.sim import merged_runs, simulate_eager
from repro.core import CUBE, Instance
from repro.core.schedule import Piece, Schedule
from repro.online import oa_schedule_incremental, yds_schedule
from repro.sim import (
    MACHINE_MODEL_NAMES,
    SIM_ALGORITHMS,
    Trace,
    TraceEvent,
    generate_trace,
    machine_model,
    simulate,
)
import repro.sim.engine as engine

TRACE_FAMILIES = ("day-night", "heavy-tail", "mmpp")

common_settings = hypothesis_settings(max_examples=30)


def _assert_replay_identical(trace, machine_name, algorithm):
    machine = machine_model(machine_name)
    result = simulate(trace, machine, algorithm)
    report, events = simulate_eager(trace, machine, algorithm)
    assert result.report == report
    assert result.events == events
    assert result.report.n_events == len(result.events)


@pytest.mark.parametrize("machine_name", MACHINE_MODEL_NAMES)
@pytest.mark.parametrize("family", TRACE_FAMILIES)
def test_replay_bitwise_on_benchmark_traces(family, machine_name):
    trace = generate_trace(family, 64, seed=7000)
    for algorithm in SIM_ALGORITHMS:
        _assert_replay_identical(trace, machine_name, algorithm)


def _compensated_sum(values, start=0):
    """The built-in ``sum`` over floats from Python 3.12: Neumaier's
    compensated summation, whose last bits differ from adding left to right."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.mark.parametrize("machine_name", ["pure", "static-sleep"])
def test_busy_time_is_totalled_as_the_builtin_sum(monkeypatch, machine_name):
    """The eager walk totals busy time with the built-in ``sum``, which rounds
    differently from Python 3.12 on.  With both sides' ``sum`` swapped for the
    compensated one, the replay still matches bit for bit, so the pin holds
    on every interpreter."""
    monkeypatch.setattr(engine, "sum", _compensated_sum, raising=False)
    monkeypatch.setattr(oracles.sim, "sum", _compensated_sum, raising=False)
    for family in TRACE_FAMILIES:
        trace = generate_trace(family, 64, seed=7000)
        for algorithm in SIM_ALGORITHMS:
            _assert_replay_identical(trace, machine_name, algorithm)


@pytest.mark.slow
@common_settings
@given(
    family=st.sampled_from(TRACE_FAMILIES),
    size=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=10**6),
    machine_name=st.sampled_from(MACHINE_MODEL_NAMES),
    algorithm=st.sampled_from(SIM_ALGORITHMS),
)
def test_replay_bitwise_hypothesis(family, size, seed, machine_name, algorithm):
    _assert_replay_identical(generate_trace(family, size, seed), machine_name, algorithm)


def test_run_merge_follows_each_runs_first_speed(monkeypatch):
    """A piece joins a run when it is within 1e-9 of the run's *first*
    speed, not its neighbour's: drifting speeds merge differently from a
    pairwise test, and the walk must follow the chained rule."""
    speeds = [1.0, 1.0 + 0.8e-9, 1.0 - 0.5e-9, 1.0 + 1.6e-9, 1.0 + 2.4e-9, 2.0, 2.0]
    starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 16.0]
    ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 17.0]
    instance = Instance.from_arrays(
        [0.0] * 6 + [10.0], speeds, deadlines=[20.0] * 7, name="drift"
    )

    def drifting(inst, power):
        return Schedule.from_columns(inst, power, np.arange(7), starts, ends, speeds)

    monkeypatch.setattr(engine, "oa_schedule_incremental", drifting)
    runs = merged_runs(drifting(instance, CUBE))
    assert [start for start, _, _ in runs] == [0.0, 3.0, 5.0, 16.0]
    for machine_name in ("pure", "static-sleep"):
        _assert_replay_identical(instance, machine_name, "oa")


def test_replay_hot_path_builds_no_piece(monkeypatch):
    """The replay, the YDS bound and the OA engine read and write piece
    columns only.  OA on a ladder machine is left out: it goes through the
    public, multiprocessor-capable ``quantize_schedule``, which builds
    pieces."""

    def refuse(self):
        raise AssertionError("the hot path built a Piece")

    monkeypatch.setattr(Piece, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="built a Piece"):
        Piece(job=0, processor=0, start=0.0, end=1.0, speed=1.0)
    trace = generate_trace("mmpp", 16, 3)
    cases = [(machine, algorithm) for machine in ("pure", "static-sleep")
             for algorithm in ("oa", "avr", "bkp")]
    cases += [("athlon64", "avr"), ("athlon64", "bkp")]
    for machine_name, algorithm in cases:
        result = simulate(trace, machine_model(machine_name), algorithm)
        assert result.report.n_events == len(result.events)
    instance = trace.to_instance()
    assert yds_schedule(instance, CUBE).energy > 0.0
    assert oa_schedule_incremental(instance, CUBE).energy > 0.0


# ----------------------------------------------------------------------
# replays at large absolute times
# ----------------------------------------------------------------------

#: offset -> relative energy tolerance against the unshifted replay.  The
#: float spacing is 1.8e-12 at 1e4, 1.2e-10 at 1e6 and 2.4e-7 at 1.7e9, so
#: a job window of ~1 time unit is resolved only that finely; at 1.7e9 one
#: of these BKP replays lands 1.03e-6 from its unshifted energy.
OFFSET_RTOL = {1e4: 1e-9, 1e6: 1e-6, 1.7e9: 1e-5}


def _shifted(trace: Trace, offset: float) -> Trace:
    return Trace(
        trace.name,
        tuple(
            TraceEvent(time=e.time + offset, work=e.work,
                       deadline=e.deadline + offset, weight=e.weight)
            for e in trace.events
        ),
    )


@pytest.mark.parametrize("offset", sorted(OFFSET_RTOL))
def test_replays_at_large_absolute_times_complete(offset):
    """A residual whose finish time rounds to the current time counts as
    done, and so does an OA job whose planned end precedes the next
    release, so AVR, BKP, OA and the YDS bound complete far from t = 0.
    Deadline misses are not compared: the miss test's 1e-9 absolute slack
    is below the float spacing from 1e6 on."""
    rtol = OFFSET_RTOL[offset]
    for family in TRACE_FAMILIES:
        for seed in range(6):
            trace = generate_trace(family, 16, seed)
            moved = _shifted(trace, offset)
            for machine_name in ("pure", "athlon64"):
                machine = machine_model(machine_name)
                for algorithm in ("avr", "bkp", "oa"):
                    want = simulate(trace, machine, algorithm).report.energy
                    got = simulate(moved, machine, algorithm).report.energy
                    assert got == pytest.approx(want, rel=rtol)
            want = yds_schedule(trace.to_instance(), CUBE).energy
            got = yds_schedule(moved.to_instance(), CUBE).energy
            assert got == pytest.approx(want, rel=rtol)
