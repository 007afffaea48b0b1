"""Tests for schedule representation, metrics and validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import CUBE, Instance, Piece, Schedule
from repro.exceptions import InvalidScheduleError


class TestPiece:
    def test_work_and_duration(self):
        piece = Piece(job=0, processor=0, start=1.0, end=3.0, speed=2.0)
        assert piece.duration == pytest.approx(2.0)
        assert piece.work == pytest.approx(4.0)

    def test_invalid_interval(self):
        with pytest.raises(InvalidScheduleError):
            Piece(job=0, processor=0, start=3.0, end=3.0, speed=1.0)

    def test_invalid_speed(self):
        with pytest.raises(InvalidScheduleError):
            Piece(job=0, processor=0, start=0.0, end=1.0, speed=0.0)
        with pytest.raises(InvalidScheduleError):
            Piece(job=0, processor=0, start=0.0, end=1.0, speed=math.inf)

    def test_negative_indices(self):
        with pytest.raises(InvalidScheduleError):
            Piece(job=-1, processor=0, start=0.0, end=1.0, speed=1.0)


class TestFromSpeeds:
    def test_fig1_schedule(self, fig1, cube):
        sched = Schedule.from_speeds(fig1, cube, [1.0, 2.0, 2.0])
        assert sched.makespan == pytest.approx(6.5)
        assert sched.energy == pytest.approx(5 * 1 + 2 * 4 + 1 * 4)
        assert sched.total_flow == pytest.approx(5.0 + 1.0 + 0.5)
        sched.validate()

    def test_idle_gap_inserted_for_late_release(self, cube):
        inst = Instance.from_arrays([0.0, 10.0], [1.0, 1.0])
        sched = Schedule.from_speeds(inst, cube, [1.0, 1.0])
        starts = sched.start_times
        assert starts[0] == pytest.approx(0.0)
        assert starts[1] == pytest.approx(10.0)
        assert sched.makespan == pytest.approx(11.0)

    def test_wrong_speed_count(self, fig1, cube):
        with pytest.raises(InvalidScheduleError):
            Schedule.from_speeds(fig1, cube, [1.0, 2.0])

    def test_nonpositive_speed_rejected(self, fig1, cube):
        with pytest.raises(InvalidScheduleError):
            Schedule.from_speeds(fig1, cube, [1.0, -2.0, 1.0])


class TestMultiprocessorConstruction:
    def test_from_processor_speeds(self, cube):
        inst = Instance.from_arrays([0, 0, 1, 1], [1, 1, 1, 1])
        sched = Schedule.from_processor_speeds(
            inst, cube, {0: [0, 2], 1: [1, 3]}, [1.0, 1.0, 2.0, 2.0]
        )
        assert sched.n_processors == 2
        sched.validate()
        per_proc = sched.processor_completion_times()
        assert per_proc.shape == (2,)

    def test_duplicate_assignment_rejected(self, cube):
        inst = Instance.from_arrays([0, 0], [1, 1])
        with pytest.raises(InvalidScheduleError):
            Schedule.from_processor_speeds(inst, cube, {0: [0, 1], 1: [1]}, [1.0, 1.0])

    def test_missing_job_rejected(self, cube):
        inst = Instance.from_arrays([0, 0], [1, 1])
        with pytest.raises(InvalidScheduleError):
            Schedule.from_processor_speeds(inst, cube, {0: [0]}, [1.0, 1.0])


class TestMetrics:
    def test_flow_and_weighted_flow(self, cube):
        inst = Instance.from_arrays([0.0, 1.0], [1.0, 1.0], weights=[1.0, 3.0])
        sched = Schedule.from_speeds(inst, cube, [1.0, 1.0])
        # C = [1, 2]; flows = [1, 1]
        assert sched.total_flow == pytest.approx(2.0)
        assert sched.total_weighted_flow == pytest.approx(1.0 + 3.0)
        assert sched.max_flow == pytest.approx(1.0)

    def test_energy_by_processor_sums_to_total(self, cube):
        inst = Instance.from_arrays([0, 0, 0, 0], [1, 2, 1, 2])
        sched = Schedule.from_processor_speeds(
            inst, cube, {0: [0, 1], 1: [2, 3]}, [1.0, 2.0, 1.0, 2.0]
        )
        assert sched.energy_by_processor().sum() == pytest.approx(sched.energy)


class TestValidation:
    def test_overlap_detected(self, cube):
        inst = Instance.from_arrays([0, 0], [1, 1])
        pieces = [
            Piece(job=0, processor=0, start=0.0, end=1.0, speed=1.0),
            Piece(job=1, processor=0, start=0.5, end=1.5, speed=1.0),
        ]
        sched = Schedule(inst, cube, pieces)
        with pytest.raises(InvalidScheduleError):
            sched.validate()

    def test_start_before_release_detected(self, cube):
        inst = Instance.from_arrays([0, 5], [1, 1])
        pieces = [
            Piece(job=0, processor=0, start=0.0, end=1.0, speed=1.0),
            Piece(job=1, processor=0, start=1.0, end=2.0, speed=1.0),
        ]
        sched = Schedule(inst, cube, pieces)
        with pytest.raises(InvalidScheduleError):
            sched.validate()

    def test_work_mismatch_detected(self, cube):
        inst = Instance.from_arrays([0], [2.0])
        pieces = [Piece(job=0, processor=0, start=0.0, end=1.0, speed=1.0)]
        sched = Schedule(inst, cube, pieces)
        with pytest.raises(InvalidScheduleError):
            sched.validate()

    def test_energy_budget_check(self, fig1, cube):
        sched = Schedule.from_speeds(fig1, cube, [1.0, 2.0, 2.0])  # energy 17
        sched.validate(energy_budget=17.0)
        with pytest.raises(InvalidScheduleError):
            sched.validate(energy_budget=10.0)
        assert not sched.is_valid(energy_budget=10.0)
        assert sched.is_valid(energy_budget=20.0)

    def test_deadline_check(self, cube):
        inst = Instance.from_arrays([0.0], [2.0], deadlines=[1.0])
        sched = Schedule.from_speeds(inst, cube, [1.0])  # finishes at 2 > deadline 1
        sched.validate()  # deadlines not enforced by default
        with pytest.raises(InvalidScheduleError):
            sched.validate(require_deadlines=True)

    def test_missing_piece_for_job(self, cube):
        inst = Instance.from_arrays([0, 0], [1, 1])
        pieces = [Piece(job=0, processor=0, start=0.0, end=1.0, speed=1.0)]
        sched = Schedule(inst, cube, pieces)
        with pytest.raises(InvalidScheduleError):
            _ = sched.completion_times

    def test_empty_schedule_rejected(self, fig1, cube):
        with pytest.raises(InvalidScheduleError):
            Schedule(fig1, cube, [])


class TestFromColumns:
    """``Schedule.from_columns``: the ``Piece`` rules over whole columns, and
    a schedule equal bit for bit to the one built from ``Piece`` objects."""

    def test_matches_the_piece_built_schedule_bitwise(self, cube):
        inst = Instance.from_arrays([0.0, 0.0, 0.5], [1.3, 1.6, 0.4])
        # unsorted, a preempted job, a start tie, speeds with float noise
        rows = [
            (2, 0.5, 1.75, 0.3 + 1e-17),
            (0, 1.75, 2.0, 2.0 / 3.0),
            (1, 0.0, 0.5, 1.1),
            (0, 2.5, 3.25, 0.7),
            (1, 2.5, 2.75, 1.9),
        ]
        built = Schedule(
            inst, cube,
            [Piece(job=j, processor=0, start=a, end=b, speed=s) for j, a, b, s in rows],
        )
        jobs, starts, ends, speeds = (list(column) for column in zip(*rows))
        columnar = Schedule.from_columns(inst, cube, jobs, starts, ends, speeds)
        assert columnar._pieces is None  # nothing built before it is asked for
        assert columnar.energy == built.energy
        assert np.array_equal(columnar.speeds, built.speeds)
        assert np.array_equal(columnar.completion_times, built.completion_times)
        assert np.array_equal(columnar.start_times, built.start_times)
        for got, want in zip(columnar.columns, built.columns):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert columnar.n_processors == built.n_processors == 1
        assert columnar.pieces == built.pieces
        assert all(type(p.start) is float and type(p.job) is int for p in columnar.pieces)

    @pytest.mark.parametrize(
        "row, match",
        [
            ((-1, 0.0, 1.0, 1.0), "non-negative"),
            ((0, math.nan, 1.0, 1.0), "finite"),
            ((0, 0.0, math.inf, 1.0), "finite"),
            ((0, 1.0, 1.0, 1.0), "positive duration"),
            ((0, 2.0, 1.0, 1.0), "positive duration"),
            ((0, 0.0, 1.0, 0.0), "speed"),
            ((0, 0.0, 1.0, -1.0), "speed"),
            ((0, 0.0, 1.0, math.inf), "speed"),
            ((0, 0.0, 1.0, math.nan), "speed"),
        ],
    )
    def test_each_piece_rule_raises(self, cube, row, match):
        inst = Instance.from_arrays([0.0, 0.0], [1.0, 1.0])
        good = (1, 0.0, 1.0, 1.0)
        jobs, starts, ends, speeds = zip(good, row, good)
        with pytest.raises(InvalidScheduleError, match=match) as columnar:
            Schedule.from_columns(inst, cube, jobs, starts, ends, speeds)
        with pytest.raises(InvalidScheduleError) as piece:
            Piece(job=row[0], processor=0, start=row[1], end=row[2], speed=row[3])
        assert str(columnar.value) == str(piece.value)

    def test_job_index_out_of_range_raises(self, cube):
        inst = Instance.from_arrays([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(InvalidScheduleError, match="only 2 jobs"):
            Schedule.from_columns(inst, cube, [0, 2], [0.0, 1.0], [1.0, 2.0], [1.0, 1.0])

    def test_empty_and_ragged_columns_raise(self, fig1, cube):
        with pytest.raises(InvalidScheduleError, match="at least one piece"):
            Schedule.from_columns(fig1, cube, [], [], [], [])
        with pytest.raises(InvalidScheduleError, match="same length"):
            Schedule.from_columns(fig1, cube, [0, 1], [0.0], [1.0], [1.0])
