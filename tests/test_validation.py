"""Tests for the Lemma 2-6 structural checks (and their deprecation shim).

The checks themselves now live in :mod:`repro.verify.structure`; the imports
below go through the blessed ``repro.core`` re-exports on purpose, proving
the historical surface still works warning-free.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core import (
    CUBE,
    Instance,
    Piece,
    Schedule,
    assert_optimal_structure,
    check_optimal_structure,
)
from repro.exceptions import InvalidScheduleError
from repro.makespan import incmerge


class TestStructureChecks:
    def test_optimal_schedule_satisfies_all(self, fig1, cube):
        sched = incmerge(fig1, cube, 17.0).schedule()
        report = check_optimal_structure(sched)
        assert report.satisfies_all
        assert_optimal_structure(sched)

    def test_idle_schedule_flagged(self, cube):
        inst = Instance.from_arrays([0.0, 1.0], [1.0, 1.0])
        # run job 0 very fast: idle before job 1's release
        sched = Schedule.from_speeds(inst, cube, [10.0, 1.0])
        report = check_optimal_structure(sched)
        assert not report.no_idle
        assert not report.satisfies_all
        with pytest.raises(InvalidScheduleError):
            assert_optimal_structure(sched)

    def test_decreasing_block_speeds_flagged(self, cube):
        inst = Instance.from_arrays([0.0, 2.0], [2.0, 2.0])
        # both jobs are their own blocks (job 0 ends exactly at r_1), but the
        # second block is slower than the first
        sched = Schedule.from_speeds(inst, cube, [1.0, 0.5])
        report = check_optimal_structure(sched)
        assert report.no_idle
        assert not report.non_decreasing_block_speeds

    def test_non_uniform_block_speed_flagged(self, cube):
        inst = Instance.from_arrays([0.0, 1.0], [2.0, 2.0])
        # jobs run back to back (single block) at different speeds
        sched = Schedule.from_speeds(inst, cube, [1.0, 2.0])
        report = check_optimal_structure(sched)
        assert not report.uniform_speed_per_block

    def test_multiprocessor_schedule_rejected(self, cube):
        inst = Instance.from_arrays([0.0, 0.0], [1.0, 1.0])
        pieces = [
            Piece(job=0, processor=0, start=0.0, end=1.0, speed=1.0),
            Piece(job=1, processor=1, start=0.0, end=1.0, speed=1.0),
        ]
        sched = Schedule(inst, cube, pieces)
        with pytest.raises(InvalidScheduleError):
            check_optimal_structure(sched)

    def test_multi_piece_job_flagged(self, cube):
        inst = Instance.from_arrays([0.0], [2.0])
        pieces = [
            Piece(job=0, processor=0, start=0.0, end=1.0, speed=1.0),
            Piece(job=0, processor=0, start=1.0, end=2.0, speed=1.0),
        ]
        sched = Schedule(inst, cube, pieces)
        report = check_optimal_structure(sched)
        assert not report.single_speed_per_job


class TestCoreStructureReexports:
    """``repro.core`` re-exports the structure oracle of repro.verify.structure."""

    def test_blessed_core_reexport_does_not_warn(self):
        import repro.core
        import repro.verify.structure as new_home

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert repro.core.check_optimal_structure is new_home.check_optimal_structure
            assert repro.core.StructureReport is new_home.StructureReport
