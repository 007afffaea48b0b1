"""Verify oracles: the ``Piece`` loops the columnar checks replaced.

:func:`check_schedule_pieces` and :func:`check_optimal_structure_pieces` are
:func:`repro.verify.check_schedule` and
:func:`repro.verify.check_optimal_structure` as they read
:attr:`~repro.core.schedule.Schedule.pieces` one ``Piece`` at a time.  The
columnar checks must return equal findings and reports (``==``);
``tests/test_verify_certificates.py`` pins them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.blocks import blocks_from_speeds
from repro.core.schedule import Schedule
from repro.exceptions import InvalidScheduleError
from repro.verify.report import Finding
from repro.verify.structural import _TIME_EPS
from repro.verify.structure import StructureReport, _EPS

__all__ = ["check_schedule_pieces", "check_optimal_structure_pieces"]


def check_schedule_pieces(
    schedule: Schedule,
    check_deadlines: bool | None = None,
    work_rtol: float = 1e-6,
) -> list[Finding]:
    """Feasibility of a schedule as data, reported as structured findings.

    The same conditions :meth:`Schedule.validate` enforces, but emitted as
    :class:`Finding` objects (one per violated job/pair) instead of raising on
    the first problem.  ``check_deadlines`` defaults to "check jobs that carry
    one".
    """
    findings: list[Finding] = []
    instance = schedule.instance
    by_job: list[list] = [[] for _ in range(instance.n_jobs)]
    for piece in schedule.pieces:
        if piece.job < instance.n_jobs:
            by_job[piece.job].append(piece)

    for job, pieces in zip(instance.jobs, by_job):
        if not pieces:
            findings.append(
                Finding(
                    code="job-unscheduled",
                    check="feasibility",
                    message=f"job {job.index} has no execution pieces",
                    data={"job": job.index},
                )
            )
            continue
        done = sum(p.work for p in pieces)
        if not math.isclose(done, job.work, rel_tol=work_rtol, abs_tol=1e-9):
            findings.append(
                Finding(
                    code="work-mismatch",
                    check="feasibility",
                    message=(
                        f"job {job.index}: scheduled work {done:g} != required "
                        f"{job.work:g}"
                    ),
                    data={"job": job.index, "scheduled": done, "required": job.work},
                )
            )
        start = min(p.start for p in pieces)
        if start < job.release - _TIME_EPS:
            findings.append(
                Finding(
                    code="release-violated",
                    check="feasibility",
                    message=(
                        f"job {job.index} starts at {start:g} before its release "
                        f"{job.release:g}"
                    ),
                    data={"job": job.index, "start": start, "release": job.release},
                )
            )
        deadline_applies = (
            job.deadline is not None
            if check_deadlines is None
            else (check_deadlines and job.deadline is not None)
        )
        if deadline_applies:
            end = max(p.end for p in pieces)
            if end > job.deadline + _TIME_EPS:
                findings.append(
                    Finding(
                        code="deadline-missed",
                        check="feasibility",
                        message=(
                            f"job {job.index} finishes at {end:g} after its "
                            f"deadline {job.deadline:g}"
                        ),
                        data={"job": job.index, "end": end, "deadline": job.deadline},
                    )
                )

    by_proc: dict[int, list] = {}
    for piece in schedule.pieces:
        by_proc.setdefault(piece.processor, []).append(piece)
    for proc, pieces in by_proc.items():
        pieces.sort(key=lambda p: p.start)
        for a, b in zip(pieces, pieces[1:]):
            if b.start < a.end - _TIME_EPS:
                findings.append(
                    Finding(
                        code="pieces-overlap",
                        check="feasibility",
                        message=(
                            f"processor {proc}: pieces overlap "
                            f"([{a.start:g},{a.end:g}] job {a.job} and "
                            f"[{b.start:g},{b.end:g}] job {b.job})"
                        ),
                        data={"processor": proc, "jobs": [a.job, b.job]},
                    )
                )
    return findings


def check_optimal_structure_pieces(schedule: Schedule, rtol: float = 1e-6) -> StructureReport:
    """Evaluate the Lemma 2-6 structural properties on a uniprocessor schedule.

    The schedule must use a single processor; multi-processor schedules raise
    :class:`InvalidScheduleError` (apply the check per processor instead).
    """
    procs = {p.processor for p in schedule.pieces}
    if len(procs) != 1:
        raise InvalidScheduleError(
            "structure checks apply to uniprocessor schedules; "
            f"this schedule uses processors {sorted(procs)}"
        )
    instance = schedule.instance
    pieces_by_job: dict[int, list] = {}
    for piece in schedule.pieces:
        pieces_by_job.setdefault(piece.job, []).append(piece)

    # Lemma 2: single speed (and contiguous execution) per job.
    single_speed = True
    for job_pieces in pieces_by_job.values():
        speeds = {round(p.speed, 12) for p in job_pieces}
        if len(speeds) > 1 or len(job_pieces) > 1:
            single_speed = False
            break

    # Lemma 3: release order == execution order.
    ordered = sorted(schedule.pieces, key=lambda p: p.start)
    job_sequence = []
    for piece in ordered:
        if not job_sequence or job_sequence[-1] != piece.job:
            job_sequence.append(piece.job)
    release_order = job_sequence == sorted(job_sequence)

    # Lemma 4: no idle time between r_1 and the last completion.
    no_idle = True
    clock = instance.first_release
    for piece in ordered:
        if piece.start > clock + _EPS:
            no_idle = False
            break
        clock = max(clock, piece.end)

    # Lemmas 5-6: block speeds uniform and non-decreasing.  Only meaningful for
    # single-speed-per-job schedules; otherwise report False conservatively.
    uniform = False
    non_decreasing = False
    if single_speed and release_order:
        speeds = schedule.speeds
        ranges = blocks_from_speeds(instance, speeds)
        uniform = True
        block_speeds = []
        for first, last in ranges:
            segment = speeds[first : last + 1]
            if not np.allclose(segment, segment[0], rtol=rtol, atol=1e-12):
                uniform = False
            block_speeds.append(float(np.mean(segment)))
        non_decreasing = all(
            b2 >= b1 * (1.0 - rtol) for b1, b2 in zip(block_speeds, block_speeds[1:])
        )

    return StructureReport(
        single_speed_per_job=single_speed,
        release_order=release_order,
        no_idle=no_idle,
        uniform_speed_per_block=uniform,
        non_decreasing_block_speeds=non_decreasing,
    )
