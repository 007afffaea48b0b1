"""Schedule representation and evaluation.

A *schedule* assigns each job one or more execution pieces, each piece being a
time interval on a processor together with a constant speed.  The optimal
schedules constructed by the paper's algorithms always run each job
contiguously at a single speed (Lemma 2), but the more general representation
is needed for:

* the deadline-based substrate algorithms (YDS / AVR / OA / BKP) which
  preempt jobs,
* independent validation: any candidate schedule can be replayed and its
  energy / metrics recomputed from the raw pieces, with no reference to the
  algorithm that produced it.

The module deliberately separates *construction helpers* (``from_speeds`` for
the canonical run-in-release-order uniprocessor schedules) from *evaluation*
(completion times, makespan, flow, energy) so that algorithm modules only
produce data and all scoring lives in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import InvalidScheduleError
from .job import Instance
from .kernels import chain_start_times, power_eval
from .power import PowerFunction

__all__ = ["Piece", "Schedule"]

_TIME_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class Piece:
    """One contiguous execution piece of a job on a processor.

    ``speed`` is constant over the piece; the work completed by the piece is
    ``speed * (end - start)``.
    """

    job: int
    processor: int
    start: float
    end: float
    speed: float

    def __post_init__(self) -> None:
        if self.job < 0 or self.processor < 0:
            raise InvalidScheduleError(
                f"piece indices must be non-negative, got job={self.job}, "
                f"processor={self.processor}"
            )
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise InvalidScheduleError(
                f"piece times must be finite, got [{self.start}, {self.end}]"
            )
        if self.end <= self.start:
            raise InvalidScheduleError(
                f"piece must have positive duration, got [{self.start}, {self.end}]"
            )
        if not math.isfinite(self.speed) or self.speed <= 0.0:
            raise InvalidScheduleError(
                f"piece speed must be finite and > 0, got {self.speed}"
            )

    @property
    def duration(self) -> float:
        """Length of the piece in time."""
        return self.end - self.start

    @property
    def work(self) -> float:
        """Work completed by the piece."""
        return self.speed * self.duration


class Schedule:
    """A complete schedule for an :class:`~repro.core.job.Instance`.

    Parameters
    ----------
    instance:
        The problem instance being scheduled.
    power:
        The power function used to charge energy.
    pieces:
        All execution pieces.  Order does not matter; they are sorted
        internally.
    n_processors:
        Number of processors.  Defaults to one more than the largest processor
        index appearing in ``pieces`` (at least 1).
    """

    def __init__(
        self,
        instance: Instance,
        power: PowerFunction,
        pieces: Iterable[Piece],
        n_processors: int | None = None,
    ) -> None:
        ordered = tuple(sorted(pieces, key=lambda p: (p.processor, p.start, p.job)))
        if not ordered:
            raise InvalidScheduleError("a schedule must contain at least one piece")
        self._setup(instance, power, max(p.processor for p in ordered), n_processors)
        self._pieces: tuple[Piece, ...] | None = ordered
        self._columns: tuple[np.ndarray, ...] | None = None

    def _setup(
        self,
        instance: Instance,
        power: PowerFunction,
        max_proc: int,
        n_processors: int | None,
    ) -> None:
        self.instance = instance
        self.power = power
        if n_processors is None:
            n_processors = max_proc + 1
        if n_processors <= max_proc:
            raise InvalidScheduleError(
                f"n_processors={n_processors} but a piece uses processor {max_proc}"
            )
        self.n_processors = int(n_processors)
        self._completion_cache: np.ndarray | None = None
        self._start_cache: np.ndarray | None = None

    @property
    def pieces(self) -> tuple[Piece, ...]:
        """All pieces, sorted by ``(processor, start, job)``.

        A schedule built by :meth:`from_columns` materialises them on first
        access; every metric below reads :attr:`columns` instead.
        """
        if self._pieces is None:
            self._pieces = tuple(
                Piece(job=j, processor=p, start=a, end=b, speed=s)
                for j, p, a, b, s in zip(*(column.tolist() for column in self.columns))
            )
        return self._pieces

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columnar view of the pieces: (jobs, processors, starts, ends, speeds).

        In :attr:`pieces` order.  Built once and cached; every aggregate
        metric below is a single array expression over these columns instead
        of a Python loop over pieces.
        """
        if self._columns is None:
            pieces = self.pieces
            count = len(pieces)
            jobs = np.fromiter((p.job for p in pieces), dtype=np.intp, count=count)
            procs = np.fromiter((p.processor for p in pieces), dtype=np.intp, count=count)
            starts = np.fromiter((p.start for p in pieces), dtype=float, count=count)
            ends = np.fromiter((p.end for p in pieces), dtype=float, count=count)
            speeds = np.fromiter((p.speed for p in pieces), dtype=float, count=count)
            self._check_job_range(jobs)
            self._columns = (jobs, procs, starts, ends, speeds)
        return self._columns

    def _check_job_range(self, jobs: np.ndarray) -> None:
        if jobs.max() >= self.instance.n_jobs:
            raise InvalidScheduleError(
                f"piece references job {int(jobs.max())} but the instance has only "
                f"{self.instance.n_jobs} jobs"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        instance: Instance,
        power: PowerFunction,
        jobs: Sequence[int] | np.ndarray,
        starts: Sequence[float] | np.ndarray,
        ends: Sequence[float] | np.ndarray,
        speeds: Sequence[float] | np.ndarray,
        processor: int = 0,
        n_processors: int | None = None,
    ) -> "Schedule":
        """Build a one-processor schedule from piece columns, building no :class:`Piece`.

        Row ``k`` is the piece ``(jobs[k], processor, starts[k], ends[k],
        speeds[k])``.  The :class:`Piece` rules are checked over whole columns
        and the first offending row raises that rule's error.  The result
        equals the schedule built from the same rows as ``Piece`` objects bit
        for bit; :attr:`pieces` is materialised only if something asks for it.
        """
        jobs = np.asarray(jobs, dtype=np.intp)
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        speeds = np.asarray(speeds, dtype=float)
        if not len(jobs) == len(starts) == len(ends) == len(speeds):
            raise InvalidScheduleError("piece columns must all have the same length")
        if not len(jobs):
            raise InvalidScheduleError("a schedule must contain at least one piece")
        bad = (
            (jobs < 0)
            | (processor < 0)
            | ~(np.isfinite(starts) & np.isfinite(ends))
            | (ends <= starts)
            | ~np.isfinite(speeds)
            | (speeds <= 0.0)
        )
        if bad.any():
            k = int(np.argmax(bad))
            # the Piece constructor raises the offending row's own error
            Piece(job=int(jobs[k]), processor=processor, start=float(starts[k]),
                  end=float(ends[k]), speed=float(speeds[k]))
        schedule = cls.__new__(cls)
        schedule._setup(instance, power, processor, n_processors)
        schedule._check_job_range(jobs)
        order = np.lexsort((jobs, starts))
        procs = np.full(len(jobs), processor, dtype=np.intp)
        schedule._pieces = None
        schedule._columns = (jobs[order], procs, starts[order], ends[order], speeds[order])
        return schedule

    @classmethod
    def from_speeds(
        cls,
        instance: Instance,
        power: PowerFunction,
        speeds: Sequence[float],
        processor: int = 0,
        n_processors: int | None = None,
        start_time: float | None = None,
    ) -> "Schedule":
        """Build the canonical uniprocessor schedule from per-job speeds.

        Jobs run in release order (the instance's job order), each job starting
        at the later of its release time and the previous job's completion, and
        running contiguously at its given speed.  This is the schedule shape
        used by every optimal uniprocessor solution in the paper (Lemmas 2-4).
        Built as columns (:meth:`from_columns`), with no :class:`Piece`.
        """
        if len(speeds) != instance.n_jobs:
            raise InvalidScheduleError(
                f"need one speed per job ({instance.n_jobs}), got {len(speeds)}"
            )
        speeds_arr = np.asarray(speeds, dtype=float)
        bad = np.where((speeds_arr <= 0.0) | ~np.isfinite(speeds_arr))[0]
        if len(bad):
            j = int(bad[0])
            raise InvalidScheduleError(
                f"job {j}: speed must be finite and > 0, got {float(speeds_arr[j])}"
            )
        clock = instance.first_release if start_time is None else float(start_time)
        durations = instance.works / speeds_arr
        starts, ends = chain_start_times(instance.releases, durations, clock)
        return cls.from_columns(
            instance, power, np.arange(instance.n_jobs), starts, ends, speeds_arr,
            processor=processor, n_processors=n_processors,
        )

    @classmethod
    def from_processor_speeds(
        cls,
        instance: Instance,
        power: PowerFunction,
        assignment: Mapping[int, Sequence[int]],
        speeds: Sequence[float],
        n_processors: int | None = None,
    ) -> "Schedule":
        """Build a multiprocessor schedule from an assignment and per-job speeds.

        ``assignment`` maps processor index -> ordered list of job indices run
        on that processor (in execution order).  Each job runs contiguously at
        ``speeds[job]`` starting at the later of its release time and the
        previous job's completion on the same processor.
        """
        if len(speeds) != instance.n_jobs:
            raise InvalidScheduleError(
                f"need one speed per job ({instance.n_jobs}), got {len(speeds)}"
            )
        seen: set[int] = set()
        pieces: list[Piece] = []
        for proc, job_order in assignment.items():
            clock = -math.inf
            for j in job_order:
                if j in seen:
                    raise InvalidScheduleError(f"job {j} assigned more than once")
                seen.add(j)
                job = instance.jobs[j]
                speed = float(speeds[j])
                if speed <= 0.0 or not math.isfinite(speed):
                    raise InvalidScheduleError(
                        f"job {j}: speed must be finite and > 0, got {speed}"
                    )
                begin = max(clock, job.release)
                duration = job.work / speed
                pieces.append(
                    Piece(job=j, processor=int(proc), start=begin, end=begin + duration, speed=speed)
                )
                clock = begin + duration
        if seen != set(range(instance.n_jobs)):
            missing = sorted(set(range(instance.n_jobs)) - seen)
            raise InvalidScheduleError(f"jobs not assigned to any processor: {missing}")
        return cls(instance, power, pieces, n_processors=n_processors)

    # ------------------------------------------------------------------
    # per-job quantities
    # ------------------------------------------------------------------
    def _job_pieces(self) -> list[list[Piece]]:
        by_job: list[list[Piece]] = [[] for _ in range(self.instance.n_jobs)]
        for piece in self.pieces:
            if piece.job >= self.instance.n_jobs:
                raise InvalidScheduleError(
                    f"piece references job {piece.job} but the instance has only "
                    f"{self.instance.n_jobs} jobs"
                )
            by_job[piece.job].append(piece)
        return by_job

    @property
    def start_times(self) -> np.ndarray:
        """Start time of each job (first piece start)."""
        if self._start_cache is None:
            self._compute_times()
        assert self._start_cache is not None
        return self._start_cache

    @property
    def completion_times(self) -> np.ndarray:
        """Completion time of each job (last piece end)."""
        if self._completion_cache is None:
            self._compute_times()
        assert self._completion_cache is not None
        return self._completion_cache

    def _compute_times(self) -> None:
        jobs, _, piece_starts, piece_ends, _ = self.columns
        starts = np.full(self.instance.n_jobs, math.inf)
        ends = np.full(self.instance.n_jobs, -math.inf)
        np.minimum.at(starts, jobs, piece_starts)
        np.maximum.at(ends, jobs, piece_ends)
        if np.any(~np.isfinite(starts)) or np.any(~np.isfinite(ends)):
            missing = [i for i in range(self.instance.n_jobs) if not math.isfinite(starts[i])]
            raise InvalidScheduleError(f"jobs with no execution pieces: {missing}")
        self._start_cache = starts
        self._completion_cache = ends

    @property
    def speeds(self) -> np.ndarray:
        """Per-job speed, defined only for jobs that run at a single speed.

        For jobs executed in several pieces at different speeds the
        *work-weighted average* speed is returned; the canonical optimal
        schedules always have a single speed per job so this is exact there.
        """
        jobs, _, starts, ends, piece_speeds = self.columns
        durations = ends - starts
        total_time = np.bincount(jobs, weights=durations, minlength=self.instance.n_jobs)
        total_work = np.bincount(
            jobs, weights=piece_speeds * durations, minlength=self.instance.n_jobs
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(total_time > 0, total_work / total_time, math.nan)

    # ------------------------------------------------------------------
    # aggregate metrics
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Completion time of the last job, ``max_i C_i``."""
        return float(self.completion_times.max())

    @property
    def total_flow(self) -> float:
        """Sum over jobs of ``C_i - r_i``."""
        return float(np.sum(self.completion_times - self.instance.releases))

    @property
    def total_weighted_flow(self) -> float:
        """Sum over jobs of ``weight_i * (C_i - r_i)``."""
        return float(
            np.sum(self.instance.weights * (self.completion_times - self.instance.releases))
        )

    @property
    def max_flow(self) -> float:
        """Maximum over jobs of ``C_i - r_i``."""
        return float(np.max(self.completion_times - self.instance.releases))

    @property
    def energy(self) -> float:
        """Total energy consumed by all pieces."""
        _, _, starts, ends, speeds = self.columns
        return float(np.sum(power_eval(self.power, speeds) * (ends - starts)))

    def energy_by_processor(self) -> np.ndarray:
        """Energy consumed on each processor."""
        _, procs, starts, ends, speeds = self.columns
        return np.bincount(
            procs,
            weights=power_eval(self.power, speeds) * (ends - starts),
            minlength=self.n_processors,
        )

    def processor_completion_times(self) -> np.ndarray:
        """Latest piece end on each processor (``0`` for idle processors)."""
        _, procs, _, ends, _ = self.columns
        result = np.zeros(self.n_processors)
        np.maximum.at(result, procs, ends)
        return result

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(
        self,
        energy_budget: float | None = None,
        work_rtol: float = 1e-6,
        require_deadlines: bool = False,
    ) -> None:
        """Check feasibility; raise :class:`InvalidScheduleError` on violation.

        Checks performed:

        * every job's pieces complete exactly its work requirement (within
          ``work_rtol`` relative tolerance),
        * no piece starts before its job's release time,
        * pieces on the same processor do not overlap,
        * if ``require_deadlines``, every job finishes by its deadline,
        * if ``energy_budget`` is given, total energy does not exceed it
          (within a small relative tolerance).
        """
        by_job = self._job_pieces()
        for job, pieces in zip(self.instance.jobs, by_job):
            if not pieces:
                raise InvalidScheduleError(f"job {job.index} has no execution pieces")
            done = sum(p.work for p in pieces)
            if not math.isclose(done, job.work, rel_tol=work_rtol, abs_tol=1e-9):
                raise InvalidScheduleError(
                    f"job {job.index}: scheduled work {done:g} != required {job.work:g}"
                )
            for piece in pieces:
                if piece.start < job.release - _TIME_EPS:
                    raise InvalidScheduleError(
                        f"job {job.index} starts at {piece.start:g} before its "
                        f"release {job.release:g}"
                    )
                if require_deadlines and job.deadline is not None:
                    if piece.end > job.deadline + _TIME_EPS:
                        raise InvalidScheduleError(
                            f"job {job.index} finishes at {piece.end:g} after its "
                            f"deadline {job.deadline:g}"
                        )
        # per-processor non-overlap
        by_proc: dict[int, list[Piece]] = {}
        for piece in self.pieces:
            by_proc.setdefault(piece.processor, []).append(piece)
        for proc, pieces in by_proc.items():
            pieces.sort(key=lambda p: p.start)
            for a, b in zip(pieces, pieces[1:]):
                if b.start < a.end - _TIME_EPS:
                    raise InvalidScheduleError(
                        f"processor {proc}: pieces overlap "
                        f"([{a.start:g},{a.end:g}] job {a.job} and "
                        f"[{b.start:g},{b.end:g}] job {b.job})"
                    )
        if energy_budget is not None:
            used = self.energy
            if used > energy_budget * (1.0 + 1e-6) + 1e-9:
                raise InvalidScheduleError(
                    f"schedule uses energy {used:g} exceeding the budget {energy_budget:g}"
                )

    def is_valid(self, energy_budget: float | None = None) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(energy_budget=energy_budget)
        except InvalidScheduleError:
            return False
        return True

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(n_jobs={self.instance.n_jobs}, n_processors={self.n_processors}, "
            f"makespan={self.makespan:g}, flow={self.total_flow:g}, energy={self.energy:g})"
        )
