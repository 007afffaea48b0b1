"""Job and problem-instance model.

The paper's model (Section 1): the input is a sequence of jobs
``J_1 ... J_n`` where job ``J_i`` has a *release time* ``r_i`` (the earliest
time it may run) and a *work requirement* ``w_i``.  A processor running at
constant speed ``sigma`` finishes ``sigma`` units of work per unit of time, so
the processing time of a job is only determined once the schedule fixes its
speed.

Some results additionally assume *equal-work* jobs (the flow results and the
multiprocessor results of Section 5) and some assume all jobs are released at
time zero (the NP-hardness reduction of Theorem 11).  :class:`Instance`
exposes predicates for both so algorithms can check their preconditions.

Jobs may also carry an optional *deadline*.  Deadlines are not part of the
paper's primary model but are required by the Yao-Demers-Shenker substrate
(:mod:`repro.online.yds`) and the online algorithms built on it, which the
paper discusses as related/future work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import InvalidInstanceError

__all__ = ["Job", "Instance"]


@dataclass(frozen=True, slots=True)
class Job:
    """A single job.

    Parameters
    ----------
    index:
        Identifier of the job.  Within an :class:`Instance` indices are the
        positions ``0 .. n-1`` of the jobs sorted by release time, matching
        the paper's convention ``r_1 <= r_2 <= ... <= r_n`` (zero-based here).
    release:
        Release time ``r_i`` (earliest start time).  Must be finite and
        non-negative.
    work:
        Work requirement ``w_i``.  Must be finite and strictly positive; the
        paper's arguments (and the block machinery) assume every job has
        something to execute.
    deadline:
        Optional absolute deadline ``d_i`` used only by the deadline-based
        substrate algorithms (YDS/AVR/OA/BKP).  ``None`` means "no deadline".
    weight:
        Optional weight, used by weighted-flow style metrics in
        :mod:`repro.core.metrics` (the paper mentions weighted flow only as an
        example of a non-symmetric metric).
    """

    index: int
    release: float
    work: float
    deadline: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.release) or self.release < 0.0:
            raise InvalidInstanceError(
                f"job {self.index}: release must be finite and >= 0, got {self.release!r}"
            )
        if not math.isfinite(self.work) or self.work <= 0.0:
            raise InvalidInstanceError(
                f"job {self.index}: work must be finite and > 0, got {self.work!r}"
            )
        if self.deadline is not None:
            if not math.isfinite(self.deadline) or self.deadline <= self.release:
                raise InvalidInstanceError(
                    f"job {self.index}: deadline must be finite and > release "
                    f"({self.release}), got {self.deadline!r}"
                )
        if not math.isfinite(self.weight) or self.weight <= 0.0:
            raise InvalidInstanceError(
                f"job {self.index}: weight must be finite and > 0, got {self.weight!r}"
            )

    @property
    def has_deadline(self) -> bool:
        """Whether the job carries a deadline (needed by YDS-style algorithms)."""
        return self.deadline is not None

    def with_deadline(self, deadline: float) -> "Job":
        """Return a copy of this job with ``deadline`` attached."""
        return replace(self, deadline=deadline)


@dataclass(frozen=True)
class Instance:
    """An ordered collection of jobs forming one scheduling instance.

    Jobs are stored sorted by release time (ties broken by original position),
    and re-indexed ``0..n-1`` in that order, which is the order used by every
    algorithm in the package (Lemma 3 of the paper lets the optimal schedule
    run jobs in release order).

    The constructor accepts jobs in any order.  Use :meth:`from_arrays` for
    the common case of building an instance from release/work vectors.
    """

    jobs: tuple[Job, ...]
    name: str = "instance"

    def __init__(self, jobs: Iterable[Job], name: str = "instance") -> None:
        job_list = list(jobs)
        if not job_list:
            raise InvalidInstanceError("an instance must contain at least one job")
        ordered = sorted(enumerate(job_list), key=lambda t: (t[1].release, t[0]))
        # jobs are frozen: one that already carries its index is shared as is
        reindexed = tuple(
            job if job.index == i else replace(job, index=i)
            for i, (_, job) in enumerate(ordered)
        )
        object.__setattr__(self, "jobs", reindexed)
        object.__setattr__(self, "name", str(name))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        releases: Sequence[float],
        works: Sequence[float],
        deadlines: Sequence[float] | None = None,
        weights: Sequence[float] | None = None,
        name: str = "instance",
    ) -> "Instance":
        """Build an instance from parallel arrays of releases and works."""
        releases = list(map(float, releases))
        works = list(map(float, works))
        if len(releases) != len(works):
            raise InvalidInstanceError(
                f"releases ({len(releases)}) and works ({len(works)}) must have equal length"
            )
        if deadlines is not None and len(deadlines) != len(releases):
            raise InvalidInstanceError("deadlines must have the same length as releases")
        if weights is not None and len(weights) != len(releases):
            raise InvalidInstanceError("weights must have the same length as releases")
        jobs = []
        for i, (r, w) in enumerate(zip(releases, works)):
            d = None if deadlines is None else float(deadlines[i])
            wt = 1.0 if weights is None else float(weights[i])
            jobs.append(Job(index=i, release=r, work=w, deadline=d, weight=wt))
        return cls(jobs, name=name)

    @classmethod
    def equal_work(
        cls,
        releases: Sequence[float],
        work: float = 1.0,
        name: str = "equal-work-instance",
    ) -> "Instance":
        """Build an equal-work instance (all jobs require ``work`` units)."""
        return cls.from_arrays(releases, [float(work)] * len(list(releases)), name=name)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, index: int) -> Job:
        return self.jobs[index]

    # ------------------------------------------------------------------
    # derived arrays / predicates
    # ------------------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        """Number of jobs ``n``."""
        return len(self.jobs)

    @property
    def releases(self) -> np.ndarray:
        """Release times as a float array, sorted non-decreasingly."""
        return np.array([job.release for job in self.jobs], dtype=float)

    @property
    def works(self) -> np.ndarray:
        """Work requirements as a float array (aligned with :attr:`releases`)."""
        return np.array([job.work for job in self.jobs], dtype=float)

    @property
    def deadlines(self) -> np.ndarray:
        """Deadlines as a float array; jobs without a deadline map to ``+inf``."""
        return np.array(
            [math.inf if job.deadline is None else job.deadline for job in self.jobs],
            dtype=float,
        )

    @property
    def weights(self) -> np.ndarray:
        """Job weights as a float array."""
        return np.array([job.weight for job in self.jobs], dtype=float)

    @property
    def total_work(self) -> float:
        """Sum of all work requirements."""
        return float(self.works.sum())

    @property
    def first_release(self) -> float:
        """Earliest release time ``r_1``."""
        return float(self.jobs[0].release)

    @property
    def last_release(self) -> float:
        """Latest release time ``r_n``."""
        return float(self.jobs[-1].release)

    def is_equal_work(self, rel_tol: float = 1e-12) -> bool:
        """Whether all jobs require the same amount of work (Section 4/5 model)."""
        works = self.works
        return bool(np.allclose(works, works[0], rtol=rel_tol, atol=0.0))

    def all_released_at_zero(self, atol: float = 0.0) -> bool:
        """Whether every job is released at time zero (Theorem 11 model)."""
        return bool(np.all(self.releases <= atol))

    def has_deadlines(self) -> bool:
        """Whether every job carries a finite deadline (YDS model)."""
        # cached lazily: jobs is a frozen tuple, so the answer never changes,
        # and solver precondition checks ask several times per solve
        cached = self.__dict__.get("_has_deadlines")
        if cached is None:
            cached = all(job.has_deadline for job in self.jobs)
            object.__setattr__(self, "_has_deadlines", cached)
        return cached

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def with_deadlines(self, deadlines: Sequence[float] | float) -> "Instance":
        """Return a copy with deadlines attached.

        ``deadlines`` may be a scalar (common deadline, e.g. the server-problem
        reduction "makespan target = deadline for everyone") or a sequence
        aligned with the sorted job order.
        """
        if np.isscalar(deadlines):
            values = [float(deadlines)] * self.n_jobs
        else:
            values = [float(d) for d in deadlines]  # type: ignore[union-attr]
            if len(values) != self.n_jobs:
                raise InvalidInstanceError(
                    "deadline vector length must equal the number of jobs"
                )
        return Instance(
            (job.with_deadline(d) for job, d in zip(self.jobs, values)),
            name=self.name,
        )

    def subset(self, indices: Sequence[int], name: str | None = None) -> "Instance":
        """Return the sub-instance containing only the given job indices."""
        idx = sorted(set(int(i) for i in indices))
        if not idx:
            raise InvalidInstanceError("subset requires at least one job index")
        for i in idx:
            if not 0 <= i < self.n_jobs:
                raise InvalidInstanceError(f"job index {i} out of range 0..{self.n_jobs - 1}")
        return Instance(
            (self.jobs[i] for i in idx),
            name=name if name is not None else f"{self.name}[subset]",
        )

    def shifted(self, delta: float) -> "Instance":
        """Return a copy with all releases (and deadlines) shifted by ``delta``."""
        jobs = []
        for job in self.jobs:
            deadline = None if job.deadline is None else job.deadline + delta
            jobs.append(
                Job(
                    index=job.index,
                    release=job.release + delta,
                    work=job.work,
                    deadline=deadline,
                    weight=job.weight,
                )
            )
        return Instance(jobs, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Instance(name={self.name!r}, n_jobs={self.n_jobs}, "
            f"total_work={self.total_work:g}, span=[{self.first_release:g}, "
            f"{self.last_release:g}])"
        )
