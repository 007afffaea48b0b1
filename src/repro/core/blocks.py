"""Block machinery for uniprocessor power-aware makespan (Section 3).

A *block* is a maximal substring of jobs (in release order) such that each job
except the last finishes after the arrival of its successor.  In the optimal
schedule (Lemmas 2-6):

* the schedule is never idle between ``r_1`` and the last completion,
* every job in a block runs at the block's single speed,
* a non-final block ``(i, j)`` therefore starts exactly at ``r_i`` and ends
  exactly at ``r_{j+1}``, so its speed is ``sum(w_i..w_j) / (r_{j+1} - r_i)``,
* block speeds are non-decreasing over time.

This module provides the :class:`Block` value type, helpers to evaluate a
*block configuration* (a partition of the job sequence into consecutive
blocks) for a given energy budget, and a decomposition routine that recovers
the block structure from a list of per-job speeds.  The IncMerge algorithm
(:mod:`repro.makespan.incmerge`) and the frontier construction
(:mod:`repro.makespan.frontier`) are built on these helpers, and the
brute-force oracle (:mod:`repro.makespan.dp`) enumerates configurations
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import BudgetError, InfeasibleError, InvalidInstanceError
from .job import Instance
from .power import PowerFunction

__all__ = [
    "Block",
    "BlockConfiguration",
    "fixed_block_speed",
    "evaluate_configuration",
    "blocks_from_speeds",
    "coincident_release_threshold",
]


def coincident_release_threshold(releases: np.ndarray) -> float:
    """Window length below which two releases are treated as coincident.

    A non-final block whose time window is this small would need an
    astronomically large speed (and energy), which both overflows floating
    point and can never be part of an optimal schedule; IncMerge and the
    frontier treat such blocks exactly like zero-length windows (they are
    immediately merged away).  The threshold is relative to the release-time
    scale of the instance.
    """
    scale = max(1.0, float(abs(releases[-1])))
    return 1e-12 * scale


@dataclass(frozen=True, slots=True)
class Block:
    """A block ``(first, last)`` of consecutive jobs (inclusive, 0-based).

    ``start_time`` is the time the block begins (the release of its first job
    in an optimal schedule); ``speed`` is the common speed of its jobs;
    ``work`` is the total work of its jobs.
    """

    first: int
    last: int
    start_time: float
    work: float
    speed: float

    def __post_init__(self) -> None:
        if self.last < self.first:
            raise InvalidInstanceError(
                f"block last index {self.last} < first index {self.first}"
            )
        if self.work <= 0.0:
            raise InvalidInstanceError(f"block work must be > 0, got {self.work}")
        if self.speed <= 0.0 or not math.isfinite(self.speed):
            raise InvalidInstanceError(f"block speed must be finite and > 0, got {self.speed}")

    @property
    def n_jobs(self) -> int:
        return self.last - self.first + 1

    @property
    def duration(self) -> float:
        return self.work / self.speed

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def energy(self, power: PowerFunction) -> float:
        """Energy consumed by the block."""
        return power.energy(self.work, self.speed)


@dataclass(frozen=True)
class BlockConfiguration:
    """A full partition of the job sequence into consecutive blocks.

    ``boundaries`` lists the index of the first job of each block, in order;
    the first entry is always ``0``.  E.g. for 5 jobs, ``(0, 2, 4)`` denotes
    blocks ``{0,1}``, ``{2,3}``, ``{4}``.
    """

    boundaries: tuple[int, ...]
    n_jobs: int

    def __post_init__(self) -> None:
        if not self.boundaries or self.boundaries[0] != 0:
            raise InvalidInstanceError("block boundaries must start with job 0")
        if any(b >= self.n_jobs or b < 0 for b in self.boundaries):
            raise InvalidInstanceError("block boundary out of range")
        if any(b2 <= b1 for b1, b2 in zip(self.boundaries, self.boundaries[1:])):
            raise InvalidInstanceError("block boundaries must be strictly increasing")

    @property
    def n_blocks(self) -> int:
        return len(self.boundaries)

    def block_ranges(self) -> list[tuple[int, int]]:
        """Inclusive ``(first, last)`` index pairs for each block."""
        firsts = list(self.boundaries)
        lasts = [b - 1 for b in firsts[1:]] + [self.n_jobs - 1]
        return list(zip(firsts, lasts))


def fixed_block_speed(instance: Instance, first: int, last: int) -> float:
    """Speed of a *non-final* block ``(first, last)`` in an optimal schedule.

    The block starts at ``r_first`` and must end exactly at ``r_{last+1}``
    (Lemma 4: no idle time), so its speed is total work over that window.
    Returns ``inf`` when the window has zero length (two jobs released at the
    same instant), which simply forces the blocks to merge in IncMerge.
    """
    if last + 1 >= instance.n_jobs:
        raise InvalidInstanceError(
            "fixed_block_speed is only defined for non-final blocks"
        )
    releases = instance.releases
    works = instance.works
    window = releases[last + 1] - releases[first]
    work = float(works[first : last + 1].sum())
    if window <= coincident_release_threshold(releases):
        return math.inf
    return work / window


def evaluate_configuration(
    instance: Instance,
    power: PowerFunction,
    config: BlockConfiguration,
    energy_budget: float,
    check_feasible: bool = True,
) -> tuple[list[Block], float] | None:
    """Evaluate a block configuration under an energy budget.

    Non-final blocks run at their fixed speed (ending exactly at the next
    block's first release); the final block spends whatever energy remains.
    Returns the list of blocks and the resulting makespan, or ``None`` when the
    configuration is infeasible for this budget, which happens when

    * a non-final block has infinite fixed speed (coincident releases), or
    * within some block a job would finish before its successor's release
      (the partition is not a valid *block* structure at these speeds), or
    * ``check_feasible`` is set and the fixed blocks alone already exceed the
      energy budget.

    This function is the semantic core shared by the brute-force oracle and by
    the tests that cross-check IncMerge.
    """
    if energy_budget <= 0.0 or not math.isfinite(energy_budget):
        raise BudgetError(f"energy budget must be finite and > 0, got {energy_budget}")
    if config.n_jobs != instance.n_jobs:
        raise InvalidInstanceError("configuration job count does not match the instance")

    releases = instance.releases
    works = instance.works
    ranges = config.block_ranges()
    blocks: list[Block] = []
    energy_fixed = 0.0

    for first, last in ranges[:-1]:
        speed = fixed_block_speed(instance, first, last)
        if not math.isfinite(speed):
            return None
        work = float(works[first : last + 1].sum())
        block = Block(first=first, last=last, start_time=float(releases[first]), work=work, speed=speed)
        if not _block_internally_consistent(releases, works, block):
            return None
        energy_fixed += block.energy(power)
        blocks.append(block)

    if check_feasible and energy_fixed >= energy_budget:
        return None

    first, last = ranges[-1]
    work = float(works[first : last + 1].sum())
    remaining = energy_budget - energy_fixed
    if remaining <= 0.0:
        return None
    speed = power.speed_for_energy(work, remaining)
    final = Block(
        first=first,
        last=last,
        start_time=float(releases[first]),
        work=work,
        speed=speed,
    )
    if not _block_internally_consistent(releases, works, final, is_final=True):
        return None
    blocks.append(final)

    makespan = final.end_time
    return blocks, makespan


def _block_internally_consistent(
    releases: np.ndarray,
    works: np.ndarray,
    block: Block,
    is_final: bool = False,
) -> bool:
    """Check that inside the block each job finishes no earlier than its successor's release.

    This is both the definition of a block and the feasibility requirement that
    no job inside the block would have to start before its release time.
    The final job of a non-final block must finish exactly at the next
    release; for the final block there is no such constraint on its last job.
    """
    t = block.start_time
    for j in range(block.first, block.last + 1):
        t += works[j] / block.speed
        if j < block.last:
            # job j is followed by job j+1 inside the block: j+1 must be
            # released by the time j finishes, otherwise the schedule would
            # need idle time (not a single block).
            if t < releases[j + 1] - 1e-9:
                return False
    if not is_final:
        nxt = block.last + 1
        if nxt < len(releases) and not math.isclose(t, releases[nxt], rel_tol=1e-9, abs_tol=1e-9):
            # non-final blocks end exactly at the next release by construction;
            # numerical drift beyond tolerance indicates an inconsistent config.
            return False
    return True


def blocks_from_speeds(
    instance: Instance,
    speeds: Sequence[float],
    atol: float = 1e-9,
) -> list[tuple[int, int]]:
    """Recover the block structure of the canonical schedule built from ``speeds``.

    Jobs run in release order, each starting at ``max(previous completion,
    release)``.  A new block starts whenever a job begins strictly later than
    its predecessor finished (i.e. after an idle gap) or at job 0.  Jobs whose
    completion coincides with the next release (within ``atol``) are treated
    as ending their block, matching the paper's "finishes after the arrival of
    its successor" strict inequality.
    """
    if len(speeds) != instance.n_jobs:
        raise InvalidInstanceError("need one speed per job")
    releases = instance.releases.tolist()
    works = instance.works.tolist()
    speeds = [float(s) for s in speeds]
    last = instance.n_jobs - 1
    ranges: list[tuple[int, int]] = []
    start = 0
    t = releases[0]
    for j in range(instance.n_jobs):
        t = max(t, releases[j])
        t += works[j] / speeds[j]
        if j == last or t <= releases[j + 1] + atol:
            ranges.append((start, j))
            start = j + 1
    return ranges
