"""IncMerge: the paper's linear-time algorithm for the uniprocessor laptop problem.

Given an energy budget ``E``, IncMerge (Section 3.1) builds the unique
schedule satisfying the five properties of Lemma 7 — which is the schedule of
minimum makespan among all schedules using energy at most ``E``:

1. jobs are processed in release order,
2. a tentative list of blocks is maintained; a newly added job starts as its
   own block,
3. a non-final block's speed is fixed by the next release time (it must end
   exactly when the next block starts, Lemma 4),
4. the final block's speed is whatever exactly spends the remaining energy,
5. while the last block runs slower than its predecessor, the two are merged
   (Lemma 6: block speeds must be non-decreasing).

Each job stops being the first job of a block at most once, so the merging
work is ``O(n)`` overall once the jobs are sorted by release time
(:class:`~repro.core.job.Instance` keeps them sorted).

The implementation spends all of the energy budget: the optimal laptop
schedule always exhausts ``E`` because any leftover energy could speed up the
final block and reduce the makespan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.blocks import Block, coincident_release_threshold
from ..core.job import Instance
from ..core.kernels import energy_eval, scalar_energy_fn, scalar_speed_for_energy_fn
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import BudgetError

__all__ = ["IncMergeResult", "incmerge", "incmerge_speeds"]


@dataclass(frozen=True)
class IncMergeResult:
    """Result of the IncMerge laptop solver.

    Attributes
    ----------
    instance, power, energy_budget:
        Echo of the inputs.
    blocks:
        The optimal block decomposition, in time order.  The final block is
        the one whose speed was set from the leftover energy.
    speeds:
        Per-job speeds (aligned with the instance's job order).
    makespan:
        Completion time of the last job.
    energy:
        Energy consumed; equals the budget up to floating-point rounding.
    """

    instance: Instance
    power: PowerFunction
    energy_budget: float
    blocks: tuple[Block, ...]
    speeds: np.ndarray
    makespan: float
    energy: float

    def schedule(self) -> Schedule:
        """Materialise the full :class:`~repro.core.schedule.Schedule`."""
        return Schedule.from_speeds(self.instance, self.power, self.speeds)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass
class _MutableBlock:
    """Internal working representation of a block on the IncMerge stack."""

    first: int
    last: int
    start_time: float
    work: float
    speed: float  # math.inf allowed (coincident releases); <= 0 means "must merge"
    energy: float  # energy at the current speed; 0 for the final block
    below: float  # total energy of the blocks beneath this one on the stack


def incmerge(
    instance: Instance,
    power: PowerFunction,
    energy_budget: float,
) -> IncMergeResult:
    """Solve the uniprocessor laptop problem: minimum makespan for ``energy_budget``.

    Raises
    ------
    BudgetError
        If the energy budget is not a finite positive number.
    """
    if not math.isfinite(energy_budget) or energy_budget <= 0.0:
        raise BudgetError(
            f"energy budget must be finite and > 0, got {energy_budget!r}"
        )

    releases = instance.releases
    works = instance.works
    n = instance.n_jobs
    tiny = coincident_release_threshold(releases)

    # vectorized pre-pass: every job's initial (single-job, non-final) block
    # speed and energy, computed in bulk through the kernel layer instead of
    # one power-function call per push in the loop below.
    energy_fn = scalar_energy_fn(power)
    speed_for_energy_fn = scalar_speed_for_energy_fn(power)
    if n > 1:
        windows = releases[1:] - releases[:-1]
        coincident = windows <= tiny
        init_speeds = np.where(
            coincident, math.inf, works[:-1] / np.where(coincident, 1.0, windows)
        )
        init_energies = np.zeros(n - 1)
        finite = ~coincident
        if np.any(finite):
            init_energies[finite] = energy_eval(
                power, works[:-1][finite], init_speeds[finite]
            )
    else:
        init_speeds = np.empty(0)
        init_energies = np.empty(0)

    stack: list[_MutableBlock] = []

    def final_speed(work: float, fixed_energy: float) -> float:
        """Speed of the final block when it must spend the leftover budget."""
        remaining = energy_budget - fixed_energy
        if remaining <= 0.0:
            # Not enough energy for the current fixed blocks: signal "slower
            # than anything" so the merge loop absorbs the predecessor.
            return 0.0
        return speed_for_energy_fn(work, remaining)

    # The energy of the fixed blocks is kept as a prefix sum per stack entry
    # (``below``), never as one running total: a merge pops its two blocks
    # and reuses the lower one's prefix.  Subtracting a transient block's
    # energy from a running total instead leaves rounding error proportional
    # to that energy, and a release gap of ~1e-6 makes it ~1e12, enough to
    # leave the final block measurably short of the budget.
    for i in range(n):
        below = stack[-1].below + stack[-1].energy if stack else 0.0
        is_last = i == n - 1
        if is_last:
            speed = final_speed(works[i], below)
            energy = 0.0
        else:
            speed = float(init_speeds[i])
            energy = float(init_energies[i])
        block = _MutableBlock(
            first=i,
            last=i,
            start_time=float(releases[i]),
            work=float(works[i]),
            speed=speed,
            energy=energy,
            below=below,
        )
        stack.append(block)

        # merge while the last block runs slower than its predecessor
        while len(stack) >= 2 and stack[-1].speed < stack[-2].speed * (1.0 - 1e-15):
            top = stack.pop()
            prev = stack.pop()
            merged_last = top.last
            merged_first = prev.first
            merged_work = top.work + prev.work
            merged_start = prev.start_time
            if merged_last == n - 1:
                # merged block is the final block: speed from leftover energy
                merged_speed = final_speed(merged_work, prev.below)
                merged_energy = 0.0
            else:
                window = releases[merged_last + 1] - merged_start
                merged_speed = math.inf if window <= tiny else merged_work / window
                merged_energy = (
                    0.0 if math.isinf(merged_speed) else energy_fn(merged_work, merged_speed)
                )
            stack.append(
                _MutableBlock(
                    first=merged_first,
                    last=merged_last,
                    start_time=merged_start,
                    work=merged_work,
                    speed=merged_speed,
                    energy=merged_energy,
                    below=prev.below,
                )
            )

    if stack[-1].speed <= 0.0:  # pragma: no cover - defensive; cannot happen with E > 0
        raise BudgetError("energy budget too small to schedule the final block")

    blocks: list[Block] = []
    for mutable in stack:
        if math.isinf(mutable.speed):  # pragma: no cover - defensive
            raise BudgetError(
                "an internal block kept infinite speed; this indicates coincident "
                "releases that should have been merged"
            )
        blocks.append(
            Block(
                first=mutable.first,
                last=mutable.last,
                start_time=mutable.start_time,
                work=mutable.work,
                speed=mutable.speed,
            )
        )

    block_speeds = np.array([b.speed for b in blocks])
    block_works = np.array([b.work for b in blocks])
    block_sizes = np.array([b.n_jobs for b in blocks])
    speeds = np.repeat(block_speeds, block_sizes)
    makespan = blocks[-1].end_time
    energy = float(np.sum(energy_eval(power, block_works, block_speeds)))
    return IncMergeResult(
        instance=instance,
        power=power,
        energy_budget=float(energy_budget),
        blocks=tuple(blocks),
        speeds=speeds,
        makespan=float(makespan),
        energy=energy,
    )


def incmerge_speeds(
    instance: Instance, power: PowerFunction, energy_budget: float
) -> np.ndarray:
    """Convenience wrapper returning only the per-job speed vector."""
    return incmerge(instance, power, energy_budget).speeds
