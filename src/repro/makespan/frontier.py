"""All non-dominated schedules for uniprocessor makespan (Section 3.2, Figures 1-3).

The modified IncMerge of Section 3.2 enumerates every optimal *configuration*
(way of breaking the jobs into blocks) by starting from an effectively
infinite energy budget and lowering it:

* With a huge budget the final job runs alone, arbitrarily fast; the blocks
  in front of it are exactly the blocks IncMerge builds for the first ``n-1``
  jobs, and they do not depend on the budget at all.
* Within one configuration only the final block's speed changes with the
  budget, so the makespan is a simple closed-form function of the energy.
* The configuration changes exactly when the final block slows down to the
  speed of its predecessor; at that budget the two merge and the next
  configuration takes over.  Cascading the merges down to a single block
  yields the whole curve of non-dominated schedules.

A configuration is plain data (:class:`FrontierSegment`): its final block
starts at ``t0`` with ``W`` units of work, and the blocks before it use
``E_fixed``.  At a budget ``E`` the final block runs at the speed ``s`` with
``W * P(s) / s = E - E_fixed``.  With the marginal energy
``h(s) = s * P'(s) - P(s)`` and its elasticity ``eps(s) = s * h'(s) / h(s)``
(:meth:`~repro.core.power.PowerFunction.marginal_energy`,
:meth:`~repro.core.power.PowerFunction.elasticity`) every segment of the
curve is, for every convex power function,

``makespan(E) = t0 + W / s``, ``makespan'(E) = -1 / h(s)`` and
``makespan''(E) = eps(s) * s / (W * h(s)**2)``

(Figures 1, 2 and 3): ``dE/ds = W * h(s) / s**2`` and ``dmakespan/ds =
-W / s**2``.  For ``P = s**alpha``, ``h = (alpha - 1) * s**alpha`` and
``eps = alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.blocks import Block, coincident_release_threshold
from ..core.job import Instance
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import BudgetError
from .incmerge import IncMergeResult, incmerge

__all__ = [
    "FrontierSegment",
    "TradeoffCurve",
    "coarse_frontier",
    "coarse_frontier_samples",
    "interpolation_error_bound",
    "makespan_frontier",
    "schedule_for_energy",
]


@dataclass(frozen=True)
class FrontierSegment:
    """One block configuration, optimal for budgets in ``[energy_lo, energy_hi]``.

    Its final block runs jobs ``first .. last`` from ``start_time`` with
    ``work`` units of work in all; the blocks before it run at fixed speeds
    and use ``fixed_energy``.
    """

    energy_lo: float
    energy_hi: float
    first: int
    last: int
    start_time: float
    work: float
    fixed_energy: float


class TradeoffCurve:
    """The optimal makespan as a function of the energy budget ``E > 0``.

    ``segments`` are the configurations in increasing energy; they tile
    ``(0, inf)``, and ``breakpoints`` are the budgets where they meet.  The
    curve is decreasing and convex by construction.
    """

    def __init__(self, segments: Iterable[FrontierSegment], power: PowerFunction) -> None:
        self.segments: tuple[FrontierSegment, ...] = tuple(segments)
        self.power = power
        # sorted upper edges (the last is +inf), for an O(log n) lookup
        self._energy_his = np.array([seg.energy_hi for seg in self.segments])

    @property
    def breakpoints(self) -> list[float]:
        """Energy values at which the configuration changes (segment joins)."""
        return [seg.energy_lo for seg in self.segments[1:]]

    def segment_at(self, energy: float) -> FrontierSegment:
        """The configuration optimal at a budget ``energy > 0`` (binary search).

        A budget within 1e-12 above a breakpoint is read on the configuration
        below it.
        """
        if not energy > 0.0:
            raise BudgetError(f"energy budget must be > 0, got {energy:g}")
        return self.segments[int(np.searchsorted(self._energy_his, energy - 1e-12))]

    def _final_speed(self, energy: float) -> tuple[FrontierSegment, float]:
        """The configuration at ``energy`` and the speed of its final block."""
        energy = float(energy)
        seg = self.segment_at(energy)
        return seg, self.power.speed_for_energy(seg.work, energy - seg.fixed_energy)

    def value(self, energy: float) -> float:
        """Optimal makespan ``t0 + W / s`` with the given energy budget."""
        seg, speed = self._final_speed(energy)
        return float(seg.start_time + seg.work / speed)

    def derivative(self, energy: float) -> float:
        """Slope ``-1 / h(s)`` of the makespan in the energy budget."""
        _, speed = self._final_speed(energy)
        return -1.0 / self.power.marginal_energy(speed)

    def second_derivative(self, energy: float) -> float:
        """Curvature ``eps(s) * s / (W * h(s)**2)`` of the makespan in the budget."""
        seg, speed = self._final_speed(energy)
        marginal = self.power.marginal_energy(speed)
        return self.power.elasticity(speed) * speed / (seg.work * marginal * marginal)

    def sample(self, energies: Iterable[float]) -> np.ndarray:
        """:meth:`value` at each of ``energies``."""
        return np.array([self.value(e) for e in energies], dtype=float)

    def sample_derivative(self, energies: Iterable[float]) -> np.ndarray:
        """:meth:`derivative` at each of ``energies``."""
        return np.array([self.derivative(e) for e in energies], dtype=float)

    def sample_second_derivative(self, energies: Iterable[float]) -> np.ndarray:
        """:meth:`second_derivative` at each of ``energies``."""
        return np.array([self.second_derivative(e) for e in energies], dtype=float)

    def energy_grid(self, n: int = 200, max_energy: float | None = None) -> np.ndarray:
        """``n`` budgets from ``max_energy * 1e-6`` up to ``max_energy``.

        ``max_energy`` defaults to three times the largest breakpoint (3 when
        there is none).  The grid starts above 0, where the makespan diverges.
        """
        hi = 3.0 * max(self.breakpoints, default=1.0) if max_energy is None else float(max_energy)
        if not hi > 0.0:
            raise BudgetError("energy grid upper bound must be > 0")
        return np.linspace(hi * 1e-6, hi, int(n))

    def is_convex(self, n_probe: int = 64, tol: float = 1e-6) -> bool:
        """Whether the sampled curve is convex in energy."""
        values = self.sample(self.energy_grid(n_probe))
        second_diff = np.diff(values, 2)
        scale = max(1.0, float(np.max(np.abs(values))))
        return bool(np.all(second_diff >= -tol * scale))

    def dominates_point(self, energy: float, value: float) -> bool:
        """Whether some schedule on the curve is at least as good in both criteria."""
        return energy > 0.0 and self.value(energy) <= value + 1e-9

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TradeoffCurve(n_segments={len(self.segments)}, breakpoints={self.breakpoints})"


def _fixed_blocks_before_final(
    instance: Instance, power: PowerFunction
) -> list[Block]:
    """The block structure of jobs ``0 .. n-2`` in the high-energy limit.

    This is IncMerge run on the first ``n-1`` jobs with their speeds fixed by
    release times only (the final job runs alone arbitrarily fast, so it never
    forces a merge).  Returns an empty list for single-job instances.
    """
    releases = instance.releases
    works = instance.works
    n = instance.n_jobs
    tiny = coincident_release_threshold(releases)
    stack: list[tuple[int, int, float, float, float]] = []  # first, last, start, work, speed
    for i in range(n - 1):
        window = releases[i + 1] - releases[i]
        speed = math.inf if window <= tiny else works[i] / window
        first, last, start, work = i, i, float(releases[i]), float(works[i])
        while stack and speed < stack[-1][4] * (1.0 - 1e-15):
            pfirst, plast, pstart, pwork, _ = stack.pop()
            first, start = pfirst, pstart
            work += pwork
            window = releases[last + 1] - start
            speed = math.inf if window <= tiny else work / window
        stack.append((first, last, start, work, speed))
    blocks: list[Block] = []
    for first, last, start, work, speed in stack:
        if math.isinf(speed):
            # only possible when r_{last+1} == r_first; such a block cannot be
            # a fixed block in any real configuration: it will always be
            # absorbed by the final block during the frontier cascade.  Keep it
            # with a huge-but-finite placeholder speed so the cascade handles
            # it; its energy threshold is +inf so it merges immediately.
            speed = math.inf
        blocks.append(
            _make_block(first, last, start, work, speed)
        )
    return blocks


def _make_block(first: int, last: int, start: float, work: float, speed: float) -> Block:
    if math.isinf(speed):
        # Block dataclass requires finite speed; encode "infinite" with a
        # sentinel that is treated specially in the cascade below.
        return Block(first=first, last=last, start_time=start, work=work, speed=1e300)
    return Block(first=first, last=last, start_time=start, work=work, speed=speed)


def makespan_frontier(instance: Instance, power: PowerFunction) -> TradeoffCurve:
    """Compute the full energy/makespan trade-off curve of non-dominated schedules.

    Returns a :class:`TradeoffCurve` whose ``breakpoints`` are the budgets at
    which the optimal block configuration changes (``E = 8`` and ``E = 17``
    for the paper's Figure 1 instance).

    Raises :class:`BudgetError` for a power function with a positive
    critical speed (leakage): the cascade's block lemmas are proven for
    ``P = s**alpha``, and where the curve's low end lies when no job may run
    below the critical speed is not derived yet.
    """
    critical = power.critical_speed
    if critical > 0.0:
        raise BudgetError(
            f"the makespan frontier needs a power function without leakage; this one "
            f"has critical speed {critical:g}, and the frontier's low end at the "
            "critical speed is not derived yet (ROADMAP item 1, leaky power)"
        )
    fixed = _fixed_blocks_before_final(instance, power)
    n = instance.n_jobs

    # final block initially = last job alone
    first = last = n - 1
    start = float(instance.releases[n - 1])
    work = float(instance.works[n - 1])
    # Per-stage fixed energies as exact prefix sums: the cascade needs the
    # fixed-block energy after every pop, and computing it by repeated
    # subtraction leaves a cancellation residual (~1e-12 of the largest block
    # energy) that makes the final single-block configuration reject valid
    # tiny budgets.  ``fixed_energy_prefix[k]`` is the energy of the first
    # ``k`` fixed blocks, summed in block order, so the empty prefix is
    # exactly 0.0.
    block_energies = [
        power.energy(b.work, b.speed) if b.speed < 1e299 else 0.0 for b in fixed
    ]
    fixed_energy_prefix = [0.0]
    for e in block_energies:
        fixed_energy_prefix.append(fixed_energy_prefix[-1] + e)

    segments: list[FrontierSegment] = []
    energy_hi = math.inf
    while True:
        fixed_energy = float(fixed_energy_prefix[len(fixed)])
        if not fixed:
            energy_lo = 0.0
        elif fixed[-1].speed >= 1e299:
            # predecessor has "infinite" speed: the final block can never
            # run that fast, so this configuration occupies no energy
            # range; merge immediately without emitting a segment.
            energy_lo = energy_hi
        else:
            energy_lo = fixed_energy + power.energy(work, fixed[-1].speed)
        if energy_lo < energy_hi:
            segments.append(
                FrontierSegment(energy_lo, energy_hi, first, last, start, work, fixed_energy)
            )
            energy_hi = energy_lo
        if not fixed:
            break
        prev = fixed.pop()
        first, start = prev.first, prev.start_time
        work += prev.work

    segments.reverse()
    return TradeoffCurve(segments, power)


def coarse_frontier_samples(
    instance: Instance,
    power: PowerFunction,
    min_energy: float,
    max_energy: float,
    points: int,
) -> list[tuple[float, float]]:
    """Sample the frontier at ``points`` energies via direct IncMerge solves.

    The coarse variant of the ``frontier`` solver: instead of building the
    full analytic curve it evaluates the optimal makespan at a grid of
    budgets, so clients interpolate between samples.  The samples lie exactly
    on the true curve (each is an optimal IncMerge solve); only the
    interpolation between them is approximate, and
    :func:`interpolation_error_bound` certifies that gap.
    """
    from .incmerge import incmerge

    if not (math.isfinite(min_energy) and min_energy > 0.0):
        raise BudgetError(f"min_energy must be a finite value > 0, got {min_energy!r}")
    if not (math.isfinite(max_energy) and max_energy > min_energy):
        raise BudgetError(
            f"max_energy must be finite and exceed min_energy, got {max_energy!r}"
        )
    if points < 2:
        raise BudgetError(f"need at least 2 sample points, got {points}")
    grid = np.linspace(float(min_energy), float(max_energy), int(points))
    return [
        (float(e), float(incmerge(instance, power, float(e)).makespan)) for e in grid
    ]


def interpolation_error_bound(samples: list[tuple[float, float]]) -> float:
    """Certified relative error of linear interpolation between curve samples.

    The frontier curve is convex and decreasing in energy, so on each segment
    the chord between adjacent samples is an *upper* bound on the true curve,
    while the curve lies above (a) the flat line at the right sample's value
    (the curve is decreasing) and (b) the secants of the adjacent segments
    extended into this one (the curve is convex).  The gap between the chord
    and that lower envelope bounds the interpolation error; dividing by the
    segment's minimum envelope value (the right sample, where every bounding
    line is lowest) gives a rigorous relative bound.

    The chord-minus-envelope gap is a concave piecewise-linear function, so
    its maximum over a segment is attained at a segment endpoint or where two
    bounding lines intersect; only those points are evaluated.
    """
    if len(samples) < 2:
        raise BudgetError("need at least 2 samples to bound interpolation error")
    pts = sorted((float(e), float(v)) for e, v in samples)
    for (e0, v0), (e1, v1) in zip(pts, pts[1:]):
        if not e1 > e0:
            raise BudgetError("sample energies must be strictly increasing")
        if v1 > v0 * (1.0 + 1e-12):
            raise BudgetError("samples must be non-increasing in energy")

    def line_through(p: tuple[float, float], q: tuple[float, float]):
        slope = (q[1] - p[1]) / (q[0] - p[0])
        return slope, p[1] - slope * p[0]

    worst = 0.0
    for i in range(len(pts) - 1):
        (e_lo, v_lo), (e_hi, v_hi) = pts[i], pts[i + 1]
        chord = line_through(pts[i], pts[i + 1])
        lower: list[tuple[float, float]] = [(0.0, v_hi)]
        if i >= 1:
            lower.append(line_through(pts[i - 1], pts[i]))
        if i + 2 < len(pts):
            lower.append(line_through(pts[i + 1], pts[i + 2]))
        candidates = [e_lo, e_hi]
        for a in range(len(lower)):
            for b in range(a + 1, len(lower)):
                (sa, ca), (sb, cb) = lower[a], lower[b]
                if abs(sa - sb) > 1e-300:
                    x = (cb - ca) / (sa - sb)
                    if e_lo < x < e_hi:
                        candidates.append(x)
        floor = v_hi  # smallest envelope value on the segment
        for x in candidates:
            upper = chord[0] * x + chord[1]
            envelope = max(s * x + c for s, c in lower)
            gap = upper - envelope
            if gap > 0.0:
                worst = max(worst, gap / floor)
    return float(worst)


def coarse_frontier(
    instance: Instance,
    power: PowerFunction,
    min_energy: float,
    max_energy: float,
    target_epsilon: float,
    initial_points: int = 9,
    max_points: int = 4096,
) -> tuple[list[tuple[float, float]], float]:
    """Sample the frontier coarsely, refining until the certified bound holds.

    Doubles the grid density until :func:`interpolation_error_bound` is at
    most ``target_epsilon`` or the grid reaches ``max_points`` (the bound
    shrinks as the grid refines: the curve is convex with bounded one-sided
    slopes on ``[min_energy, max_energy]`` once ``min_energy > 0``).  Returns
    ``(samples, certified_epsilon)``; the realized bound may exceed the
    target only when the point cap was hit.
    """
    if not (math.isfinite(target_epsilon) and target_epsilon > 0.0):
        raise BudgetError(
            f"target_epsilon must be a finite value > 0, got {target_epsilon!r}"
        )
    points = max(4, int(initial_points))
    points = min(points, int(max_points))
    while True:
        samples = coarse_frontier_samples(
            instance, power, min_energy, max_energy, points
        )
        epsilon = interpolation_error_bound(samples)
        if epsilon <= target_epsilon or points >= max_points:
            return samples, epsilon
        points = min(int(max_points), 2 * points - 1)


def schedule_for_energy(
    instance: Instance,
    power: PowerFunction,
    energy_budget: float,
) -> Schedule:
    """Materialise the optimal (laptop) schedule for a budget via IncMerge."""
    result: IncMergeResult = incmerge(instance, power, energy_budget)
    return result.schedule()
