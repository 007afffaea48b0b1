"""Vectorized kernel layer shared by the solver stack.

Every hot path in the package ultimately evaluates one of a small number of
primitives: prefix sums of work over the (sorted) release order, power /
energy of many speeds at once, the canonical run-in-release-order timing
recurrence, and — for the YDS substrate — the maximum-density interval over
the release x deadline critical grid.  This module implements those
primitives once, as NumPy array kernels, so that

* :func:`repro.online.yds.yds_speeds` finds each critical interval with a
  single 2-D prefix-sum/argmax instead of re-enumerating member sets
  (the seed implementation was ~O(n^4) in practice),
* :func:`repro.makespan.incmerge.incmerge` precomputes all initial block
  speeds/energies in bulk and runs its merge loop on closed-form scalar
  closures instead of per-call method dispatch,
* :meth:`repro.core.schedule.Schedule.from_speeds` and the schedule
  aggregation properties (energy, completion times, per-processor totals)
  are single array expressions,
* the batch engine (:mod:`repro.batch`) amortises all of the above over many
  instances.

Scalar reference implementations are retained next to each vectorized
caller; ``tests/test_kernels.py`` pins the two to each other at 1e-9 on
randomized instances.

On top of the per-instance kernels sits a *structure-of-arrays batched tier*
for the two solvers that have one (yds and avr): many same-shape instances
are packed into padded 2-D ``(batch, n)`` arrays (:func:`pack_instances`)
and :func:`max_density_interval_batched` / :func:`stepwise_rate_profile_batched`
run once over the whole chunk, so a cache-cold sweep of small instances
stops paying per-instance Python dispatch.  The batched YDS round
(:func:`max_density_interval_batched`) is engineered for *bitwise* parity
with :func:`max_density_interval`: duplicate-keeping sorted grid axes with
work scattered at the last-duplicate release / first-duplicate deadline
index reproduce the unique-grid prefix sums exactly (interleaved zero cells
do not perturb IEEE addition), and the first-flat-argmax tie-break maps to
the unique grid because duplicates are adjacent and ordered.
``tests/test_batched_kernels.py`` pins both batched kernels, through the
yds and avr batch solvers, to loops over their per-instance counterparts.

Fast closed forms are used only for :class:`~repro.core.power.PolynomialPower`
(``power = speed ** alpha``), where they are exact; every other power
function falls back to the scalar methods element-wise, preserving their
validation and error behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .power import PolynomialPower, PowerFunction

__all__ = [
    "prefix_sums",
    "power_eval",
    "energy_eval",
    "scalar_energy_fn",
    "scalar_speed_for_energy_fn",
    "chain_start_times",
    "max_density_interval",
    "interval_work_grid",
    "jensen_window_bound",
    "stepwise_rate_profile",
    "common_release_prefix_speeds",
    "common_release_prefix_speed_list",
    "PaddedBatch",
    "pack_instances",
    "BatchWorkspace",
    "max_density_interval_batched",
    "stepwise_rate_profile_batched",
]


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """Prefix sums with a leading zero: ``out[i] = sum(values[:i])``.

    ``out`` has one more entry than ``values`` so that range sums are
    ``out[j] - out[i]`` for the half-open range ``[i, j)``.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(len(values) + 1)
    out[0] = 0.0
    np.cumsum(values, out=out[1:])
    return out


# ----------------------------------------------------------------------
# vectorized power-function evaluation
# ----------------------------------------------------------------------

def power_eval(power: PowerFunction, speeds: np.ndarray) -> np.ndarray:
    """Vectorised ``P(speed)`` over an array of non-negative speeds."""
    speeds = np.asarray(speeds, dtype=float)
    if isinstance(power, PolynomialPower):
        return speeds**power.exponent
    return np.array([power.power(float(s)) for s in speeds.ravel()]).reshape(
        speeds.shape
    )


def energy_eval(
    power: PowerFunction, works: np.ndarray, speeds: np.ndarray
) -> np.ndarray:
    """Vectorised ``power.energy(work, speed)`` over aligned arrays.

    All speeds must be finite and positive (callers mask out the sentinel
    infinite-speed blocks before evaluating).
    """
    works = np.asarray(works, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    if isinstance(power, PolynomialPower):
        return works * speeds ** (power.exponent - 1.0)
    works_b, speeds_b = np.broadcast_arrays(works, speeds)
    return np.array(
        [
            power.energy(float(w), float(s))
            for w, s in zip(works_b.ravel(), speeds_b.ravel())
        ]
    ).reshape(works_b.shape)


def scalar_energy_fn(power: PowerFunction) -> Callable[[float, float], float]:
    """A fast scalar ``(work, speed) -> energy`` closure.

    Closed form for polynomial powers (skipping per-call validation that the
    solver loops already guarantee); the bound method otherwise.
    """
    if isinstance(power, PolynomialPower):
        a1 = power.exponent - 1.0

        def energy(work: float, speed: float, _a1: float = a1) -> float:
            return work * speed**_a1

        return energy
    return power.energy


def scalar_speed_for_energy_fn(power: PowerFunction) -> Callable[[float, float], float]:
    """A fast scalar ``(work, energy) -> speed`` closure (inverse of the above)."""
    if isinstance(power, PolynomialPower):
        inv = 1.0 / (power.exponent - 1.0)

        def speed(work: float, energy: float, _inv: float = inv) -> float:
            return (energy / work) ** _inv

        return speed
    return power.speed_for_energy


# ----------------------------------------------------------------------
# canonical run-in-release-order timing recurrence
# ----------------------------------------------------------------------

def chain_start_times(
    releases: np.ndarray, durations: np.ndarray, clock0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Start and end times of jobs run back-to-back in the given order.

    Implements the recurrence ``start[i] = max(release[i], end[i-1])`` with
    ``end[i] = start[i] + duration[i]`` and ``end[-1] = clock0`` as a single
    prefix-maximum: with ``P[i] = sum(durations[:i])``,
    ``start[i] = max_{j<=i}(release[j] - P[j]) + P[i]`` (treating ``clock0``
    as an extra release of job 0).
    """
    releases = np.asarray(releases, dtype=float)
    durations = np.asarray(durations, dtype=float)
    if len(releases) == 0:
        empty = np.empty(0)
        return empty, empty.copy()
    prefix = prefix_sums(durations)
    adjusted = releases - prefix[:-1]
    adjusted[0] = max(float(clock0), float(releases[0]))
    base = np.maximum.accumulate(adjusted)
    starts = base + prefix[:-1]
    ends = starts + durations
    return starts, ends


# ----------------------------------------------------------------------
# YDS critical-interval kernel
# ----------------------------------------------------------------------

def max_density_interval(
    releases: np.ndarray, deadlines: np.ndarray, works: np.ndarray
) -> tuple[float, float, float, np.ndarray] | None:
    """Maximum-density interval over the release x deadline critical grid.

    For every pair ``(t1, t2)`` with ``t1`` a release, ``t2`` a deadline and
    ``t2 > t1``, the density is ``w(t1, t2) / (t2 - t1)`` where ``w(t1, t2)``
    sums the work of jobs whose entire ``[release, deadline]`` window lies in
    ``[t1, t2]``.  Returns ``(t1, t2, density, member_mask)`` for the best
    pair, or ``None`` if no pair contains any job.

    The member-work matrix is computed in one shot: bucket every job at its
    (release, deadline) grid cell, then a suffix prefix-sum over releases
    (``r >= t1``) and a prefix sum over deadlines (``d <= t2``).  Ties are
    broken like the scalar reference loop: the first maximum in
    (t1 ascending, t2 ascending) order wins.
    """
    releases = np.asarray(releases, dtype=float)
    deadlines = np.asarray(deadlines, dtype=float)
    works = np.asarray(works, dtype=float)

    grid_r, grid_d, member_ext = interval_work_grid(releases, deadlines, works)
    member_work = member_ext[:-1, :]

    length = grid_d[np.newaxis, :] - grid_r[:, np.newaxis]
    valid = (length > 0.0) & (member_work > 0.0)
    if not np.any(valid):
        return None
    density = np.where(valid, member_work / np.where(valid, length, 1.0), -np.inf)
    flat = int(np.argmax(density))
    a, b = divmod(flat, len(grid_d))
    t1 = float(grid_r[a])
    t2 = float(grid_d[b])
    members = (releases >= t1) & (deadlines <= t2)
    return t1, t2, float(density[a, b]), members


# ----------------------------------------------------------------------
# event-grid primitives for the online stack
# ----------------------------------------------------------------------

def interval_work_grid(
    releases: np.ndarray, deadlines: np.ndarray, works: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative work over the release x deadline critical grid.

    Returns ``(grid_r, grid_d, member_work)`` where ``grid_r``/``grid_d`` are
    the sorted unique releases/deadlines and ``member_work[a, b]`` is the
    total work of jobs with ``release >= grid_r[a]`` and
    ``deadline <= grid_d[b]``.  ``member_work`` carries one extra all-zero
    row at index ``len(grid_r)`` so that searchsorted release indices can be
    used directly (the empty release suffix sums to zero).

    ``works`` may also be ``(n, k)``: each column gets its own grid,
    ``member_work[a, b, c]``, over one pair of sorted axes, and every column's
    sums are bitwise those of a one-column call.

    This is the shared substrate of the YDS critical-interval kernel
    (:func:`max_density_interval`), the vectorised BKP profile
    (:func:`repro.online.bkp.bkp_speed_profile`), the Jensen window bound and
    verify's Hall-condition certificate: any window work function
    ``w(t1, t2)`` with inclusive release/deadline constraints is a difference
    of two entries.
    """
    releases = np.asarray(releases, dtype=float)
    deadlines = np.asarray(deadlines, dtype=float)
    works = np.asarray(works, dtype=float)

    grid_r, idx_r = np.unique(releases, return_inverse=True)
    grid_d, idx_d = np.unique(deadlines, return_inverse=True)
    cell_work = np.zeros((len(grid_r) + 1, len(grid_d)) + works.shape[1:])
    np.add.at(cell_work, (idx_r, idx_d), works)
    member_work = np.cumsum(np.cumsum(cell_work[::-1, :], axis=0)[::-1, :], axis=1)
    return grid_r, grid_d, member_work


def jensen_window_bound(
    grid_r: np.ndarray, grid_d: np.ndarray, member_work: np.ndarray, power: PowerFunction
) -> float:
    """Largest ``(t2 - t1) * P(W / (t2 - t1))`` over an :func:`interval_work_grid`.

    ``W`` is the work of the jobs whose windows lie in ``[t1, t2]``; by
    Jensen's inequality every feasible schedule spends at least this much
    energy on them (convex ``P`` with ``P(0) = 0``).  ``0.0`` when no window
    holds work.
    """
    work = member_work[:-1]
    length = grid_d[np.newaxis, :] - grid_r[:, np.newaxis]
    valid = (length > 0.0) & (work > 0.0)
    if not valid.any():
        return 0.0
    work = work[valid]
    return float(np.max(energy_eval(power, work, work / length[valid])))


def stepwise_rate_profile(
    starts: np.ndarray, ends: np.ndarray, rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum of interval-supported constant rates as a piecewise-constant profile.

    Each contribution ``i`` adds ``rates[i]`` on the half-open interval
    ``[starts[i], ends[i])``.  Returns ``(events, levels)`` with ``events``
    the sorted unique interval endpoints and ``levels[k]`` the total rate on
    ``[events[k], events[k+1])`` (so ``levels`` has ``len(events) - 1``
    entries).  Implemented as a scatter-add of rate deltas at the endpoint
    indices followed by one cumulative sum — the event-grid analogue of a
    sweep line.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    rates = np.asarray(rates, dtype=float)
    events = np.unique(np.concatenate([starts, ends]))
    delta = np.zeros(len(events))
    np.add.at(delta, np.searchsorted(events, starts), rates)
    np.subtract.at(delta, np.searchsorted(events, ends), rates)
    levels = np.cumsum(delta)[:-1]
    return events, levels


def common_release_prefix_speeds(
    t0: float, deadlines: np.ndarray, works: np.ndarray
) -> np.ndarray:
    """YDS-optimal speeds for jobs that are all available at time ``t0``.

    ``deadlines`` must be sorted non-decreasingly (with ``works`` aligned)
    and strictly greater than ``t0``.  When every job shares its release the
    YDS critical intervals are deadline prefixes, so the optimal speeds are
    the slopes of the least concave majorant (upper hull) of the cumulative
    work staircase ``(t0, 0), (d_1, W_1), ..., (d_m, W_m)`` — the classic
    prefix-density structure Optimal Available replans over, and, with time
    reversed, the makespan server problem
    (:func:`repro.makespan.server.speeds_for_windows`).  A monotone hull
    stack computes all slopes in one O(m) pass instead of one
    critical-interval search per YDS round.

    Returns one speed per job as an array, constant within each hull segment
    and strictly decreasing across segments.  This is a thin wrapper: the
    hull is :func:`common_release_prefix_speed_list`, which Optimal
    Available calls on its lists directly.
    """
    return np.array(
        common_release_prefix_speed_list(
            float(t0), np.asarray(deadlines).tolist(), np.asarray(works).tolist()
        ),
        dtype=float,
    )


def common_release_prefix_speed_list(
    t0: float, deadlines: list[float], works: list[float]
) -> list[float]:
    """:func:`common_release_prefix_speeds` on Python lists of floats.

    The one hull loop: plain lists, because Optimal Available
    (:func:`repro.online.oa.oa_schedule_incremental`) replans once per
    release on residual sets of a few dozen jobs, where each NumPy call's
    fixed cost exceeds its arithmetic.  Returns a list of ``len(works)``
    speeds.
    """
    # hull vertices (x, y) with the index of the last job in each segment;
    # slopes[j] is the slope into vertex j+1 and strictly decreases
    xs = [t0]
    ys = [0.0]
    last_job = [-1]
    slopes: list[float] = []
    y = 0.0
    for k, x in enumerate(deadlines):
        y += works[k]
        if x <= xs[0]:
            raise ValueError(
                f"deadline {x:g} is not after the common availability time {t0:g}"
            )
        while slopes:
            top_x, top_y = xs[-1], ys[-1]
            slope = math.inf if x <= top_x else (y - top_y) / (x - top_x)
            if slope >= slopes[-1]:
                # the chain would stop being concave: merge with the previous
                # segment (equality merges collinear segments, which matches
                # YDS emitting them as consecutive equal-intensity rounds)
                xs.pop()
                ys.pop()
                last_job.pop()
                slopes.pop()
                continue
            break
        slopes.append((y - ys[-1]) / (x - xs[-1]))
        xs.append(x)
        ys.append(y)
        last_job.append(k)

    speeds: list[float] = []
    for j, slope in enumerate(slopes):
        speeds += [slope] * (last_job[j + 1] - last_job[j])
    return speeds


# ----------------------------------------------------------------------
# structure-of-arrays batched tier: many small same-shape instances at once
# ----------------------------------------------------------------------

#: Largest finite double: substituted for +inf releases before the interval
#: length subtraction so dead grid cells produce huge-negative lengths (and
#: hence negative densities) instead of inf - inf = NaN.
_BIG = 8.98846567431158e307


@dataclass(frozen=True)
class PaddedBatch:
    """A chunk of instances packed into padded ``(batch, n)`` arrays.

    Rows are instances; columns are job slots.  Slots beyond an instance's
    job count are padding: ``mask`` is False, releases/deadlines are ``+inf``
    and works are ``0.0`` — the sentinel encoding every batched kernel
    understands (padded jobs sort to the end of every grid axis and scatter
    zero work).
    """

    releases: np.ndarray
    deadlines: np.ndarray
    works: np.ndarray
    mask: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.releases.shape[0]

    @property
    def width(self) -> int:
        return self.releases.shape[1]

    @property
    def n_jobs(self) -> np.ndarray:
        """Live job count per row."""
        return self.mask.sum(axis=1)


def pack_instances(instances: Sequence) -> PaddedBatch:
    """Pack instances into one :class:`PaddedBatch` (width = max job count)."""
    if not instances:
        raise ValueError("pack_instances needs at least one instance")
    batch = len(instances)
    width = max(inst.n_jobs for inst in instances)
    releases = np.full((batch, width), np.inf)
    deadlines = np.full((batch, width), np.inf)
    works = np.zeros((batch, width))
    mask = np.zeros((batch, width), dtype=bool)
    for b, inst in enumerate(instances):
        m = inst.n_jobs
        releases[b, :m] = inst.releases
        if inst.deadlines is not None:
            deadlines[b, :m] = inst.deadlines
        works[b, :m] = inst.works
        mask[b, :m] = True
    return PaddedBatch(releases, deadlines, works, mask)


def _dup_ranks(
    values: np.ndarray, sorted_vals: np.ndarray, order: np.ndarray, last: bool
) -> np.ndarray:
    """Index of each value in its own sorted row: last-dup or first-dup.

    The duplicate-keeping analogue of ``np.unique(..., return_inverse=True)``:
    each entry maps to the first (or last) position of its value run in the
    row's sort, so scatters land exactly where the unique-grid scatter would.
    """
    batch, n = values.shape
    bidx = np.arange(batch)[:, None]
    pos = np.empty((batch, n), dtype=np.int64)
    pos[bidx, order] = np.arange(n)
    ar = np.arange(n)
    if last:
        is_last = np.ones((batch, n), dtype=bool)
        is_last[:, :-1] = sorted_vals[:, :-1] != sorted_vals[:, 1:]
        run = np.minimum.accumulate(np.where(is_last, ar, n)[:, ::-1], axis=1)[:, ::-1]
    else:
        is_first = np.ones((batch, n), dtype=bool)
        is_first[:, 1:] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
        run = np.maximum.accumulate(np.where(is_first, ar, -1), axis=1)
    return run[bidx, pos]


class BatchWorkspace:
    """Reusable scratch buffers for :func:`max_density_interval_batched`.

    Allocating the multi-MB round intermediates fresh every call makes the
    allocator return the blocks to the kernel (glibc munmaps large frees), so
    each round pays page-zeroing again.  A workspace sized for the first
    round serves every later (smaller) round via flat slices.  The scatter
    buffer is kept pristine-zero between rounds by sparsely re-zeroing only
    the touched cells.
    """

    def __init__(self, batch_size: int, width: int) -> None:
        cells = batch_size * (width + 1) * width
        grid = batch_size * width * width
        self.scatter = np.zeros(cells)
        self.cell = np.empty(cells)
        self.mw = np.empty(grid)
        self.length = np.empty(grid)
        self.nan = np.empty(grid, dtype=bool)

    def fits(self, batch_size: int, width: int) -> bool:
        return batch_size * (width + 1) * width <= len(self.scatter)


def _sorted_dup_grid(
    releases: np.ndarray, deadlines: np.ndarray, works: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cell scatter of :func:`max_density_interval_batched`.

    Returns ``(r_sorted, d_sorted, flat_idx, minlength)``: the dup-keeping
    sorted axes plus the flat scatter index of every job into the
    reversed-release ``(batch, n + 1, n)`` cell grid (row 0 is the all-zero
    row for the empty release suffix; padded jobs scatter there with zero
    work).
    """
    batch, n = releases.shape
    bidx = np.arange(batch)[:, None]
    order_r = np.argsort(releases, axis=1, kind="stable")
    order_d = np.argsort(deadlines, axis=1, kind="stable")
    r_sorted = releases[bidx, order_r]
    d_sorted = deadlines[bidx, order_d]
    idx_r = _dup_ranks(releases, r_sorted, order_r, last=True)
    idx_d = _dup_ranks(deadlines, d_sorted, order_d, last=False)
    dead = ~np.isfinite(releases)
    idx_rr = np.where(dead, 0, n - idx_r)
    idx_dd = np.where(dead, 0, idx_d)
    flat_idx = ((bidx * (n + 1) + idx_rr) * n + idx_dd).ravel()
    return r_sorted, d_sorted, flat_idx, batch * (n + 1) * n


def max_density_interval_batched(
    releases: np.ndarray,
    deadlines: np.ndarray,
    works: np.ndarray,
    workspace: BatchWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise :func:`max_density_interval` over padded ``(batch, n)`` rows.

    Padded/retired jobs are the ``release = deadline = +inf, work = 0``
    sentinel.  Returns ``(t1, t2, density)`` arrays; a row with no valid
    interval reports ``density <= 0`` (callers test ``density > 0`` exactly
    as the per-instance kernel's ``None`` return).  For every row with a
    valid interval the result is bitwise equal to the per-instance kernel:
    the dup-grid prefix sums only interleave IEEE-exact ``+ 0.0`` terms, and
    the first-flat-argmax tie-break picks the same ``(t1, t2)`` because
    duplicate axis entries are adjacent and in unique order.

    No explicit validity mask is needed: live jobs always satisfy
    ``release < deadline`` strictly (an invariant the YDS interval collapse
    preserves), so any grid cell with non-positive length has zero member
    work — the only NaNs are ``0 / 0`` cells, scrubbed to ``-inf`` before the
    argmax.
    """
    releases = np.asarray(releases, dtype=float)
    deadlines = np.asarray(deadlines, dtype=float)
    works = np.asarray(works, dtype=float)
    batch, n = releases.shape
    r_sorted, d_sorted, flat_idx, cells = _sorted_dup_grid(releases, deadlines, works)
    if workspace is not None and workspace.fits(batch, n):
        zbuf = workspace.scatter[:cells]
        np.add.at(zbuf, flat_idx, works.ravel())
        zcell = zbuf.reshape(batch, n + 1, n)
        cell = workspace.cell[:cells].reshape(batch, n + 1, n)
        if batch * n >= 1024:
            # row-loop cumsum: same per-lane add chain as np.cumsum (bitwise
            # identical) but contiguous full-width adds, ~1.6x faster here
            np.copyto(cell[:, 0, :], zcell[:, 0, :])
            for i in range(1, n + 1):
                np.add(cell[:, i - 1, :], zcell[:, i, :], out=cell[:, i, :])
        else:
            np.cumsum(zcell, axis=1, out=cell)
        zbuf[flat_idx] = 0.0  # restore pristine zeros for the next round
        mw = workspace.mw[: batch * n * n].reshape(batch, n, n)
        length = workspace.length[: batch * n * n].reshape(batch, n, n)
        nan = workspace.nan[: batch * n * n].reshape(batch, n, n)
    else:
        cell = np.bincount(flat_idx, weights=works.ravel(), minlength=cells).reshape(
            batch, n + 1, n
        )
        np.cumsum(cell, axis=1, out=cell)
        mw = np.empty((batch, n, n))
        length = np.empty((batch, n, n))
        nan = np.empty((batch, n, n), dtype=bool)
    np.cumsum(cell[:, n:0:-1, :], axis=2, out=mw)
    r_len = np.where(np.isinf(r_sorted), _BIG, r_sorted)
    np.subtract(d_sorted[:, None, :], r_len[:, :, None], out=length)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(mw, length, out=mw)
    np.isnan(mw, out=nan)
    mw[nan] = -np.inf
    flat_best = np.argmax(mw.reshape(batch, -1), axis=1)
    a, b = np.divmod(flat_best, n)
    rows = np.arange(batch)
    density = mw.reshape(batch, -1)[rows, flat_best]
    t1 = r_sorted[rows, a]
    t2 = d_sorted[rows, b]
    return t1, t2, density


def stepwise_rate_profile_batched(
    starts: np.ndarray,
    ends: np.ndarray,
    rates: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`stepwise_rate_profile` on duplicate-keeping events.

    Returns ``(events, levels)`` of shapes ``(batch, 2n)`` and
    ``(batch, 2n - 1)``: ``events`` are the per-row sorted endpoint values
    *with duplicates* (padded slots contribute ``+inf`` pairs at the end) and
    ``levels[b, k]`` is the total rate on ``[events[b, k], events[b, k+1])``.
    Duplicate events produce zero-length segments; dropping them (and any
    non-finite endpoints) recovers the per-instance profile bitwise, since
    rate deltas scatter at the first duplicate of each value in the same
    order the per-instance kernel accumulates them.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        starts = np.where(mask, starts, np.inf)
        ends = np.where(mask, ends, np.inf)
        rates = np.where(mask, rates, 0.0)
    batch, n = starts.shape
    cat = np.concatenate([starts, ends], axis=1)
    order = np.argsort(cat, axis=1, kind="stable")
    events = np.take_along_axis(cat, order, axis=1)
    first = _dup_ranks(cat, events, order, last=False)
    width = 2 * n
    bidx = np.arange(batch)[:, None]
    flat = (bidx * width + first).ravel().reshape(batch, width)
    delta = np.zeros(batch * width)
    np.add.at(delta, flat[:, :n].ravel(), rates.ravel())
    np.subtract.at(delta, flat[:, n:].ravel(), rates.ravel())
    levels = np.cumsum(delta.reshape(batch, width), axis=1)[:, :-1]
    return events, levels
