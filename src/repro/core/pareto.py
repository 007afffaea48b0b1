"""Energy/quality trade-off curves (the non-dominated frontier).

The central object of the paper's Section 3.2 is the curve relating the energy
budget to the optimal value of the scheduling metric over all *non-dominated*
schedules (Figure 1), together with its first and second derivatives
(Figures 2 and 3).  The curve is piecewise smooth: within one block
configuration it has a closed form, and configuration changes introduce
breakpoints at which higher derivatives are discontinuous.

This module provides a metric-agnostic representation:

* :class:`CurveSegment` -- one configuration's piece of the curve, described
  by an energy interval plus callables for the value and (optionally) its
  first and second derivatives.  Segments carry an arbitrary ``label``/
  ``payload`` so algorithm modules can attach the block structure.
* :class:`TradeoffCurve` -- an ordered collection of segments supporting
  evaluation, sampling, analytic-or-numeric differentiation, inversion
  (the *server problem*: minimum energy for a target value), breakpoint
  queries and dominance comparison against other curves or point sets.

The makespan frontier (:mod:`repro.makespan.frontier`) and the flow frontier
(:mod:`repro.flow.frontier`) both return :class:`TradeoffCurve` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..exceptions import BudgetError, InfeasibleError, InvalidInstanceError
from .roots import brentq

__all__ = ["CurveSegment", "TradeoffCurve"]

_REL_STEP = 1e-6


@dataclass(frozen=True)
class CurveSegment:
    """One piece of a trade-off curve over the energy interval ``[energy_lo, energy_hi]``.

    ``value`` must be defined on the closed interval; ``energy_hi`` may be
    ``math.inf`` for the final segment (arbitrarily large budgets).  The value
    function is expected to be non-increasing in energy — more energy can
    never hurt a non-dominated schedule — and :class:`TradeoffCurve` verifies
    this on a sample grid at construction time.
    """

    energy_lo: float
    energy_hi: float
    value: Callable[[float], float]
    derivative: Callable[[float], float] | None = None
    second_derivative: Callable[[float], float] | None = None
    label: str = ""
    payload: Any = None
    #: Optional vectorised twin of ``value``: maps an ``np.ndarray`` of
    #: in-segment energies to the array of values in one call.  Used by
    #: :meth:`TradeoffCurve.sample`; when absent, sampling falls back to the
    #: scalar ``value`` per point.
    value_array: Callable[[np.ndarray], np.ndarray] | None = None
    #: Whether ``derivative``/``second_derivative`` are NumPy-ufunc-safe
    #: (accept arrays and broadcast element-wise), enabling the vectorised
    #: derivative sampling paths.
    array_safe: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.energy_lo) or self.energy_lo < 0.0:
            raise InvalidInstanceError(
                f"segment energy_lo must be finite and >= 0, got {self.energy_lo}"
            )
        if self.energy_hi <= self.energy_lo:
            raise InvalidInstanceError(
                f"segment energy range is empty: [{self.energy_lo}, {self.energy_hi}]"
            )

    def contains(self, energy: float) -> bool:
        """Whether ``energy`` lies in this segment's (closed) interval."""
        return self.energy_lo - 1e-12 <= energy <= self.energy_hi + 1e-12

    def derivative_at(self, energy: float) -> float:
        """First derivative, analytic if available, else central finite difference."""
        if self.derivative is not None:
            return float(self.derivative(energy))
        return _numeric_derivative(self.value, energy, self.energy_lo, self.energy_hi)

    def second_derivative_at(self, energy: float) -> float:
        """Second derivative, analytic if available, else finite difference of the first."""
        if self.second_derivative is not None:
            return float(self.second_derivative(energy))
        return _numeric_derivative(
            self.derivative_at, energy, self.energy_lo, self.energy_hi
        )


def _numeric_derivative(
    func: Callable[[float], float], x: float, lo: float, hi: float
) -> float:
    """Central finite difference clipped to the segment's interior."""
    h = max(abs(x), 1.0) * _REL_STEP
    a = max(lo, x - h)
    b = min(hi if math.isfinite(hi) else x + h, x + h)
    if b <= a:
        raise BudgetError(f"cannot differentiate at {x}: degenerate interval")
    return (func(b) - func(a)) / (b - a)


class TradeoffCurve:
    """A piecewise trade-off curve ``value = f(energy)`` for non-dominated schedules.

    Segments must tile a contiguous energy interval (each segment's
    ``energy_hi`` equals the next segment's ``energy_lo``) and the overall
    value must be non-increasing in energy.
    """

    def __init__(self, segments: Iterable[CurveSegment], metric_name: str = "value") -> None:
        segs = sorted(segments, key=lambda s: s.energy_lo)
        if not segs:
            raise InvalidInstanceError("a trade-off curve needs at least one segment")
        for a, b in zip(segs, segs[1:]):
            if not math.isclose(a.energy_hi, b.energy_lo, rel_tol=1e-9, abs_tol=1e-9):
                raise InvalidInstanceError(
                    f"curve segments must tile the energy axis; gap/overlap between "
                    f"{a.energy_hi} and {b.energy_lo}"
                )
        self.segments: tuple[CurveSegment, ...] = tuple(segs)
        # sorted upper edges of the segments, for O(log n) budget->segment
        # lookup via searchsorted (the last entry may be +inf)
        self._energy_his: np.ndarray = np.array([s.energy_hi for s in self.segments])
        self.metric_name = metric_name
        self._check_monotone()

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def min_energy(self) -> float:
        """Smallest energy budget covered by the curve."""
        return self.segments[0].energy_lo

    @property
    def max_energy(self) -> float:
        """Largest energy budget covered (may be ``inf``)."""
        return self.segments[-1].energy_hi

    @property
    def breakpoints(self) -> list[float]:
        """Energy values at which the configuration changes (segment joins)."""
        return [seg.energy_lo for seg in self.segments[1:]]

    def _endpoint_tolerances(self) -> tuple[float, float]:
        """Absolute snapping tolerances at the curve's two endpoints.

        Energies within a 1e-9 *relative* band outside the covered range are
        floating-point noise from callers that computed the endpoint
        themselves (grids, cascades, bisections); they are clamped onto the
        endpoint rather than rejected.
        """
        lo_tol = 1e-9 * max(1.0, abs(self.min_energy))
        hi_tol = (
            1e-9 * max(1.0, abs(self.max_energy))
            if math.isfinite(self.max_energy)
            else 0.0
        )
        return lo_tol, hi_tol

    def _clamped(self, energy: float) -> float:
        """Snap an energy within endpoint tolerance back into the curve's range."""
        lo_tol, hi_tol = self._endpoint_tolerances()
        if self.min_energy - lo_tol <= energy < self.min_energy:
            return float(self.min_energy)
        if math.isfinite(self.max_energy) and (
            self.max_energy < energy <= self.max_energy + hi_tol
        ):
            return float(self.max_energy)
        return float(energy)

    def segment_at(self, energy: float) -> CurveSegment:
        """The segment containing the given energy budget (binary search).

        Energies within a relative tolerance outside the covered range are
        clamped to the nearest endpoint (see :meth:`_clamped`); anything
        further out raises :class:`BudgetError`.
        """
        energy = self._clamped(energy)
        if energy < self.min_energy or energy > self.max_energy:
            raise BudgetError(
                f"energy {energy:g} outside the curve's range "
                f"[{self.min_energy:g}, {self.max_energy:g}]"
            )
        # first segment with energy <= energy_hi + 1e-12
        idx = int(np.searchsorted(self._energy_his, energy - 1e-12, side="left"))
        if idx >= len(self.segments):  # pragma: no cover - defensive
            idx = len(self.segments) - 1
        return self.segments[idx]

    def _segment_indices(
        self, energies: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`segment_at`: one searchsorted for all points.

        Returns the segment index per point together with the
        endpoint-clamped energies to evaluate the segments at.
        """
        lo_tol, hi_tol = self._endpoint_tolerances()
        energies = np.where(
            (energies >= self.min_energy - lo_tol) & (energies < self.min_energy),
            self.min_energy,
            energies,
        )
        if math.isfinite(self.max_energy):
            energies = np.where(
                (energies > self.max_energy) & (energies <= self.max_energy + hi_tol),
                self.max_energy,
                energies,
            )
        out_of_range = (energies < self.min_energy) | (energies > self.max_energy)
        if np.any(out_of_range):
            bad = float(energies[np.argmax(out_of_range)])
            raise BudgetError(
                f"energy {bad:g} outside the curve's range "
                f"[{self.min_energy:g}, {self.max_energy:g}]"
            )
        indices = np.minimum(
            np.searchsorted(self._energy_his, energies - 1e-12, side="left"),
            len(self.segments) - 1,
        )
        return indices, energies

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def value(self, energy: float) -> float:
        """Optimal metric value achievable with the given energy budget."""
        energy = self._clamped(energy)
        return float(self.segment_at(energy).value(energy))

    def derivative(self, energy: float) -> float:
        """First derivative of the value with respect to the energy budget."""
        energy = self._clamped(energy)
        return self.segment_at(energy).derivative_at(energy)

    def second_derivative(self, energy: float) -> float:
        """Second derivative of the value with respect to the energy budget."""
        energy = self._clamped(energy)
        return self.segment_at(energy).second_derivative_at(energy)

    def _sample_grouped(
        self,
        energies: Sequence[float],
        array_fn: Callable[[CurveSegment], Callable[[np.ndarray], np.ndarray] | None],
        scalar_fn: Callable[[CurveSegment, float], float],
    ) -> np.ndarray:
        """Shared sampling core: locate all segments with one searchsorted,
        then evaluate each involved segment once on its sub-array (falling
        back to per-point scalar calls when no array evaluator is available).
        """
        energies = np.asarray(energies, dtype=float)
        indices, energies = self._segment_indices(energies)
        out = np.empty(energies.shape)
        for idx in np.unique(indices):
            seg = self.segments[int(idx)]
            mask = indices == idx
            vectorised = array_fn(seg)
            if vectorised is not None:
                out[mask] = vectorised(energies[mask])
            else:
                out[mask] = [scalar_fn(seg, float(e)) for e in energies[mask]]
        return out

    def sample(self, energies: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`value` over an array of budgets."""
        return self._sample_grouped(
            energies,
            lambda seg: seg.value_array,
            lambda seg, e: float(seg.value(e)),
        )

    def sample_derivative(self, energies: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`derivative`."""
        return self._sample_grouped(
            energies,
            lambda seg: seg.derivative if seg.array_safe and seg.derivative else None,
            lambda seg, e: seg.derivative_at(e),
        )

    def sample_second_derivative(self, energies: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`second_derivative`."""
        return self._sample_grouped(
            energies,
            lambda seg: (
                seg.second_derivative
                if seg.array_safe and seg.second_derivative
                else None
            ),
            lambda seg, e: seg.second_derivative_at(e),
        )

    def energy_grid(self, n: int = 200, max_energy: float | None = None) -> np.ndarray:
        """A convenient energy grid spanning the curve for plotting/sampling.

        When the curve extends to infinite energy, ``max_energy`` must be
        supplied (or defaults to three times the largest breakpoint, or three
        times the minimum energy when there are no breakpoints).
        """
        lo = self.min_energy
        hi = self.max_energy
        if not math.isfinite(hi):
            if max_energy is not None:
                hi = float(max_energy)
            elif self.breakpoints:
                hi = 3.0 * max(self.breakpoints)
            else:
                hi = 3.0 * max(lo, 1.0)
        if max_energy is not None:
            hi = float(max_energy)
        if hi <= lo:
            raise BudgetError("energy grid upper bound must exceed the curve's minimum energy")
        # the value may be undefined at a zero lower endpoint (makespan diverges
        # as the budget vanishes), so start the grid a hair inside the range
        start = lo * (1 + 1e-9) if lo > 0.0 else hi * 1e-6
        return np.linspace(start, hi, int(n))

    # ------------------------------------------------------------------
    # inversion (the server problem)
    # ------------------------------------------------------------------
    def energy_for_value(self, target: float) -> float:
        """Minimum energy whose optimal value is at most ``target``.

        This is the *server problem*: fix the schedule quality, minimise
        energy.  Raises :class:`InfeasibleError` when the target is below the
        best value achievable anywhere on the curve.
        """
        # value is non-increasing in energy: scan segments from cheap to
        # expensive and find the first that can reach the target.
        for seg in self.segments:
            hi = seg.energy_hi
            if math.isfinite(hi):
                v_hi = seg.value(hi)
            else:
                # open-ended final segment: probe a large budget to test
                # achievability, then bracket adaptively below.
                hi = max(seg.energy_lo * 2.0, seg.energy_lo + 1.0)
                v_hi = seg.value(hi)
                while v_hi > target and hi < 1e30:
                    hi *= 2.0
                    v_hi = seg.value(hi)
            if v_hi > target + 1e-12:
                continue
            lo = seg.energy_lo
            try:
                v_lo = seg.value(lo)
            except BudgetError:
                # The value may be undefined at the segment's lower endpoint
                # (e.g. the single-block makespan segment diverges as the
                # budget approaches the fixed-block energy); treat it as +inf
                # and bracket away from the endpoint below.
                v_lo = math.inf
            if v_lo <= target + 1e-12:
                return float(lo)
            if v_hi >= target:
                # v_hi passed the acceptance screen above only by the 1e-12
                # tolerance, so the true crossing sits (numerically) at the
                # segment's upper edge; brentq would see the same sign at
                # both ends and raise.
                return float(hi)
            if not math.isfinite(v_lo):
                # March the bracket's lower end inward until the value is
                # defined and still above the target.  A fixed relative nudge
                # is not enough: on segments spanning many orders of magnitude
                # the first probe can overshoot the crossing (its value already
                # below the target), so shrink the bracket and retry whenever
                # that happens.
                nudge = (hi - lo) * 1e-12
                for _ in range(200):
                    probe = lo + nudge
                    try:
                        v_probe = seg.value(probe)
                    except BudgetError:
                        nudge *= 2.0
                        continue
                    if v_probe > target:
                        lo = probe
                        break
                    # the probe already achieves the target: the crossing lies
                    # between the endpoint and the probe
                    hi = probe
                    nudge *= 1e-6
                else:  # pragma: no cover - defensive
                    raise InfeasibleError(
                        f"could not bracket the minimum energy for "
                        f"{self.metric_name} = {target:g}"
                    )
            return brentq(lambda e: seg.value(e) - target, lo, hi, xtol=1e-12, rtol=1e-12)
        raise InfeasibleError(
            f"target {self.metric_name} = {target:g} is not achievable with any "
            f"energy budget up to {self.max_energy:g}"
        )

    # ------------------------------------------------------------------
    # structure checks
    # ------------------------------------------------------------------
    def _check_monotone(self, n_probe: int = 7) -> None:
        last_value = math.inf
        for seg in self.segments:
            hi = seg.energy_hi if math.isfinite(seg.energy_hi) else seg.energy_lo * 2 + 1.0
            grid = np.linspace(seg.energy_lo, hi, n_probe)
            grid[0] = seg.energy_lo + (hi - seg.energy_lo) * 1e-9
            values = [seg.value(float(e)) for e in grid]
            for v in values:
                if v > last_value + 1e-6 * max(1.0, abs(last_value)):
                    raise InvalidInstanceError(
                        "trade-off curve is not non-increasing in energy; "
                        "this would mean a dominated schedule was included"
                    )
                last_value = v

    def is_convex(self, n_probe: int = 64, tol: float = 1e-6) -> bool:
        """Whether the sampled curve is convex in energy (true for makespan frontiers)."""
        grid = self.energy_grid(n_probe)
        values = self.sample(grid)
        second_diff = np.diff(values, 2)
        scale = max(1.0, float(np.max(np.abs(values))))
        return bool(np.all(second_diff >= -tol * scale))

    def dominates_point(self, energy: float, value: float) -> bool:
        """Whether some schedule on the curve is at least as good in both criteria."""
        if energy < self.min_energy:
            return False
        probe = min(energy, self.max_energy)
        return self.value(probe) <= value + 1e-9

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TradeoffCurve(metric={self.metric_name!r}, n_segments={len(self.segments)}, "
            f"energy=[{self.min_energy:g}, {self.max_energy:g}])"
        )
