"""Power/speed models.

The paper assumes power is a *continuous, strictly convex* function of speed;
the most common concrete choice (and the one required by the closed-form
results, Theorem 8 and Figures 1-3) is ``power = speed ** alpha`` with
``alpha > 1`` (Yao, Demers, Shenker).  This module provides:

* :class:`PowerFunction` -- the abstract interface used by every algorithm.
  Only a handful of primitives are needed:

  - ``power(speed)``: instantaneous power draw,
  - ``energy_per_work(speed)``: energy needed per unit of work when running
    at that constant speed, i.e. ``power(speed) / speed`` (this is the
    function the paper's arguments always reason about, since running ``w``
    work at speed ``sigma`` takes time ``w / sigma``),
  - ``speed_for_energy_per_work(e)``: the inverse of the above, used by
    IncMerge to turn a leftover energy budget into the final block's speed.

* :class:`PolynomialPower` -- ``power = speed ** alpha`` with closed forms.
* :class:`AffinePolynomialPower` -- ``power = static + c * speed ** alpha``,
  a simple "leakage + dynamic power" model often used as a more realistic
  variant (still strictly convex in the dynamic part); useful to exercise the
  general-convex code paths of the algorithms that do not need closed forms.
* :class:`TabulatedConvexPower` -- a strictly convex power function defined by
  an arbitrary callable, with numeric inversion.  This is how the wireless
  transmission power functions of Uysal-Biyikoglu et al. (related work) can
  be plugged in.

All classes are immutable and cheap to copy around.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exceptions import BudgetError, UnsupportedPowerFunctionError
from .roots import brentq

__all__ = [
    "PowerFunction",
    "PolynomialPower",
    "AffinePolynomialPower",
    "TabulatedConvexPower",
    "CUBE",
    "SQUARE",
]


class PowerFunction(ABC):
    """Abstract strictly convex power function ``P(speed)``.

    Subclasses must guarantee that ``P`` is continuous and strictly convex on
    ``speed >= 0`` with ``P(0) = 0`` *or* ``P(0) >= 0`` with
    ``energy_per_work`` strictly increasing -- that is all the paper's
    exchange arguments need.
    """

    # -- primitives ----------------------------------------------------
    @abstractmethod
    def power(self, speed: float) -> float:
        """Instantaneous power drawn when running at ``speed >= 0``."""

    @abstractmethod
    def energy_per_work(self, speed: float) -> float:
        """Energy consumed per unit of work at constant ``speed > 0``.

        Equals ``power(speed) / speed``; must be strictly increasing in
        ``speed`` (this is equivalent to strict convexity of ``P`` through the
        origin and is what makes "slower is cheaper per unit work" true).
        """

    @abstractmethod
    def speed_for_energy_per_work(self, energy_per_work: float) -> float:
        """Inverse of :meth:`energy_per_work`.

        Given a per-unit-of-work energy allowance, return the constant speed
        that exactly spends it.  Raises :class:`BudgetError` for non-positive
        allowances.
        """

    # -- derived helpers ------------------------------------------------
    def energy(self, work: float, speed: float) -> float:
        """Energy to run ``work`` units at constant ``speed``."""
        if work < 0.0:
            raise BudgetError(f"work must be >= 0, got {work}")
        if work == 0.0:
            return 0.0
        if speed <= 0.0:
            raise BudgetError(f"speed must be > 0 to run positive work, got {speed}")
        return work * self.energy_per_work(speed)

    def energy_for_duration(self, work: float, duration: float) -> float:
        """Energy to run ``work`` units spread evenly over ``duration`` time."""
        if work < 0.0:
            raise BudgetError(f"work must be >= 0, got {work}")
        if work == 0.0:
            return 0.0
        if duration <= 0.0:
            raise BudgetError(f"duration must be > 0, got {duration}")
        return self.energy(work, work / duration)

    def speed_for_energy(self, work: float, energy: float) -> float:
        """Constant speed at which ``work`` units consume exactly ``energy``."""
        if work <= 0.0:
            raise BudgetError(f"work must be > 0, got {work}")
        if energy <= 0.0:
            raise BudgetError(f"energy must be > 0, got {energy}")
        return self.speed_for_energy_per_work(energy / work)

    def denergy_dduration(self, work: float, duration: float) -> float:
        """Derivative of :meth:`energy_for_duration` with respect to the duration."""
        if work <= 0.0:
            raise BudgetError(f"work must be > 0, got {work}")
        if duration <= 0.0:
            raise BudgetError(f"duration must be > 0, got {duration}")
        return -self.marginal_energy(work / duration)

    def duration_for_energy(self, work: float, energy: float) -> float:
        """Duration taken by ``work`` units when given exactly ``energy``."""
        return work / self.speed_for_energy(work, energy)

    def marginal_energy(self, speed: float) -> float:
        """``h(s) = s * P'(s) - P(s)``: the energy a job running at ``speed``
        saves per unit of time it is lengthened by.

        Zero at the critical speed and increasing above it.  Theorem 1's
        speed relations are statements about ``h`` (``(alpha - 1) * s**alpha``
        for ``P = s**alpha``), which is how the exact flow solvers handle any
        power function.  The default differentiates :meth:`power` by a
        fourth-order central difference.
        """
        step = 1e-3 * speed
        p = self.power
        slope = (
            8.0 * (p(speed + step) - p(speed - step))
            - (p(speed + 2.0 * step) - p(speed - 2.0 * step))
        ) / (12.0 * step)
        return speed * slope - p(speed)

    def elasticity(self, speed: float) -> float:
        """``s * h'(s) / h(s)``: the elasticity of the marginal energy ``h``.

        A job whose marginal energy is scaled by a factor ``c`` changes its
        speed by the factor ``c ** (1 / elasticity)`` to first order; the exact
        flow solvers read the slope of energy and flow in ``log h`` off it
        (``alpha`` for ``P = s**alpha``).  The slope only steers a safeguarded
        Newton step, so the default, a central difference of
        :meth:`marginal_energy`, is accurate enough.
        """
        step = 1e-3 * speed
        h = self.marginal_energy
        at = h(speed)
        slope = (h(speed + step) - h(speed - step)) / (2.0 * step)
        return speed * slope / at if at != 0.0 else math.inf

    def speed_for_marginal_energy(self, marginal: float) -> float:
        """Inverse of :meth:`marginal_energy` on speeds above the critical speed.

        The default brackets the speed by doubling and halving, then runs
        Brent's method.
        """
        if marginal <= 0.0:
            raise BudgetError(f"marginal energy must be > 0, got {marginal}")

        def residual(speed: float) -> float:
            return self.marginal_energy(speed) - marginal

        lo = hi = 1.0
        while residual(hi) < 0.0:
            hi *= 2.0
            if hi > 1e150:
                raise BudgetError("marginal energy too large to invert")
        while residual(lo) > 0.0:
            lo /= 2.0
            if lo < 1e-150:
                raise BudgetError("marginal energy too small to invert")
        return brentq(residual, lo, hi, xtol=1e-300, rtol=1e-15)

    # -- introspection ---------------------------------------------------
    @property
    def is_polynomial(self) -> bool:
        """Whether this is exactly ``P(s) = s ** alpha`` (enables closed forms)."""
        return False

    @property
    def alpha(self) -> float:
        """Exponent for polynomial power functions.

        Raises :class:`UnsupportedPowerFunctionError` for non-polynomial
        models; callers that need ``alpha`` should check :attr:`is_polynomial`
        first.
        """
        raise UnsupportedPowerFunctionError(
            f"{type(self).__name__} does not expose a polynomial exponent"
        )


@dataclass(frozen=True)
class PolynomialPower(PowerFunction):
    """``power = speed ** alpha`` with ``alpha > 1`` (the standard DVFS model).

    Closed forms used throughout the package:

    * energy per unit work at speed ``s`` is ``s ** (alpha - 1)``,
    * the speed that spends ``e`` energy per unit work is ``e ** (1/(alpha-1))``.
    """

    exponent: float = 3.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.exponent) or self.exponent <= 1.0:
            raise UnsupportedPowerFunctionError(
                f"PolynomialPower requires alpha > 1, got {self.exponent!r}"
            )

    def power(self, speed: float) -> float:
        if speed < 0.0:
            raise BudgetError(f"speed must be >= 0, got {speed}")
        return float(speed) ** self.exponent

    def energy_per_work(self, speed: float) -> float:
        if speed <= 0.0:
            raise BudgetError(f"speed must be > 0, got {speed}")
        return float(speed) ** (self.exponent - 1.0)

    def speed_for_energy_per_work(self, energy_per_work: float) -> float:
        if energy_per_work <= 0.0:
            raise BudgetError(
                f"energy per unit work must be > 0, got {energy_per_work}"
            )
        return float(energy_per_work) ** (1.0 / (self.exponent - 1.0))

    def marginal_energy(self, speed: float) -> float:
        return (self.exponent - 1.0) * float(speed) ** self.exponent

    def speed_for_marginal_energy(self, marginal: float) -> float:
        if marginal <= 0.0:
            raise BudgetError(f"marginal energy must be > 0, got {marginal}")
        return (float(marginal) / (self.exponent - 1.0)) ** (1.0 / self.exponent)

    def elasticity(self, speed: float) -> float:
        return self.exponent

    @property
    def is_polynomial(self) -> bool:
        return True

    @property
    def alpha(self) -> float:
        return self.exponent

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolynomialPower(alpha={self.exponent:g})"


@dataclass(frozen=True)
class AffinePolynomialPower(PowerFunction):
    """``power = static + coefficient * speed ** alpha``.

    ``static`` models leakage power burned whenever the processor is on.  The
    energy *per unit work* is ``static / s + coefficient * s ** (alpha - 1)``
    which is not monotone near zero when ``static > 0``; the paper's
    exchange arguments require monotonicity, so this class restricts speeds to
    be at or above the "critical speed" where energy-per-work is minimised.
    This is the standard treatment of leakage in the speed-scaling literature
    and keeps the class usable as a drop-in strictly-convex power function for
    the general algorithms.
    """

    exponent: float = 3.0
    coefficient: float = 1.0
    static: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.exponent) or self.exponent <= 1.0:
            raise UnsupportedPowerFunctionError(
                f"AffinePolynomialPower requires alpha > 1, got {self.exponent!r}"
            )
        if self.coefficient <= 0.0 or not math.isfinite(self.coefficient):
            raise UnsupportedPowerFunctionError(
                f"coefficient must be > 0, got {self.coefficient!r}"
            )
        if self.static < 0.0 or not math.isfinite(self.static):
            raise UnsupportedPowerFunctionError(
                f"static power must be >= 0, got {self.static!r}"
            )

    @property
    def critical_speed(self) -> float:
        """Speed minimising energy per unit work (0 when there is no leakage)."""
        if self.static == 0.0:
            return 0.0
        # d/ds [static/s + c*s^(a-1)] = -static/s^2 + c*(a-1)*s^(a-2) = 0
        return (self.static / (self.coefficient * (self.exponent - 1.0))) ** (
            1.0 / self.exponent
        )

    def power(self, speed: float) -> float:
        if speed < 0.0:
            raise BudgetError(f"speed must be >= 0, got {speed}")
        if speed == 0.0:
            return 0.0
        return self.static + self.coefficient * float(speed) ** self.exponent

    def energy_per_work(self, speed: float) -> float:
        if speed <= 0.0:
            raise BudgetError(f"speed must be > 0, got {speed}")
        lo = self.critical_speed
        if lo > 0.0 and speed < lo - 1e-15:
            raise BudgetError(
                f"speed {speed:g} is below the critical speed {lo:g}; "
                "energy per work is not monotone below it"
            )
        return self.static / speed + self.coefficient * float(speed) ** (
            self.exponent - 1.0
        )

    def speed_for_energy_per_work(self, energy_per_work: float) -> float:
        if energy_per_work <= 0.0:
            raise BudgetError(
                f"energy per unit work must be > 0, got {energy_per_work}"
            )
        lo = max(self.critical_speed, 1e-300)
        minimum = self.energy_per_work(max(lo, 1e-12)) if self.static else 0.0
        if self.static and energy_per_work < minimum - 1e-12:
            raise BudgetError(
                f"energy per unit work {energy_per_work:g} is below the minimum "
                f"achievable {minimum:g} for this leakage model"
            )

        def residual(speed: float) -> float:
            return self.energy_per_work(speed) - energy_per_work

        hi = max(lo, 1.0)
        while residual(hi) < 0.0:
            hi *= 2.0
            if hi > 1e150:  # pragma: no cover - defensive
                raise BudgetError("energy per unit work too large to invert")
        lo_bracket = max(lo, 1e-12)
        if residual(lo_bracket) > 0.0:
            return lo_bracket
        return brentq(residual, lo_bracket, hi, xtol=1e-14, rtol=1e-14)

    def marginal_energy(self, speed: float) -> float:
        # s * P'(s) - P(s) = c * (alpha - 1) * s**alpha - static
        return (
            self.coefficient * (self.exponent - 1.0) * float(speed) ** self.exponent
            - self.static
        )

    def speed_for_marginal_energy(self, marginal: float) -> float:
        if marginal <= 0.0:
            raise BudgetError(f"marginal energy must be > 0, got {marginal}")
        return (
            (float(marginal) + self.static) / (self.coefficient * (self.exponent - 1.0))
        ) ** (1.0 / self.exponent)

    def elasticity(self, speed: float) -> float:
        # h(s) = dynamic - static with dynamic = c (alpha - 1) s**alpha, whose
        # elasticity is alpha
        dynamic = self.coefficient * (self.exponent - 1.0) * float(speed) ** self.exponent
        marginal = dynamic - self.static
        return self.exponent * dynamic / marginal if marginal != 0.0 else math.inf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AffinePolynomialPower(alpha={self.exponent:g}, "
            f"coefficient={self.coefficient:g}, static={self.static:g})"
        )


class TabulatedConvexPower(PowerFunction):
    """A strictly convex power function given as an arbitrary callable.

    The callable must be strictly convex with ``P(0) = 0`` (so that energy per
    unit work is strictly increasing).  Inversion is performed numerically
    with bracketing + Brent's method; convexity is spot-checked on a small
    grid at construction time to catch obviously wrong inputs early.

    This is the hook for reproducing the related-work setting of
    Uysal-Biyikoglu, Prabhakar and El Gamal, whose wireless power functions
    are different from ``speed ** alpha`` but still strictly convex.
    """

    def __init__(
        self,
        func: Callable[[float], float],
        name: str = "tabulated",
        check_range: tuple[float, float] = (1e-3, 1e3),
    ) -> None:
        self._func = func
        self._name = str(name)
        lo, hi = check_range
        if not (0.0 < lo < hi):
            raise UnsupportedPowerFunctionError("check_range must satisfy 0 < lo < hi")
        grid = np.geomspace(lo, hi, 32)
        values = np.array([float(func(s)) for s in grid])
        if np.any(~np.isfinite(values)) or np.any(values < 0.0):
            raise UnsupportedPowerFunctionError(
                "power function must be finite and non-negative on the check range"
            )
        per_work = values / grid
        if np.any(np.diff(per_work) <= 0.0):
            raise UnsupportedPowerFunctionError(
                "power(speed)/speed must be strictly increasing (strict convexity "
                "through the origin); the supplied callable is not"
            )

    def power(self, speed: float) -> float:
        if speed < 0.0:
            raise BudgetError(f"speed must be >= 0, got {speed}")
        if speed == 0.0:
            return 0.0
        return float(self._func(float(speed)))

    def energy_per_work(self, speed: float) -> float:
        if speed <= 0.0:
            raise BudgetError(f"speed must be > 0, got {speed}")
        return self.power(speed) / float(speed)

    def speed_for_energy_per_work(self, energy_per_work: float) -> float:
        if energy_per_work <= 0.0:
            raise BudgetError(
                f"energy per unit work must be > 0, got {energy_per_work}"
            )

        def residual(speed: float) -> float:
            return self.energy_per_work(speed) - energy_per_work

        lo, hi = 1e-12, 1.0
        while residual(hi) < 0.0:
            hi *= 2.0
            if hi > 1e150:  # pragma: no cover - defensive
                raise BudgetError("energy per unit work too large to invert")
        while residual(lo) > 0.0:
            lo /= 2.0
            if lo < 1e-300:
                raise BudgetError("energy per unit work too small to invert")
        return brentq(residual, lo, hi, xtol=1e-14, rtol=1e-14)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TabulatedConvexPower(name={self._name!r})"


#: The cube-law power function used by the paper's figures and Theorem 8.
CUBE = PolynomialPower(3.0)

#: The square-law power function (``alpha = 2``), a common alternative.
SQUARE = PolynomialPower(2.0)
