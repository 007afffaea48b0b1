"""Brent's method for a bracketed scalar root, step for step as scipy takes it.

:func:`brentq` ports scipy's ``brentq.c`` (C. Harris's formulation of
Brent, *Algorithms for Minimization without Derivatives*, 1973): the same
bracket swap, the same choice between inverse quadratic extrapolation,
secant interpolation and bisection, the same ``delta = (xtol + rtol*|x|)/2``
stopping rule and the same ``±delta`` nudge when a step is shorter than
``delta``.  Every operation is an IEEE double operation in the order the C
code performs it, so for equal inputs the returned root is bitwise
``scipy.optimize.brentq``'s.  Keeping the iteration in the library lets the
runtime depend on numpy alone.

The error contract is scipy's too: :class:`ValueError` when ``f(a)`` and
``f(b)`` have the same sign or ``f`` returns NaN, :class:`RuntimeError` when
100 iterations do not converge.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["brentq"]

#: scipy's lower limit (and default) for ``rtol``: four machine epsilons.
_RTOL = 4.0 * sys.float_info.epsilon

#: scipy's fixed iteration cap.
_MAX_ITER = 100


def brentq(
    f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float = _RTOL
) -> float:
    """Return a root of ``f`` in the bracket ``[a, b]`` (either orientation).

    ``f(a)`` and ``f(b)`` must differ in sign.  The root ``x0`` satisfies
    ``|x - x0| <= xtol + rtol*|x0|`` for the exact root ``x``; ``xtol`` must
    be positive and ``rtol`` at least ``4*eps``.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAX_ITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's step is infinite or NaN here; either fails the test below
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(
        f"Failed to converge after {_MAX_ITER} iterations, value is {xcur:f}."
    )
