"""Frontier inversion: the server problem solved through the laptop frontier.

Before the time-reversed hull (:mod:`repro.makespan.server`), the makespan
server problem was answered by building the whole non-dominated frontier
(:func:`repro.makespan.frontier.makespan_frontier`) and inverting it: scan
the segments from cheap to expensive for the first one that reaches the
target, then bracket and root-find the crossing inside it.  That inversion
shares no code with the hull, so it stays here as an oracle
(``tests/test_server.py``, ``tests/test_pareto.py``).

Import it as ``from oracles.frontier import ...`` (``tests/`` is on
``sys.path`` under pytest).
"""

from __future__ import annotations

import math

from repro.core.job import Instance
from repro.core.pareto import TradeoffCurve
from repro.core.power import PowerFunction
from repro.core.roots import brentq
from repro.exceptions import BudgetError, InfeasibleError
from repro.makespan.frontier import makespan_frontier

__all__ = ["energy_for_value", "frontier_server_energy"]


def energy_for_value(curve: TradeoffCurve, target: float) -> float:
    """Minimum energy whose optimal value on ``curve`` is at most ``target``.

    Raises :class:`InfeasibleError` when the target is below the best value
    achievable anywhere on the curve.
    """
    # value is non-increasing in energy: scan segments from cheap to
    # expensive and find the first that can reach the target.
    for seg in curve.segments:
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
            else:
                raise InfeasibleError(
                    f"could not bracket the minimum energy for "
                    f"{curve.metric_name} = {target:g}"
                )
        return brentq(lambda e: seg.value(e) - target, lo, hi, xtol=1e-12, rtol=1e-12)
    raise InfeasibleError(
        f"target {curve.metric_name} = {target:g} is not achievable with any "
        f"energy budget up to {curve.max_energy:g}"
    )


def frontier_server_energy(
    instance: Instance, power: PowerFunction, makespan_target: float
) -> float:
    """Minimum energy to finish by ``makespan_target``, by inverting the frontier."""
    return energy_for_value(makespan_frontier(instance, power), float(makespan_target))
