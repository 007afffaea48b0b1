"""Arbitrarily-good (and where possible exact) equal-work flow scheduling.

This module extends the Pruhs-Uthaisombut-Woeginger approach exactly as the
paper uses it:

* :func:`equal_work_flow_laptop` -- minimise total flow for an energy budget.
  The isotonic sweep of :mod:`repro.flow.convex` finds the optimum to
  rounding, through a Newton iteration on the last job's marginal energy
  whose slope the sweep's levels give; when the optimal
  configuration contains no ``C_i = r_{i+1}`` boundary (Theorem 1's third
  relation does not occur), the solution is *refined to closed form*:
  Theorem 1 pins every speed to a multiple of the final job's speed, and the
  energy budget then determines that speed analytically.  When a tight
  boundary does occur, Theorem 8 says no closed form exists and the
  root-find's answer is returned (flagged via ``exact=False``).
* :func:`equal_work_flow_server` -- minimise energy for a flow target (the
  paper's "server problem"): the same sweep inverts the flow curve directly,
  and the closed form finishes tight-free configurations.
* :func:`flow_energy_frontier_samples` -- sample the flow/energy trade-off
  curve (the flow analogue of Figure 1, which the prior work plots with gaps
  at the tight configurations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.job import Instance
from ..core.power import PowerFunction
from ..core.schedule import Schedule
from ..exceptions import InvalidInstanceError
from .convex import ConvexFlowResult, convex_flow_laptop, convex_flow_server
from .structure import (
    Boundary,
    FlowConfiguration,
    classify_boundaries,
    closed_form_speeds,
    completion_times_for_speeds,
)

__all__ = ["FlowResult", "equal_work_flow_laptop", "equal_work_flow_server", "flow_energy_frontier_samples"]

#: Boundaries within this distance of the next release count as tight, so the
#: closed form is not claimed for them (``check_flow_structure`` uses the same).
_BOUNDARY_ATOL = 1e-5


@dataclass(frozen=True)
class FlowResult:
    """Optimal equal-work flow schedule for one energy budget.

    ``exact`` records whether the closed-form refinement applied (no tight
    boundary in the optimal configuration); when ``False`` the values come
    from the root-find on the last job's speed, exact to rounding.
    """

    flow: float
    energy: float
    speeds: np.ndarray
    completion_times: np.ndarray
    configuration: FlowConfiguration
    exact: bool

    def schedule(self, instance: Instance, power: PowerFunction) -> Schedule:
        return Schedule.from_speeds(instance, power, self.speeds)


def equal_work_flow_laptop(
    instance: Instance,
    power: PowerFunction,
    energy_budget: float,
    boundary_atol: float = _BOUNDARY_ATOL,
) -> FlowResult:
    """Minimise total flow of equal-work jobs on one processor for a budget.

    Parameters
    ----------
    boundary_atol:
        Tolerance used to decide whether the solution has a tight boundary
        (``C_i == r_{i+1}``).  Boundaries closer than this are treated as
        tight and the closed-form refinement is skipped.
    """
    if not instance.is_equal_work():
        raise InvalidInstanceError(
            "equal_work_flow_laptop requires an equal-work instance; "
            "use repro.flow.convex for fixed-order unequal-work scheduling"
        )
    swept = convex_flow_laptop(instance, power, energy_budget)
    return _finish(instance, power, swept, energy_budget, boundary_atol)


def _finish(
    instance: Instance,
    power: PowerFunction,
    swept: ConvexFlowResult,
    energy_budget: float,
    boundary_atol: float,
) -> FlowResult:
    """The closed form for ``energy_budget`` where it applies, else ``swept``."""
    config = classify_boundaries(instance, swept.speeds, atol=boundary_atol)
    refined = None
    if not config.has_tight_boundary and power.is_polynomial:
        refined = _refine_closed_form(instance, power, config, energy_budget)
    if refined is None:
        return FlowResult(
            flow=swept.flow,
            energy=swept.energy,
            speeds=swept.speeds,
            completion_times=swept.completion_times,
            configuration=config,
            exact=False,
        )
    speeds, completions, flow = refined
    return FlowResult(
        flow=flow,
        energy=float(energy_budget),
        speeds=speeds,
        completion_times=completions,
        configuration=config,
        exact=True,
    )


def _refine_closed_form(
    instance: Instance,
    power: PowerFunction,
    config: FlowConfiguration,
    energy_budget: float,
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Closed-form speeds for a tight-free configuration, or ``None`` if inconsistent.

    With ``power = speed**alpha`` and per-job work ``w``, Theorem 1 gives
    ``sigma_i = sigma_n * k_i**(1/alpha)`` where ``k_i`` counts the jobs from
    ``i`` to the end of its dense group.  The energy budget then fixes

        E = sum_i w * sigma_i**(alpha-1)
          = w * sigma_n**(alpha-1) * sum_i k_i**((alpha-1)/alpha)

    so ``sigma_n`` has a closed form.  The refinement is only kept when the
    resulting schedule reproduces the configuration it was derived from
    (otherwise the configuration read off the root-find's speeds was wrong
    near a transition and the caller keeps those speeds).
    """
    alpha = power.alpha
    work = float(instance.works[0])
    multipliers = closed_form_speeds(instance, power, config, sigma_n=1.0)
    weight = float(np.sum(multipliers ** (alpha - 1.0)))
    sigma_n = (energy_budget / (work * weight)) ** (1.0 / (alpha - 1.0))
    speeds = multipliers * sigma_n
    completions = completion_times_for_speeds(instance, speeds)
    recheck = classify_boundaries(instance, speeds, atol=1e-9)
    for observed, assumed in zip(recheck.boundaries, config.boundaries):
        if observed is not assumed and Boundary.TIGHT not in (observed, assumed):
            return None
    flow = float(np.sum(completions - instance.releases))
    return speeds, completions, flow


def equal_work_flow_server(
    instance: Instance,
    power: PowerFunction,
    flow_target: float,
) -> FlowResult:
    """Minimise energy such that the optimal total flow is at most ``flow_target``."""
    if not instance.is_equal_work():
        raise InvalidInstanceError("equal_work_flow_server requires an equal-work instance")
    swept = convex_flow_server(instance, power, flow_target)
    return _finish(instance, power, swept, swept.energy, _BOUNDARY_ATOL)


def flow_energy_frontier_samples(
    instance: Instance,
    power: PowerFunction,
    energies: np.ndarray | list[float],
) -> list[FlowResult]:
    """Evaluate the optimal flow at each energy budget (the flow trade-off curve)."""
    return [equal_work_flow_laptop(instance, power, float(e)) for e in energies]

