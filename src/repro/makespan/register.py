"""Registration hook: uniprocessor makespan solvers for the unified API.

Imported lazily by :mod:`repro.api.registry` on first registry access; the
solver bodies import their implementations lazily too, so registering the
matrix stays cheap.
"""

from __future__ import annotations

import numpy as np

from ..api.types import ProblemSpec, SolveRequest, SolverCapabilities

__all__ = ["register_solvers"]


def _run_laptop(request: SolveRequest) -> tuple:
    from .incmerge import incmerge

    result = incmerge(request.instance, request.power, request.budget)
    extras = {
        "blocks": [
            {
                "first": b.first,
                "last": b.last,
                "start": b.start_time,
                "end": b.end_time,
                "speed": b.speed,
            }
            for b in result.blocks
        ],
    }
    return result.makespan, result.energy, result.speeds, extras


def _run_server(request: SolveRequest) -> tuple:
    from ..core.kernels import energy_eval
    from .server import server_speeds

    instance = request.instance
    speeds = server_speeds(instance, request.budget)
    energy = float(np.sum(energy_eval(request.power, instance.works, speeds)))
    extras = {"makespan_target": float(request.budget)}
    return energy, energy, speeds, extras


def _run_frontier(request: SolveRequest) -> tuple:
    from .frontier import makespan_frontier

    curve = makespan_frontier(request.instance, request.power)
    extras: dict = {"breakpoints": [float(b) for b in curve.breakpoints]}
    options = request.options
    if "min_energy" in options and "max_energy" in options:
        grid = np.linspace(
            float(options["min_energy"]),
            float(options["max_energy"]),
            int(options.get("points", 25)),
        )
        extras["samples"] = [
            {"energy": float(e), "makespan": curve.value(float(e))} for e in grid
        ]
    return None, None, None, extras


def _run_frontier_coarse(request: SolveRequest) -> tuple:
    """Coarse frontier sampling with a certified interpolation error bound.

    Samples the curve by direct IncMerge solves on an energy grid and refines
    the grid until the secant-envelope bound meets the requested accuracy
    (``request.accuracy``, or ``options["epsilon"]``, default 0.05).  The
    reported ``epsilon`` is the realized certified bound, recomputable from
    the samples alone.
    """
    from .frontier import coarse_frontier

    options = request.options
    instance, power = request.instance, request.power
    if "min_energy" in options and "max_energy" in options:
        lo = float(options["min_energy"])
        hi = float(options["max_energy"])
    else:
        # anchor the default window at the energy of running everything at
        # unit speed so it scales with the instance
        unit = power.energy(instance.total_work, 1.0)
        lo, hi = 0.5 * unit, 4.0 * unit
    target = float(options.get(
        "epsilon", request.accuracy if request.accuracy is not None else 0.05
    ))
    samples, epsilon = coarse_frontier(
        instance,
        power,
        lo,
        hi,
        target,
        initial_points=int(options.get("points", 9)),
        max_points=int(options.get("max_points", 4096)),
    )
    extras = {
        "samples": [{"energy": e, "makespan": v} for e, v in samples],
        "points": len(samples),
        "approximation": {
            "epsilon": float(epsilon),
            "bound_kind": "frontier-envelope",
            "certificate": "error-bound",
        },
    }
    return None, None, None, extras


def register_solvers(registry) -> None:
    """Register the uniprocessor makespan solvers (laptop/server/frontier)."""
    registry.register(
        SolverCapabilities(
            name="laptop",
            spec=ProblemSpec(objective="makespan", mode="laptop"),
            summary="minimum makespan for an energy budget (IncMerge)",
            budget_kind="energy",
            batchable=True,
            certificates=("budget-tightness", "optimal-structure"),
        ),
        _run_laptop,
    )
    registry.register(
        SolverCapabilities(
            name="server",
            spec=ProblemSpec(objective="makespan", mode="server"),
            summary="minimum energy for a makespan target (time-reversed YDS hull)",
            budget_kind="metric",
            batchable=True,
            certificates=("budget-tightness", "optimal-structure"),
        ),
        _run_server,
    )
    registry.register(
        SolverCapabilities(
            name="frontier",
            spec=ProblemSpec(objective="makespan", mode="frontier"),
            summary="sample the non-dominated energy/makespan trade-off curve",
            budget_kind="none",
            # not needs_polynomial_power: the frontier keeps a numeric path
            # for non-polynomial convex power functions
            certificates=("frontier-shape",),
        ),
        _run_frontier,
    )
    registry.register(
        SolverCapabilities(
            name="frontier-coarse",
            spec=ProblemSpec(objective="makespan", mode="frontier"),
            summary="coarsely sampled trade-off curve with a certified "
                    "interpolation error bound (secant envelope)",
            budget_kind="none",
            certificates=("error-bound",),
            variant_of="frontier",
            approximate=True,
            bound_kind="frontier-envelope",
            min_accuracy=0.001,
        ),
        _run_frontier_coarse,
    )
