"""Registration hook: uniprocessor total-flow solvers for the unified API.

Imported lazily by :mod:`repro.api.registry` on first registry access.
"""

from __future__ import annotations

from ..api.types import ProblemSpec, SolveRequest, SolverCapabilities

__all__ = ["register_solvers"]


def _run_flow_laptop(request: SolveRequest) -> tuple:
    from .puw import equal_work_flow_laptop

    result = equal_work_flow_laptop(request.instance, request.power, request.budget)
    extras = {
        "completions": result.completion_times.tolist(),
        "exact_closed_form": bool(result.exact),
    }
    return result.flow, result.energy, result.speeds, extras


def _run_flow_server(request: SolveRequest) -> tuple:
    from .puw import equal_work_flow_server

    result = equal_work_flow_server(request.instance, request.power, request.budget)
    extras = {
        "flow": float(result.flow),
        "completions": result.completion_times.tolist(),
        "exact_closed_form": bool(result.exact),
    }
    return result.energy, result.energy, result.speeds, extras


def register_solvers(registry) -> None:
    """Register the equal-work flow solvers (laptop/server)."""
    registry.register(
        SolverCapabilities(
            name="flow",
            spec=ProblemSpec(objective="flow", mode="laptop"),
            summary="minimum total flow for an energy budget (equal-work jobs; "
                    "exact isotonic sweep on Theorem 1's levels)",
            budget_kind="energy",
            batchable=True,
            # not needs_polynomial_power: the sweep handles any power function
            # through its marginal energy; only the closed-form finish needs
            # power = speed**alpha
            needs_equal_work=True,
            certificates=("budget-tightness", "flow-structure"),
        ),
        _run_flow_laptop,
    )
    registry.register(
        SolverCapabilities(
            name="flow-server",
            spec=ProblemSpec(objective="flow", mode="server"),
            summary="minimum energy for a total-flow target (equal-work jobs; "
                    "exact isotonic sweep on Theorem 1's levels)",
            budget_kind="metric",
            batchable=True,
            needs_equal_work=True,
            certificates=("budget-tightness", "flow-structure"),
        ),
        _run_flow_server,
    )
