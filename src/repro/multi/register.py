"""Registration hook: multiprocessor equal-work solvers for the unified API.

Imported lazily by :mod:`repro.api.registry` on first registry access.
"""

from __future__ import annotations

from ..api.types import ProblemSpec, SolveRequest, SolverCapabilities

__all__ = ["register_solvers"]


def _assignment_extras(assignment: dict) -> dict:
    # JSON object keys must be strings; preserve the solver's processor order
    return {str(proc): list(jobs) for proc, jobs in assignment.items()}


def _run_multi_makespan(request: SolveRequest) -> tuple:
    from .makespan_equal import multiprocessor_makespan_equal_work

    result = multiprocessor_makespan_equal_work(
        request.instance, request.power, request.processors, request.budget
    )
    extras = {
        "assignment": _assignment_extras(result.assignment),
        "per_processor_energy": {
            str(proc): float(e) for proc, e in result.per_processor_energy.items()
        },
    }
    return result.makespan, result.energy, result.speeds, extras


def _assigned_result_extras(result) -> dict:
    return {
        "assignment": _assignment_extras(result.assignment),
        "per_processor_energy": {
            str(proc): float(e) for proc, e in result.per_processor_energy.items()
        },
    }


def _run_multi_makespan_exact(request: SolveRequest) -> tuple:
    from .exact import exact_zero_release_makespan

    result = exact_zero_release_makespan(
        request.instance, request.power, request.processors, request.budget
    )
    return result.makespan, result.energy, result.speeds, _assigned_result_extras(result)


def _run_multi_makespan_ptas(request: SolveRequest) -> tuple:
    """The PTAS epsilon schedule as a routable approximate variant.

    The reported ``epsilon`` is the *certified* relative error of this
    answer: zero when the exhaustive phase covered every job (the scheme is
    then exact), else the gap against the independently recomputable
    Schur-convexity lower bound.  When the certified gap overshoots the
    requested accuracy and the exhaustive phase still has headroom, one
    escalation re-runs with the phase maxed out.
    """
    from .ptas import (
        ptas_zero_release_makespan,
        zero_release_makespan_lower_bound,
    )

    instance, power = request.instance, request.power
    m, budget = request.processors, request.budget
    target = float(request.options.get(
        "epsilon", request.accuracy if request.accuracy is not None else 0.2
    ))
    max_exact = int(request.options.get("max_exact_jobs", 12))
    result = ptas_zero_release_makespan(
        instance, power, m, budget, epsilon=target, max_exact_jobs=max_exact
    )

    def certified_epsilon(res) -> float:
        if res.n_exact_jobs >= instance.n_jobs:
            return 0.0  # exhaustive phase covered every job: exact
        lb = zero_release_makespan_lower_bound(instance, power, m, budget)
        return max(0.0, res.makespan / lb - 1.0)

    epsilon = certified_epsilon(result)
    k_cap = min(instance.n_jobs, max_exact)
    if epsilon > target and result.n_exact_jobs < k_cap:
        escalated = ptas_zero_release_makespan(
            instance, power, m, budget,
            epsilon=m / k_cap, max_exact_jobs=max_exact,
        )
        if escalated.makespan <= result.makespan:
            result = escalated
            epsilon = certified_epsilon(result)
    assigned = result.as_assigned_result(instance, power, budget)
    extras = _assigned_result_extras(assigned)
    extras["n_exact_jobs"] = result.n_exact_jobs
    extras["approximation"] = {
        "epsilon": float(epsilon),
        "bound_kind": "ptas",
        "certificate": "error-bound",
    }
    return assigned.makespan, assigned.energy, assigned.speeds, extras


def _run_multi_flow(request: SolveRequest) -> tuple:
    from .flow_equal import multiprocessor_flow_equal_work

    result = multiprocessor_flow_equal_work(
        request.instance, request.power, request.processors, request.budget
    )
    extras = {
        "assignment": _assignment_extras(result.assignment),
        "completions": result.completion_times.tolist(),
    }
    return result.flow, result.energy, result.speeds, extras


def register_solvers(registry) -> None:
    """Register the multiprocessor equal-work solvers (makespan/flow)."""
    registry.register(
        SolverCapabilities(
            name="multi-makespan",
            spec=ProblemSpec(objective="makespan", mode="laptop", machine="multi"),
            summary="equal-work multiprocessor makespan for a shared energy budget "
                    "(cyclic assignment, Theorem 10)",
            budget_kind="energy",
            needs_equal_work=True,
            certificates=("budget-tightness", "cyclic-assignment"),
        ),
        _run_multi_makespan,
    )
    registry.register(
        SolverCapabilities(
            name="multi-makespan-exact",
            spec=ProblemSpec(objective="makespan", mode="laptop", machine="multi"),
            summary="exact zero-release multiprocessor makespan for general works "
                    "(exhaustive assignment search, Theorem 11 regime)",
            budget_kind="energy",
            needs_zero_release=True,
            certificates=("budget-tightness",),
            variant_of="multi-makespan",
        ),
        _run_multi_makespan_exact,
    )
    registry.register(
        SolverCapabilities(
            name="multi-makespan-ptas",
            spec=ProblemSpec(objective="makespan", mode="laptop", machine="multi"),
            summary="PTAS-style zero-release multiprocessor makespan: big jobs "
                    "exact, small jobs greedy, certified error bound",
            budget_kind="energy",
            needs_zero_release=True,
            certificates=("budget-tightness", "error-bound"),
            variant_of="multi-makespan",
            approximate=True,
            bound_kind="ptas",
            min_accuracy=0.05,
        ),
        _run_multi_makespan_ptas,
    )
    registry.register(
        SolverCapabilities(
            name="multi-flow",
            spec=ProblemSpec(objective="flow", mode="laptop", machine="multi"),
            summary="equal-work multiprocessor total flow for a shared energy budget "
                    "(cyclic assignment, Theorem 10; exact isotonic sweep on a "
                    "common last-job speed)",
            budget_kind="energy",
            needs_equal_work=True,
            certificates=("budget-tightness", "cyclic-assignment"),
        ),
        _run_multi_flow,
    )
