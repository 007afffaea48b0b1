"""Registration hook: deadline-feasibility solvers (YDS + online) for the API.

Imported lazily by :mod:`repro.api.registry` on first registry access.  In
the bicriteria template these are all ``server``-mode energy minimisers: the
metric side is the hard per-job deadlines, so there is no budget argument —
the solvers return the (approximately) minimum feasible energy.  YDS is the
offline optimum; AVR, OA and BKP are the online algorithms measured against
it by :func:`repro.online.compete.competitive_sweep` (their registration
order here fixes the sweep's default algorithm order).
"""

from __future__ import annotations

from ..api.types import ProblemSpec, SolveRequest, SolverCapabilities

__all__ = ["register_solvers"]


def _energy_result(schedule) -> tuple:
    energy = schedule.energy
    return energy, energy, schedule.speeds, {}


def _run_yds(request: SolveRequest) -> tuple:
    from .yds import yds_schedule

    return _energy_result(yds_schedule(request.instance, request.power))


def _run_yds_batch(requests: list[SolveRequest]) -> list[tuple]:
    """Batched YDS: one structure-of-arrays plan pass over the whole chunk.

    ``yds_speeds_batch`` computes every instance's optimal per-job speeds in
    shared padded arrays; each is then realised by ``edf_schedule_at_speeds``
    exactly as ``yds_schedule`` realises the per-instance plan, so the
    energies and speeds are bitwise those of the per-request path.
    """
    from .yds import edf_schedule_at_speeds, yds_speeds_batch

    planned = yds_speeds_batch([request.instance for request in requests])
    return [
        _energy_result(edf_schedule_at_speeds(
            request.instance, request.power, planned[b, : request.instance.n_jobs]
        ))
        for b, request in enumerate(requests)
    ]


def _run_avr_batch(requests: list[SolveRequest]) -> list[tuple]:
    """Batched AVR: one event-grid sweep builds every chunk member's profile."""
    from .avr import avr_speed_profiles_batch
    from .executor import execute_profile_edf

    profiles = avr_speed_profiles_batch([request.instance for request in requests])
    return [
        _energy_result(execute_profile_edf(request.instance, request.power, profile))
        for request, profile in zip(requests, profiles)
    ]


def _run_yds_anytime(request: SolveRequest) -> tuple:
    """Anytime YDS: certified AVR cut, exact escalation when the gap is big.

    The reported ``epsilon`` is the realized gap of the returned schedule's
    energy against the Jensen window lower bound (zero for the escalated
    exact path); the ``error-bound`` checker recomputes the bound.
    """
    from .anytime import anytime_min_energy

    target = float(request.options.get(
        "epsilon", request.accuracy if request.accuracy is not None else 0.1
    ))
    schedule, epsilon, kind = anytime_min_energy(
        request.instance, request.power, target
    )
    energy = schedule.energy
    extras = {
        "approximation": {
            "epsilon": float(epsilon),
            "bound_kind": kind,
            "certificate": "error-bound",
        },
    }
    return energy, energy, schedule.speeds, extras


def _run_avr(request: SolveRequest) -> tuple:
    from .avr import avr_schedule

    return _energy_result(avr_schedule(request.instance, request.power))


def _run_oa(request: SolveRequest) -> tuple:
    from .oa import oa_schedule_incremental

    return _energy_result(oa_schedule_incremental(request.instance, request.power))


def _run_bkp(request: SolveRequest) -> tuple:
    from .bkp import bkp_schedule

    return _energy_result(bkp_schedule(request.instance, request.power))


def register_solvers(registry) -> None:
    """Register the deadline-feasibility solvers (YDS, AVR, OA, BKP)."""

    def caps(
        name: str, summary: str, online: bool, batch_kernel: bool = False
    ) -> SolverCapabilities:
        return SolverCapabilities(
            name=name,
            spec=ProblemSpec(objective="energy", mode="server", online=online),
            summary=summary,
            budget_kind="none",
            batchable=True,
            batch_kernel=batch_kernel,
            needs_deadlines=True,
            certificates=("competitive-ratio",) if online else ("yds-density",),
        )

    registry.register(
        caps(
            "yds",
            "offline-optimal deadline-feasible energy (YDS)",
            online=False,
            batch_kernel=True,
        ),
        _run_yds,
        batch_fn=_run_yds_batch,
    )
    registry.register(
        SolverCapabilities(
            name="yds-anytime",
            spec=ProblemSpec(objective="energy", mode="server", online=False),
            summary="anytime deadline-feasible energy: certified AVR cut, "
                    "exact YDS escalation",
            budget_kind="none",
            needs_deadlines=True,
            certificates=("error-bound",),
            variant_of="yds",
            approximate=True,
            bound_kind="jensen-gap",
        ),
        _run_yds_anytime,
    )
    registry.register(
        caps(
            "avr",
            "Average Rate online heuristic (deadline-feasible)",
            online=True,
            batch_kernel=True,
        ),
        _run_avr,
        batch_fn=_run_avr_batch,
    )
    registry.register(
        caps("oa", "Optimal Available online algorithm (incremental engine)", online=True),
        _run_oa,
    )
    registry.register(
        caps("bkp", "Bansal-Kimbrel-Pruhs online algorithm (discretised)", online=True),
        _run_bkp,
    )
