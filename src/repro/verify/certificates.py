"""Semantic optimality certificates, keyed by the kinds solvers declare.

Each registered solver lists the certificate kinds that apply to it in
``SolverCapabilities.certificates``; :func:`repro.verify.verify` runs the
matching checker from :data:`CHECKERS` after the structural checks.  The
kinds mirror the paper's own optimality witnesses:

* ``budget-tightness``   -- optimal laptop-mode solutions exhaust the energy
  budget exactly; server-mode solutions hit the metric target exactly (the
  KKT stationarity of the bicriteria template).
* ``optimal-structure``  -- Lemmas 2-6 on the uniprocessor makespan schedule
  (single speed per job, release order, no idle, uniform non-decreasing
  block speeds), via :mod:`repro.verify.structure`.
* ``yds-density``        -- the YDS witness: the offline optimum's peak speed
  equals the maximum density over all release/deadline windows, and its
  energy is ``OPT``.  Feasible speeds are the YDS optimum iff, for every
  distinct speed ``v``, the processing time of the jobs with ``s_j >= v``
  fills the union of their windows (the KKT conditions of Bansal, Kimbrel
  and Pruhs); those level sets give a lower bound on ``OPT`` that meets the
  speeds' own energy exactly then, so a passing answer needs no re-solve.
  Otherwise the maximum-density window and a YDS re-solve decide.
* ``competitive-ratio``  -- the online guarantee: reported energy lies in
  ``[OPT, bound(alpha) * OPT]`` where ``bound`` is the algorithm's
  theoretical ratio (alpha^alpha for OA, ...).  Both sides are settled
  without ``OPT`` when the energy of the answer's speeds scaled to
  feasibility (``>= OPT``) and ``bound`` times the Jensen window bound
  (``<= OPT``) enclose the reported energy; otherwise against a YDS
  re-solve.
* ``frontier-shape``     -- the non-dominated trade-off curve is sorted,
  monotone non-increasing and convex in the energy budget (Figures 1-3).
* ``flow-structure``     -- Theorem 1's boundary relations on equal-work flow
  schedules, plus the closed-form speed profile when the solver claimed the
  exact refinement applied.
* ``cyclic-assignment``  -- Theorem 10: the multiprocessor assignment is a
  partition and distributes jobs cyclically in release order.
* ``error-bound``        -- approximate solvers stamp a *certified* realized
  ``epsilon`` into ``result.approximation``; the checker recomputes the
  underlying lower bound (Schur-convexity load relaxation for the PTAS,
  secant-envelope geometry for coarse frontier samples, the Jensen window
  bound for anytime YDS cuts, the ``yds-density`` level-set test — with a
  YDS re-solve when it cannot decide — for escalated exact answers) and
  confirms the answer really is within ``(1 + epsilon)`` of it — and within
  the accuracy the request asked for.

A certificate that settles a check without recomputation passes only with
margin (half the check's tolerance); anything else runs the recomputation,
which also writes the findings, so reports do not depend on which path ran.

Checkers degrade to ``warning``-severity ``certificate-skipped`` findings
when the inputs leave the theorem's model (e.g. a non-polynomial power
function for a bound stated for ``power = speed**alpha``); they never pass
vacuously without recording why.

Solver machinery is imported lazily inside each checker so importing
:mod:`repro.verify` stays light and cycle-free.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..exceptions import InvalidScheduleError
from .report import Finding
from .structural import _MARGIN, VerificationContext, parse_assignment

__all__ = ["CHECKERS", "checker"]

#: Certificate kind -> checker. Populated by the :func:`checker` decorator.
CHECKERS: dict[str, Callable[[VerificationContext], list[Finding]]] = {}


def checker(kind: str) -> Callable:
    """Register a checker under a certificate kind (decorator)."""

    def decorate(fn: Callable[[VerificationContext], list[Finding]]) -> Callable:
        CHECKERS[kind] = fn
        return fn

    return decorate


def _skipped(kind: str, reason: str) -> list[Finding]:
    return [
        Finding(
            code="certificate-skipped",
            check=kind,
            message=f"certificate not evaluated: {reason}",
            severity="warning",
        )
    ]


def _yds_optimal_energy(ctx: VerificationContext) -> float:
    """Offline optimal (YDS) energy for the request's instance, recomputed."""
    from ..core.kernels import energy_eval
    from ..online.yds import yds_speeds

    speeds = yds_speeds(ctx.request.instance).speeds
    return float(
        np.sum(energy_eval(ctx.request.power, ctx.request.instance.works, speeds))
    )


def _level_set_bound(
    releases: np.ndarray,
    deadlines: np.ndarray,
    works: np.ndarray,
    speeds: np.ndarray,
    alpha: float,
) -> tuple[float, float] | None:
    """A lower bound on ``OPT`` from the speeds' level sets, with its top rate.

    Level ``i`` holds the jobs at the ``i``-th largest speed (speeds within
    ``1e-9`` of each other count as one); its layer is the part of the union
    of the windows of levels ``0..i`` that no faster level covers.  Every
    schedule runs the work of levels ``0..i`` inside that union, so with
    ``x_i`` = level work / layer length, non-increasing in ``i``,
    ``sum_i layer_i * x_i**alpha`` is at most ``OPT`` (Jensen on each
    layer).  For the YDS speeds each layer is exactly filled, ``x_i`` is the
    level's speed and the bound is their energy.  ``None`` when a layer is
    empty or the rates rise.
    """
    order = np.argsort(-speeds, kind="stable")
    ordered = speeds[order]
    # speeds equal up to rounding share a level: YDS may split one density
    # over several rounds, each computed on its own collapsed timeline
    split = np.empty(len(speeds), dtype=bool)
    split[0] = True
    np.less(ordered[1:], ordered[:-1] * (1.0 - 1e-9), out=split[1:])
    level = np.empty(len(speeds), dtype=np.intp)
    level[order] = np.cumsum(split) - 1
    k = int(level[order[-1]]) + 1
    # elementary segments between consecutive event times (repeated times
    # give empty segments, which add nothing)
    times = np.sort(np.concatenate([releases, deadlines]))
    lo, hi = times[:-1], times[1:]
    covers = (releases[:, np.newaxis] <= lo) & (deadlines[:, np.newaxis] >= hi)
    fastest = np.where(covers, level[:, np.newaxis], k).min(axis=0)
    layer = np.bincount(fastest, weights=hi - lo, minlength=k + 1)[:k]
    if not np.all(layer > 0.0):
        return None
    rate = np.bincount(level, weights=works, minlength=k) / layer
    if np.any(rate[1:] > rate[:-1] * (1.0 + 1e-9)):
        return None
    return float(np.sum(layer * rate**alpha)), float(rate[0])


def _yds_certified(ctx: VerificationContext) -> bool:
    """The speeds are the YDS optimum to ``1e-9``: ``OPT`` is their energy.

    ``OPT`` lies between the level-set bound and the energy of the speeds
    scaled to feasibility, and both that energy and the speeds' own lie
    within ``0.5e-9`` of the bound.  The peak speed is then the maximum
    window density within half the density check's tolerance: the density
    lies between the top level's rate and the peak speed times
    ``1 + stretch``.
    """
    witness = ctx.witness
    power = ctx.request.power
    if witness is None or not power.is_polynomial:
        return False
    instance = ctx.request.instance
    speeds = ctx.result.speeds
    found = _level_set_bound(
        instance.releases, instance.deadlines, instance.works, speeds, power.alpha
    )
    if found is None:
        return False
    lower, top_rate = found
    return (
        witness.feasible_energy(power.alpha) <= lower * (1.0 + 0.5e-9)
        and witness.energy >= lower * (1.0 - 0.5e-9)
        and witness.stretch <= _MARGIN * 1e-6
        and top_rate >= float(np.max(speeds)) * (1.0 - _MARGIN * 1e-6)
    )


def _ratio_certified(ctx: VerificationContext, bound: float) -> bool:
    """``OPT <= energy <= bound * OPT`` with margin, settled without ``OPT``.

    ``OPT`` is at most the energy of the answer's speeds scaled to
    feasibility and at least the Jensen window bound.
    """
    witness = ctx.witness
    if witness is None:
        return False
    power = ctx.request.power
    energy = ctx.result.energy
    return (
        energy >= witness.feasible_energy(power.alpha) * (1.0 - _MARGIN * 1e-6)
        and energy <= bound * witness.jensen(power) * (1.0 + _MARGIN * 1e-6)
    )


# ----------------------------------------------------------------------
# budget / target tightness
# ----------------------------------------------------------------------

@checker("budget-tightness")
def check_budget_tightness(ctx: VerificationContext) -> list[Finding]:
    """Laptop mode: the budget is exhausted; server mode: the target is hit."""
    findings: list[Finding] = []
    caps = ctx.capabilities
    budget = ctx.request.budget
    if budget is None:
        return _skipped("budget-tightness", "request carries no budget")
    tol = 1e-6

    if caps.budget_kind == "energy":
        energy = ctx.result.energy
        if energy is None:
            return _skipped("budget-tightness", "result reports no energy")
        if energy > budget * (1.0 + tol) + 1e-9:
            findings.append(
                Finding(
                    code="budget-exceeded",
                    check="budget-tightness",
                    message=(
                        f"energy {energy:g} exceeds the budget {budget:g}"
                    ),
                    data={"energy": energy, "budget": budget},
                )
            )
        elif energy < budget * (1.0 - tol) - 1e-9:
            findings.append(
                Finding(
                    code="budget-not-exhausted",
                    check="budget-tightness",
                    message=(
                        f"energy {energy:g} leaves budget {budget:g} unused; "
                        "an optimal schedule spends the whole budget"
                    ),
                    data={"energy": energy, "budget": budget},
                )
            )
        return findings

    if caps.budget_kind == "metric":
        schedule = ctx.schedule
        if schedule is None:
            return _skipped("budget-tightness", "no schedule to derive the metric from")
        achieved = (
            schedule.makespan if caps.objective == "makespan" else schedule.total_flow
        )
        if achieved > budget * (1.0 + tol) + 1e-9:
            findings.append(
                Finding(
                    code="target-missed",
                    check="budget-tightness",
                    message=(
                        f"achieved {caps.objective} {achieved:g} exceeds the "
                        f"target {budget:g}"
                    ),
                    data={"achieved": achieved, "target": budget},
                )
            )
        elif achieved < budget * (1.0 - tol) - 1e-9:
            findings.append(
                Finding(
                    code="target-not-tight",
                    check="budget-tightness",
                    message=(
                        f"achieved {caps.objective} {achieved:g} beats the target "
                        f"{budget:g}; the minimum-energy schedule is exactly tight"
                    ),
                    data={"achieved": achieved, "target": budget},
                )
            )
        return findings

    return _skipped("budget-tightness", f"budget kind {caps.budget_kind!r} has no budget")


# ----------------------------------------------------------------------
# makespan structure (Lemmas 2-6)
# ----------------------------------------------------------------------

@checker("optimal-structure")
def check_structure_certificate(ctx: VerificationContext) -> list[Finding]:
    """Lemma 2-6 structure of the optimal uniprocessor makespan schedule."""
    from .structure import check_optimal_structure

    schedule = ctx.schedule
    if schedule is None:
        return _skipped("optimal-structure", "no schedule to inspect")
    report = check_optimal_structure(schedule)
    labels = {
        "single_speed_per_job": ("structure-multiple-speeds", "Lemma 2: a job runs at several speeds"),
        "release_order": ("structure-out-of-order", "Lemma 3: jobs do not run in release order"),
        "no_idle": ("structure-idle-gap", "Lemma 4: idle time before the last completion"),
        "uniform_speed_per_block": ("structure-block-not-uniform", "Lemma 5: a block mixes speeds"),
        "non_decreasing_block_speeds": ("structure-block-speeds-decrease", "Lemma 6: block speeds decrease"),
    }
    return [
        Finding(code=code, check="optimal-structure", message=message)
        for prop, (code, message) in labels.items()
        if not getattr(report, prop)
    ]


# ----------------------------------------------------------------------
# YDS density certificate
# ----------------------------------------------------------------------

@checker("yds-density")
def check_yds_density(ctx: VerificationContext) -> list[Finding]:
    """The YDS witness: peak speed = max window density, energy = OPT.

    Settled by the level sets when they certify the speeds; otherwise the
    maximum-density window and a YDS re-solve decide.
    """
    from ..core.kernels import max_density_interval

    findings: list[Finding] = []
    instance = ctx.request.instance
    speeds = ctx.result.speeds
    if speeds is None or speeds.shape != (instance.n_jobs,):
        return _skipped("yds-density", "no per-job speeds to certify")

    energy = ctx.result.energy
    if _yds_certified(ctx) and (
        energy is None
        or math.isclose(energy, ctx.witness.energy, rel_tol=_MARGIN * 1e-6)
    ):
        return findings

    found = max_density_interval(
        instance.releases, instance.deadlines, instance.works
    )
    if found is not None:
        t1, t2, intensity, _ = found
        peak = float(np.max(speeds))
        if not math.isclose(peak, intensity, rel_tol=1e-6, abs_tol=1e-9):
            findings.append(
                Finding(
                    code="density-certificate-violated",
                    check="yds-density",
                    message=(
                        f"peak speed {peak:g} != maximum window density "
                        f"{intensity:g} over [{t1:g}, {t2:g}]"
                    ),
                    data={"peak_speed": peak, "density": intensity, "t1": t1, "t2": t2},
                )
            )

    optimal = _yds_optimal_energy(ctx)
    if energy is not None:
        if energy > optimal * (1.0 + 1e-6) + 1e-9:
            findings.append(
                Finding(
                    code="yds-energy-suboptimal",
                    check="yds-density",
                    message=(
                        f"reported energy {energy:g} exceeds the recomputed "
                        f"YDS optimum {optimal:g}"
                    ),
                    data={"reported": energy, "optimal": optimal},
                )
            )
        elif energy < optimal * (1.0 - 1e-6) - 1e-9:
            findings.append(
                Finding(
                    code="yds-energy-below-optimal",
                    check="yds-density",
                    message=(
                        f"reported energy {energy:g} is below the offline optimum "
                        f"{optimal:g} -- no feasible schedule achieves it"
                    ),
                    data={"reported": energy, "optimal": optimal},
                )
            )
    return findings


# ----------------------------------------------------------------------
# online competitive-ratio certificate
# ----------------------------------------------------------------------

@checker("competitive-ratio")
def check_competitive_ratio(ctx: VerificationContext) -> list[Finding]:
    """Reported energy lies in ``[OPT, bound(alpha) * OPT]``.

    Settled by bounds on ``OPT`` when they suffice; otherwise against a YDS
    re-solve.
    """
    findings: list[Finding] = []
    power = ctx.request.power
    if not power.is_polynomial:
        return _skipped(
            "competitive-ratio",
            "competitive bounds are stated for power = speed**alpha",
        )
    from ..online.compete import RATIO_BOUNDS

    name = ctx.capabilities.name
    bound_fn = RATIO_BOUNDS.get(name)
    if bound_fn is None:
        return _skipped("competitive-ratio", f"no ratio bound known for {name!r}")
    energy = ctx.result.energy
    if energy is None:
        return _skipped("competitive-ratio", "result reports no energy")

    bound = float(bound_fn(power.alpha))
    if _ratio_certified(ctx, bound):
        return findings
    optimal = _yds_optimal_energy(ctx)
    if energy < optimal * (1.0 - 1e-6) - 1e-9:
        findings.append(
            Finding(
                code="energy-below-optimal",
                check="competitive-ratio",
                message=(
                    f"reported energy {energy:g} is below the offline optimum "
                    f"{optimal:g} -- no schedule achieves it"
                ),
                data={"reported": energy, "optimal": optimal},
            )
        )
    if energy > bound * optimal * (1.0 + 1e-6) + 1e-9:
        findings.append(
            Finding(
                code="competitive-bound-exceeded",
                check="competitive-ratio",
                message=(
                    f"reported energy {energy:g} exceeds {bound:g} x OPT "
                    f"({optimal:g}), the theoretical {name.upper()} guarantee"
                ),
                data={"reported": energy, "optimal": optimal, "bound": bound},
            )
        )
    return findings


# ----------------------------------------------------------------------
# frontier shape certificate
# ----------------------------------------------------------------------

@checker("frontier-shape")
def check_frontier_shape(ctx: VerificationContext) -> list[Finding]:
    """The sampled trade-off curve is sorted, non-increasing and convex."""
    findings: list[Finding] = []
    extras = ctx.result.extras
    breakpoints = extras.get("breakpoints")
    if breakpoints is None:
        return [
            Finding(
                code="frontier-payload-missing",
                check="frontier-shape",
                message="frontier result carries no 'breakpoints' in extras",
            )
        ]
    bps = [float(b) for b in breakpoints]
    if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
        findings.append(
            Finding(
                code="breakpoints-not-sorted",
                check="frontier-shape",
                message=f"configuration breakpoints are not strictly increasing: {bps}",
                data={"breakpoints": bps},
            )
        )

    samples = extras.get("samples")
    if not samples:
        return findings
    energies = np.array([float(s["energy"]) for s in samples])
    values = np.array([float(s["makespan"]) for s in samples])
    if np.any(np.diff(energies) <= 0):
        findings.append(
            Finding(
                code="frontier-not-monotone",
                check="frontier-shape",
                message="sample energies are not strictly increasing",
            )
        )
        return findings
    scale = 1e-7 * (1.0 + float(np.max(np.abs(values))))
    if np.any(np.diff(values) > scale):
        findings.append(
            Finding(
                code="frontier-not-monotone",
                check="frontier-shape",
                message=(
                    "optimal makespan increases with energy somewhere on the "
                    "sample grid; the non-dominated curve is non-increasing"
                ),
            )
        )
    slopes = np.diff(values) / np.diff(energies)
    slope_scale = 1e-6 * (1.0 + float(np.max(np.abs(slopes)))) if len(slopes) else 0.0
    if np.any(np.diff(slopes) < -slope_scale):
        findings.append(
            Finding(
                code="frontier-not-convex",
                check="frontier-shape",
                message=(
                    "the sampled makespan(energy) curve is not convex; "
                    "every segment of the true frontier is"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------------
# equal-work flow structure (Theorem 1)
# ----------------------------------------------------------------------

@checker("flow-structure")
def check_flow_structure(ctx: VerificationContext) -> list[Finding]:
    """Theorem 1 boundary relations (plus the closed form when claimed exact)."""
    from ..flow.structure import (
        classify_boundaries,
        closed_form_speeds,
        verify_theorem1,
    )

    findings: list[Finding] = []
    instance = ctx.request.instance
    power = ctx.request.power
    speeds = ctx.result.speeds
    if speeds is None or speeds.shape != (instance.n_jobs,):
        return _skipped("flow-structure", "no per-job speeds to certify")
    if not power.is_polynomial:
        return _skipped(
            "flow-structure", "Theorem 1 is stated for power = speed**alpha"
        )
    # the flow solvers are exact to rounding; atol is equal_work_flow_laptop's
    # boundary_atol, so a claimed closed form and this check see the same
    # boundaries
    if not verify_theorem1(instance, power, speeds, rtol=1e-6, atol=1e-5):
        findings.append(
            Finding(
                code="theorem1-violated",
                check="flow-structure",
                message=(
                    "the speeds violate Theorem 1's boundary relations for "
                    "optimal equal-work flow schedules"
                ),
            )
        )
    if ctx.result.extras.get("exact_closed_form"):
        config = classify_boundaries(instance, speeds, atol=1e-5)
        if config.has_tight_boundary:
            findings.append(
                Finding(
                    code="closed-form-mismatch",
                    check="flow-structure",
                    message=(
                        "result claims the exact closed form applied but the "
                        "speeds imply a tight boundary (Theorem 8: no closed form)"
                    ),
                )
            )
        else:
            closed = closed_form_speeds(instance, power, config, float(speeds[-1]))
            if not np.allclose(closed, speeds, rtol=1e-5, atol=1e-9):
                findings.append(
                    Finding(
                        code="closed-form-mismatch",
                        check="flow-structure",
                        message=(
                            "speeds differ from the Theorem 1 closed form "
                            "implied by their own boundary configuration"
                        ),
                        data={
                            "speeds": [float(s) for s in speeds],
                            "closed_form": [float(s) for s in closed],
                        },
                    )
                )
    return findings


# ----------------------------------------------------------------------
# certified error bounds for approximate solvers
# ----------------------------------------------------------------------

#: Exhaustive re-solves are only attempted when the assignment search space
#: (≈ m**(n-1) candidates after symmetry pruning) stays below this.
_EXACT_RESOLVE_CANDIDATES = 20_000


def _approx_finding(code: str, message: str, **data) -> Finding:
    return Finding(code=code, check="error-bound", message=message, data=data)


def _check_ptas_bound(ctx: VerificationContext, epsilon: float) -> list[Finding]:
    from ..multi.exact import exact_zero_release_makespan
    from ..multi.ptas import zero_release_makespan_lower_bound

    findings: list[Finding] = []
    request = ctx.request
    value = ctx.result.value
    if value is None:
        return [_approx_finding("approximation-invalid", "PTAS result has no value")]
    if epsilon > 0.0:
        # a positive epsilon was certified against the load-relaxation lower
        # bound, so the same inequality must hold on recomputation; a zero
        # epsilon certifies via exhaustiveness instead (the bound is strict
        # on instances where no balanced assignment exists) and is checked
        # against an exact re-solve below
        lower = zero_release_makespan_lower_bound(
            request.instance, request.power, request.processors, request.budget
        )
        if value > (1.0 + epsilon) * lower * (1.0 + 1e-9):
            findings.append(
                _approx_finding(
                    "error-bound-violated",
                    f"makespan {value:g} exceeds (1 + {epsilon:g}) x the "
                    f"Schur-convexity lower bound {lower:g}",
                    value=value, epsilon=epsilon, lower_bound=lower,
                )
            )
    n = request.instance.n_jobs
    m = request.processors
    if m ** max(0, n - 1) <= _EXACT_RESOLVE_CANDIDATES:
        optimal = exact_zero_release_makespan(
            request.instance, request.power, m, request.budget
        ).makespan
        if value < optimal * (1.0 - 1e-6) - 1e-9:
            findings.append(
                _approx_finding(
                    "value-below-optimal",
                    f"makespan {value:g} is below the exact optimum {optimal:g} "
                    "-- no assignment achieves it",
                    value=value, optimal=optimal,
                )
            )
        elif epsilon == 0.0 and value > optimal * (1.0 + 1e-6) + 1e-9:
            findings.append(
                _approx_finding(
                    "error-bound-violated",
                    f"result claims an exact answer (epsilon 0) but makespan "
                    f"{value:g} exceeds the exact optimum {optimal:g}",
                    value=value, optimal=optimal,
                )
            )
        elif value > (1.0 + epsilon) * optimal * (1.0 + 1e-9):
            findings.append(
                _approx_finding(
                    "error-bound-violated",
                    f"makespan {value:g} exceeds (1 + {epsilon:g}) x the exact "
                    f"optimum {optimal:g}",
                    value=value, epsilon=epsilon, optimal=optimal,
                )
            )
    elif epsilon == 0.0:
        return findings + _skipped(
            "error-bound",
            "claimed-exact PTAS answer on an instance too large to re-solve "
            f"exhaustively ({m}**{n - 1} candidates)",
        )
    return findings


def _check_frontier_envelope(ctx: VerificationContext, epsilon: float) -> list[Finding]:
    from ..exceptions import BudgetError
    from ..makespan.frontier import interpolation_error_bound
    from ..makespan.incmerge import incmerge

    samples = ctx.result.extras.get("samples")
    if not samples or len(samples) < 2:
        return [
            _approx_finding(
                "approximation-invalid",
                "frontier-envelope certificate needs at least 2 samples in extras",
            )
        ]
    pairs = [(float(s["energy"]), float(s["makespan"])) for s in samples]
    try:
        recomputed = interpolation_error_bound(pairs)
    except BudgetError as exc:
        return [
            _approx_finding(
                "error-bound-violated",
                f"sample geometry is not a valid frontier sampling: {exc}",
            )
        ]
    findings: list[Finding] = []
    if epsilon < recomputed * (1.0 - 1e-9) - 1e-12:
        findings.append(
            _approx_finding(
                "error-bound-violated",
                f"claimed epsilon {epsilon:g} is below the recomputed "
                f"envelope bound {recomputed:g}",
                claimed=epsilon, recomputed=recomputed,
            )
        )
    if ctx.request.instance.n_jobs <= 32:
        # spot-check the interpolation against a real solve mid-segment
        mid = len(pairs) // 2
        (e0, v0), (e1, v1) = pairs[mid - 1], pairs[mid]
        energy = 0.5 * (e0 + e1)
        interpolated = 0.5 * (v0 + v1)
        actual = float(
            incmerge(ctx.request.instance, ctx.request.power, energy).makespan
        )
        if interpolated < actual * (1.0 - 1e-9) - 1e-12:
            findings.append(
                _approx_finding(
                    "error-bound-violated",
                    f"interpolated makespan {interpolated:g} at energy {energy:g} "
                    f"is below the true optimum {actual:g}; the chord must be an "
                    "upper bound on a convex curve",
                    interpolated=interpolated, actual=actual, energy=energy,
                )
            )
        elif interpolated > (1.0 + epsilon) * actual * (1.0 + 1e-9):
            findings.append(
                _approx_finding(
                    "error-bound-violated",
                    f"interpolated makespan {interpolated:g} at energy {energy:g} "
                    f"misses the true optimum {actual:g} by more than the "
                    f"certified epsilon {epsilon:g}",
                    interpolated=interpolated, actual=actual, epsilon=epsilon,
                )
            )
    return findings


def _check_jensen_gap(ctx: VerificationContext, epsilon: float) -> list[Finding]:
    from ..online.anytime import jensen_energy_lower_bound

    energy = ctx.result.energy
    if energy is None:
        return [
            _approx_finding("approximation-invalid", "jensen-gap result has no energy")
        ]
    lower = jensen_energy_lower_bound(ctx.request.instance, ctx.request.power)
    findings: list[Finding] = []
    if energy < lower * (1.0 - 1e-9) - 1e-12:
        findings.append(
            _approx_finding(
                "value-below-optimal",
                f"reported energy {energy:g} is below the Jensen window lower "
                f"bound {lower:g} -- no feasible schedule achieves it",
                energy=energy, lower_bound=lower,
            )
        )
    if energy > (1.0 + epsilon) * lower * (1.0 + 1e-9):
        findings.append(
            _approx_finding(
                "error-bound-violated",
                f"reported energy {energy:g} exceeds (1 + {epsilon:g}) x the "
                f"Jensen window lower bound {lower:g}",
                energy=energy, epsilon=epsilon, lower_bound=lower,
            )
        )
    return findings


def _check_yds_exact(ctx: VerificationContext, epsilon: float) -> list[Finding]:
    energy = ctx.result.energy
    if energy is None:
        return [
            _approx_finding("approximation-invalid", "yds-exact result has no energy")
        ]
    if _yds_certified(ctx) and math.isclose(
        energy, ctx.witness.energy, rel_tol=_MARGIN * 1e-6
    ):
        return []
    optimal = _yds_optimal_energy(ctx)
    if not math.isclose(energy, optimal, rel_tol=1e-6, abs_tol=1e-9):
        return [
            _approx_finding(
                "error-bound-violated",
                f"escalated exact answer reports energy {energy:g} but the YDS "
                f"re-solve gives {optimal:g}",
                energy=energy, optimal=optimal,
            )
        ]
    return []


_BOUND_CHECKS = {
    "ptas": _check_ptas_bound,
    "frontier-envelope": _check_frontier_envelope,
    "jensen-gap": _check_jensen_gap,
    "yds-exact": _check_yds_exact,
}


@checker("error-bound")
def check_error_bound(ctx: VerificationContext) -> list[Finding]:
    """Recompute an approximate answer's certified bound from first principles.

    Exact variants that also declare this certificate (e.g. the escalated
    path of an anytime solver never taken) may return no approximation
    metadata at all; that is only a violation when the solver capabilities
    say every answer is approximate.
    """
    approximation = ctx.result.approximation
    if approximation is None:
        if ctx.capabilities.approximate:
            return [
                _approx_finding(
                    "approximation-missing",
                    f"solver {ctx.capabilities.name!r} is registered as "
                    "approximate but the result carries no approximation metadata",
                )
            ]
        return []
    raw_epsilon = approximation.get("epsilon")
    bound_kind = approximation.get("bound_kind")
    try:
        epsilon = float(raw_epsilon)
    except (TypeError, ValueError):
        epsilon = math.nan
    if not math.isfinite(epsilon) or epsilon < 0.0:
        return [
            _approx_finding(
                "approximation-invalid",
                f"approximation metadata carries no usable epsilon: {raw_epsilon!r}",
            )
        ]
    findings: list[Finding] = []
    accuracy = ctx.request.accuracy
    if accuracy is not None and epsilon > accuracy * (1.0 + 1e-9):
        findings.append(
            _approx_finding(
                "accuracy-violated",
                f"certified epsilon {epsilon:g} exceeds the requested "
                f"accuracy {accuracy:g}",
                epsilon=epsilon, accuracy=accuracy,
            )
        )
    bound_check = _BOUND_CHECKS.get(bound_kind)
    if bound_check is None:
        findings.extend(
            _skipped(
                "error-bound",
                f"no recomputation known for bound kind {bound_kind!r}",
            )
        )
        return findings
    findings.extend(bound_check(ctx, epsilon))
    return findings


# ----------------------------------------------------------------------
# multiprocessor cyclic assignment (Theorem 10)
# ----------------------------------------------------------------------

@checker("cyclic-assignment")
def check_cyclic_assignment(ctx: VerificationContext) -> list[Finding]:
    """The reported assignment is a partition distributed cyclically (Theorem 10)."""
    from ..multi.cyclic import cyclic_assignment

    n = ctx.request.instance.n_jobs
    try:
        assignment = parse_assignment(ctx.result.extras.get("assignment"), n)
    except InvalidScheduleError as exc:
        return [
            Finding(code="assignment-invalid", check="cyclic-assignment", message=str(exc))
        ]
    assigned = [j for jobs in assignment.values() for j in jobs]
    if sorted(assigned) != list(range(n)):
        return [
            Finding(
                code="assignment-not-partition",
                check="cyclic-assignment",
                message=(
                    "the assignment does not place every job on exactly one "
                    "processor"
                ),
                data={"assigned": sorted(assigned), "n_jobs": n},
            )
        ]
    expected = cyclic_assignment(n, ctx.request.processors)
    # solvers may omit processors that received no jobs; compare the
    # non-empty part of the distribution
    nonempty = {p: jobs for p, jobs in assignment.items() if jobs}
    expected_nonempty = {p: jobs for p, jobs in expected.items() if jobs}
    if nonempty != expected_nonempty:
        return [
            Finding(
                code="assignment-not-cyclic",
                check="cyclic-assignment",
                message=(
                    "the assignment is not the cyclic distribution of "
                    "Theorem 10 (job i on processor i mod m)"
                ),
                data={
                    "assignment": {str(p): jobs for p, jobs in sorted(assignment.items())},
                    "expected": {str(p): jobs for p, jobs in sorted(expected.items())},
                },
            )
        ]
    return []
