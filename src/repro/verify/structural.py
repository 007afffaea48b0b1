"""Structural verification: envelope sanity, feasibility, energy/value accounting.

These checks apply to *every* solver in the registry (the semantic
certificates of :mod:`repro.verify.certificates` are layered on top per
capability).  They treat the ``(SolveRequest, SolveResult)`` pair purely as
data:

* ``envelope`` -- the result names the requested solver, succeeded, and its
  ``value`` / ``energy`` / ``speeds`` payload is well-formed (finite,
  positive speeds, one per job);
* ``feasibility`` -- the schedule implied by the reported speeds is legal:
  every job is scheduled, completes its work, respects its release time (and
  deadline, for the deadline-feasibility solvers), and pieces never overlap
  on a processor;
* ``accounting`` -- the reported energy and objective value are re-derived
  from that schedule at tolerance.  For the online algorithms (whose jobs may
  run at varying speed, so only the work-weighted average speed survives in
  the envelope) the re-derived energy is a *lower bound* by convexity of the
  power function, and the check degrades to that sound bound.

Schedule reconstruction is capability-driven: uniprocessor offline solvers
imply the canonical run-in-release-order schedule
(:meth:`~repro.core.schedule.Schedule.from_speeds`), the deadline solvers an
EDF realisation of the per-job speeds, and the multiprocessor solvers replay
the assignment reported in ``extras``.

The deadline family is first checked without a schedule, by the array
certificates of :class:`DeadlineWitness`.  Preemptive EDF at fixed speeds
meets every deadline iff every release/deadline window holds at most its
length of processing time (Hall's condition), and EDF's largest lateness is
the largest excess; the energy of per-job constant speeds is
``sum_j energy(w_j, s_j)``.  A certificate passes only with margin (half the
tolerance of the check it stands for); otherwise the EDF schedule is rebuilt
and checked as data, so every report, failing ones included, is the one the
schedule gives.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..core.kernels import energy_eval, interval_work_grid, jensen_window_bound
from ..core.schedule import Schedule
from ..exceptions import InvalidScheduleError, ReproError
from .report import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.types import SolveRequest, SolveResult, SolverCapabilities

__all__ = [
    "VerificationContext",
    "check_envelope",
    "check_schedule",
    "check_accounting",
    "parse_assignment",
    "reconstruct_schedule",
]

#: Absolute slack for time comparisons (release/deadline/overlap); matches the
#: schedule layer's own feasibility epsilon scaled up for EDF reconstruction.
_TIME_EPS = 1e-6

#: Relative slack of the per-job work check (``check_schedule``'s default).
_WORK_RTOL = 1e-6

#: A certificate passes only within this share of the tolerance of the check
#: it stands in for; the rest covers the rounding of the rebuilt schedule.
_MARGIN = 0.5


@dataclass
class VerificationContext:
    """Shared state threaded through every checker of one verification run."""

    request: "SolveRequest"
    result: "SolveResult"
    capabilities: "SolverCapabilities"
    rtol: float = 1e-6
    _schedule: Schedule | None = field(default=None, repr=False)
    _schedule_error: str | None = field(default=None, repr=False)
    _schedule_built: bool = field(default=False, repr=False)

    @property
    def schedule(self) -> Schedule | None:
        """The schedule implied by the result's speeds (``None`` if not derivable)."""
        if not self._schedule_built:
            self._schedule_built = True
            try:
                self._schedule = reconstruct_schedule(
                    self.request, self.result, self.capabilities
                )
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                # malformed payloads (bad assignment shapes, non-numeric
                # entries) are data errors, reported as findings — not crashes
                self._schedule_error = f"{type(exc).__name__}: {exc}"
        return self._schedule

    @property
    def schedule_error(self) -> str | None:
        """Why reconstruction failed, if it did."""
        self.schedule  # force the attempt
        return self._schedule_error

    @cached_property
    def witness(self) -> "DeadlineWitness | None":
        """The deadline family's array certificates (``None`` where they cannot decide)."""
        return deadline_witness(self.request, self.result, self.capabilities)


def _isclose(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-9)


# ----------------------------------------------------------------------
# envelope
# ----------------------------------------------------------------------

def check_envelope(ctx: VerificationContext) -> list[Finding]:
    """Well-formedness of the result envelope itself."""
    findings: list[Finding] = []
    result = ctx.result

    if not result.ok:
        findings.append(
            Finding(
                code="result-is-error",
                check="envelope",
                message=(
                    f"result is an error envelope [{result.error_code}]: "
                    f"{result.error_message}; nothing to verify"
                ),
                data={"error_code": result.error_code},
            )
        )
        return findings

    # frontier-mode solvers legitimately carry their payload in extras; every
    # other solver must report the full value/energy/speeds triple — a
    # stripped envelope is a tamper, not a pass
    payload_required = ctx.capabilities.mode != "frontier"
    for label, quantity in (("value", result.value), ("energy", result.energy)):
        if quantity is None:
            if payload_required:
                findings.append(
                    Finding(
                        code=f"{label}-missing",
                        check="envelope",
                        message=f"result reports no {label}, which this solver requires",
                    )
                )
        elif not isinstance(quantity, (int, float)) or isinstance(quantity, bool):
            findings.append(
                Finding(
                    code=f"{label}-invalid",
                    check="envelope",
                    message=f"reported {label} must be a number, got {quantity!r}",
                    data={label: repr(quantity)},
                )
            )
        elif not math.isfinite(quantity) or quantity < 0.0:
            findings.append(
                Finding(
                    code=f"{label}-invalid",
                    check="envelope",
                    message=f"reported {label} must be finite and >= 0, got {quantity!r}",
                    data={label: quantity},
                )
            )

    n = ctx.request.instance.n_jobs
    speeds = result.speeds
    if speeds is None:
        if payload_required:
            findings.append(
                Finding(
                    code="speeds-missing",
                    check="envelope",
                    message="result reports no speeds, which this solver requires",
                )
            )
    else:
        if speeds.shape != (n,):
            findings.append(
                Finding(
                    code="speeds-shape",
                    check="envelope",
                    message=(
                        f"expected one speed per job ({n}), got shape {speeds.shape}"
                    ),
                    data={"expected": n, "got": list(speeds.shape)},
                )
            )
        else:
            bad = np.where(~np.isfinite(speeds) | (speeds <= 0.0))[0]
            if len(bad):
                j = int(bad[0])
                findings.append(
                    Finding(
                        code="speeds-invalid",
                        check="envelope",
                        message=(
                            f"job {j}: speed must be finite and > 0, "
                            f"got {float(speeds[j])!r}"
                        ),
                        data={"job": j, "speed": float(speeds[j])},
                    )
                )
    return findings


# ----------------------------------------------------------------------
# schedule reconstruction
# ----------------------------------------------------------------------

def parse_assignment(raw: object, n_jobs: int) -> dict[int, list[int]]:
    """A multiprocessor result's ``extras['assignment']`` as ``{processor: jobs}``.

    A processor key is an integer or, as JSON object keys are, its decimal
    string (``"0"``); every job entry is an integer in ``0..n_jobs-1``.  A
    bool, float or string entry is rejected, not coerced: ``4.7`` and
    ``"4"`` do not name job 4.  Raises :class:`InvalidScheduleError` naming
    the first bad key or entry.
    """
    if not isinstance(raw, dict):
        raise InvalidScheduleError(
            "multiprocessor result carries no 'assignment' in extras"
        )
    assignment: dict[int, list[int]] = {}
    for key, jobs in raw.items():
        if not (
            _is_integer(key) and key >= 0
            or isinstance(key, str) and key.isascii() and key.isdigit()
        ):
            raise InvalidScheduleError(f"assignment key {key!r} is not a processor index")
        proc = int(key)
        if not isinstance(jobs, (list, tuple)):
            raise InvalidScheduleError(
                f"processor {proc} is assigned {jobs!r}, not a list of jobs"
            )
        for j in jobs:
            if not _is_integer(j) or not 0 <= j < n_jobs:
                raise InvalidScheduleError(
                    f"processor {proc} is assigned job {j!r}, but the "
                    f"instance's jobs are the integers 0..{n_jobs - 1}"
                )
        assignment[proc] = [int(j) for j in jobs]
    return assignment


def _is_integer(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def reconstruct_schedule(
    request: "SolveRequest",
    result: "SolveResult",
    capabilities: "SolverCapabilities",
) -> Schedule | None:
    """The schedule implied by a result's speeds, per the solver's capabilities.

    Returns ``None`` for solvers whose payload carries no speeds (frontier
    mode).  Raises a :class:`~repro.exceptions.ReproError` subclass when the
    payload cannot be realised as a schedule at all (missing assignment,
    malformed speeds, ...), which :class:`VerificationContext` maps to a
    ``reconstruction-failed`` finding.
    """
    if result.speeds is None:
        return None
    if capabilities.multiprocessor:
        assignment = parse_assignment(
            result.extras.get("assignment"), request.instance.n_jobs
        )
        return Schedule.from_processor_speeds(
            request.instance,
            request.power,
            assignment,
            result.speeds,
            n_processors=max(request.processors, max(assignment, default=0) + 1),
        )
    if capabilities.objective == "energy":
        # deadline-feasibility family: realise the per-job (average) speeds
        # under EDF, the canonical preemptive realisation
        from ..online.yds import edf_schedule_at_speeds

        return edf_schedule_at_speeds(request.instance, request.power, result.speeds)
    return Schedule.from_speeds(request.instance, request.power, result.speeds)


# ----------------------------------------------------------------------
# deadline-family certificates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeadlineWitness:
    """Array certificates for per-job speeds realised under EDF.

    ``excess`` is the largest ``sum p_j - (b - a)`` over the non-empty
    release/deadline windows ``[a, b]`` (``p_j = w_j / s_j``, summed over the
    jobs with ``a <= r_j`` and ``d_j <= b``): EDF's largest lateness.
    ``stretch`` is the largest such excess relative to ``b - a`` (at least
    0), so the speeds scaled by ``1 + stretch`` are feasible.  ``energy`` is
    ``sum_j energy(w_j, s_j)``.  ``rounding`` bounds how far, relatively, the
    rebuilt EDF schedule may round away from these sums: its clock drift
    against the shortest processing time, plus the residual work (at most
    ``1e-12`` per job) EDF counts as done against the smallest work.
    ``grid`` is the two-column (processing time, work) window grid the
    Jensen bound reads.
    """

    energy: float
    excess: float
    stretch: float
    rounding: float
    grid: tuple[np.ndarray, np.ndarray, np.ndarray]

    def feasible_energy(self, alpha: float) -> float:
        """Energy of the speeds scaled to feasibility (``>= OPT``), for ``P = s**alpha``."""
        return self.energy * (1.0 + self.stretch) ** (alpha - 1.0)

    def jensen(self, power) -> float:
        """The Jensen window bound (``<= OPT``) over the same grid."""
        grid_r, grid_d, member = self.grid
        return jensen_window_bound(grid_r, grid_d, member[..., 1], power)


def deadline_witness(
    request: "SolveRequest",
    result: "SolveResult",
    capabilities: "SolverCapabilities",
) -> DeadlineWitness | None:
    """Certificates for an EDF-realised answer, or ``None`` where they cannot decide.

    They apply to the single-processor energy solvers when every job has a
    finite deadline and positive work, the speeds are finite and positive,
    and the rebuilt schedule's rounding (one per EDF piece, at most ``2n``
    pieces) stays a tenth of the time and work tolerances.  The last keeps
    every work above ``1e-5``, far from the ``1e-12`` at which EDF drops a
    job without running it.
    """
    if capabilities.objective != "energy" or capabilities.multiprocessor:
        return None
    instance = request.instance
    speeds = result.speeds
    if speeds is None or speeds.shape != (instance.n_jobs,) or not instance.has_deadlines():
        return None
    works = instance.works
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        processing = works / speeds
    if not np.all(np.isfinite(processing) & (processing > 0.0)):
        return None
    deadlines = instance.deadlines
    horizon = float(deadlines.max() + processing.sum())
    drift = 2 * instance.n_jobs * (8 * np.finfo(float).eps * horizon + 1e-12)
    rounding = drift / float(processing.min()) + 1e-12 / float(works.min())
    if drift > 0.1 * _TIME_EPS or rounding > 0.1 * _WORK_RTOL:
        return None
    try:
        energy = float(np.sum(energy_eval(request.power, works, speeds)))
    except ReproError:
        return None
    columns = np.empty((instance.n_jobs, 2))
    columns[:, 0] = processing
    columns[:, 1] = works
    grid_r, grid_d, member = interval_work_grid(instance.releases, deadlines, columns)
    load = member[:-1, :, 0]
    windows = load > 0.0
    length = (grid_d[np.newaxis, :] - grid_r[:, np.newaxis])[windows]
    excess = load[windows] - length
    return DeadlineWitness(
        energy=energy,
        excess=float(excess.max()),
        stretch=max(0.0, float(np.max(excess / length))),
        rounding=rounding,
        grid=(grid_r, grid_d, member),
    )


def _hall_certified(ctx: VerificationContext) -> bool:
    """EDF at the answer's speeds meets every deadline, with margin."""
    witness = ctx.witness
    return witness is not None and witness.excess <= _MARGIN * _TIME_EPS


def _energy_certified(ctx: VerificationContext) -> bool:
    """The reported energy passes the accounting check against the constant-speed energy."""
    witness = ctx.witness
    energy = ctx.result.energy
    if witness is None or energy is None or witness.rounding > 0.1 * _MARGIN * ctx.rtol:
        return False
    caps = ctx.capabilities
    if caps.online or caps.approximate:
        return energy >= witness.energy * (1.0 - _MARGIN * ctx.rtol)
    return math.isclose(energy, witness.energy, rel_tol=_MARGIN * ctx.rtol)


# ----------------------------------------------------------------------
# feasibility
# ----------------------------------------------------------------------

def check_schedule(
    schedule: Schedule,
    check_deadlines: bool | None = None,
    work_rtol: float = _WORK_RTOL,
) -> list[Finding]:
    """Feasibility of a schedule as data, reported as structured findings.

    The same conditions :meth:`Schedule.validate` enforces, but emitted as
    :class:`Finding` objects (one per violated job/pair) instead of raising on
    the first problem.  ``check_deadlines`` defaults to "check jobs that carry
    one".  Reads :attr:`Schedule.columns`; a job's scheduled work is added up
    in piece order, with the built-in ``sum`` where it has several pieces.
    """
    findings: list[Finding] = []
    instance = schedule.instance
    n = instance.n_jobs
    jobs, procs, starts, ends, speeds = schedule.columns
    count = np.bincount(jobs, minlength=n)
    work = speeds * (ends - starts)
    done = np.bincount(jobs, weights=work, minlength=n)
    for j in np.flatnonzero(count > 1).tolist():
        done[j] = sum(work[jobs == j].tolist())
    first = np.full(n, math.inf)
    last = np.full(n, -math.inf)
    np.minimum.at(first, jobs, starts)
    np.maximum.at(last, jobs, ends)
    required = instance.works
    releases = instance.releases
    deadlines = instance.deadlines
    # math.isclose(done, required, rel_tol=work_rtol, abs_tol=1e-9), per job
    mismatch = ~(
        np.abs(done - required)
        <= np.maximum(work_rtol * np.maximum(np.abs(done), np.abs(required)), 1e-9)
    )
    early = first < releases - _TIME_EPS
    late = np.isfinite(deadlines) & (last > deadlines + _TIME_EPS)
    if check_deadlines is not None and not check_deadlines:
        late[:] = False

    for j in np.flatnonzero((count == 0) | mismatch | early | late).tolist():
        if count[j] == 0:
            findings.append(
                Finding(
                    code="job-unscheduled",
                    check="feasibility",
                    message=f"job {j} has no execution pieces",
                    data={"job": j},
                )
            )
            continue
        if mismatch[j]:
            scheduled, needed = float(done[j]), float(required[j])
            findings.append(
                Finding(
                    code="work-mismatch",
                    check="feasibility",
                    message=(
                        f"job {j}: scheduled work {scheduled:g} != required "
                        f"{needed:g}"
                    ),
                    data={"job": j, "scheduled": scheduled, "required": needed},
                )
            )
        if early[j]:
            start, release = float(first[j]), float(releases[j])
            findings.append(
                Finding(
                    code="release-violated",
                    check="feasibility",
                    message=(
                        f"job {j} starts at {start:g} before its release "
                        f"{release:g}"
                    ),
                    data={"job": j, "start": start, "release": release},
                )
            )
        if late[j]:
            end, deadline = float(last[j]), float(deadlines[j])
            findings.append(
                Finding(
                    code="deadline-missed",
                    check="feasibility",
                    message=(
                        f"job {j} finishes at {end:g} after its "
                        f"deadline {deadline:g}"
                    ),
                    data={"job": j, "end": end, "deadline": deadline},
                )
            )

    # columns are sorted by (processor, start, job): neighbours on one
    # processor are the pairs to compare
    clash = (procs[1:] == procs[:-1]) & (starts[1:] < ends[:-1] - _TIME_EPS)
    for k in np.flatnonzero(clash).tolist():
        proc, a, b = int(procs[k]), k, k + 1
        findings.append(
            Finding(
                code="pieces-overlap",
                check="feasibility",
                message=(
                    f"processor {proc}: pieces overlap "
                    f"([{float(starts[a]):g},{float(ends[a]):g}] job {int(jobs[a])} and "
                    f"[{float(starts[b]):g},{float(ends[b]):g}] job {int(jobs[b])})"
                ),
                data={"processor": proc, "jobs": [int(jobs[a]), int(jobs[b])]},
            )
        )
    return findings


def check_feasibility(ctx: VerificationContext) -> list[Finding]:
    """Feasibility of the reconstructed schedule (capability-aware)."""
    if _hall_certified(ctx):
        return []
    schedule = ctx.schedule
    if schedule is None:
        if ctx.schedule_error is not None:
            return [
                Finding(
                    code="reconstruction-failed",
                    check="feasibility",
                    message=(
                        "could not realise the reported payload as a schedule: "
                        f"{ctx.schedule_error}"
                    ),
                )
            ]
        return []
    return check_schedule(
        schedule, check_deadlines=ctx.capabilities.needs_deadlines
    )


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------

def _energy_findings(ctx: VerificationContext, derived_energy: float) -> list[Finding]:
    """The reported energy against the energy of the rebuilt schedule."""
    result = ctx.result
    caps = ctx.capabilities
    if result.energy is None:
        return []
    if caps.online or (caps.approximate and caps.objective == "energy"):
        # only the work-weighted average speeds survive in the envelope
        # (true for the online algorithms and for approximate deadline
        # solvers whose anytime cut runs jobs at varying speed); by
        # convexity the constant-speed realisation is an energy lower
        # bound, with equality exactly for single-speed-per-job schedules
        if result.energy < derived_energy * (1.0 - ctx.rtol) - 1e-9:
            return [
                Finding(
                    code="energy-below-schedule-bound",
                    check="accounting",
                    message=(
                        f"reported energy {result.energy:g} is below the "
                        f"convexity lower bound {derived_energy:g} implied "
                        "by the reported speeds"
                    ),
                    data={"reported": result.energy, "bound": derived_energy},
                )
            ]
    elif not _isclose(result.energy, derived_energy, ctx.rtol):
        return [
            Finding(
                code="energy-mismatch",
                check="accounting",
                message=(
                    f"reported energy {result.energy:g} != energy "
                    f"{derived_energy:g} re-derived from the speeds"
                ),
                data={"reported": result.energy, "derived": derived_energy},
            )
        ]
    return []


def check_accounting(ctx: VerificationContext) -> list[Finding]:
    """Re-derive energy and objective value from the schedule at tolerance.

    For the deadline family the energy is settled without a schedule when
    the constant-speed energy certifies it (:class:`DeadlineWitness`).
    """
    findings: list[Finding] = []
    result = ctx.result
    caps = ctx.capabilities
    if not _energy_certified(ctx):
        schedule = ctx.schedule
        if schedule is None:
            return findings
        findings.extend(_energy_findings(ctx, schedule.energy))

    value = result.value
    if value is None:
        return findings
    objective = caps.objective
    if objective == "energy" or caps.mode == "server":
        # deadline-feasibility and server-mode solvers minimise energy and
        # report it as the value
        if result.energy is not None and not _isclose(value, result.energy, ctx.rtol):
            findings.append(
                Finding(
                    code="value-energy-inconsistent",
                    check="accounting",
                    message=f"value {value:g} != reported energy {result.energy:g}",
                    data={"value": value, "energy": result.energy},
                )
            )
    else:
        schedule = ctx.schedule
        derived_value = (
            schedule.makespan if objective == "makespan" else schedule.total_flow
        )
        if not _isclose(value, derived_value, max(ctx.rtol, 1e-5)):
            findings.append(
                Finding(
                    code="value-mismatch",
                    check="accounting",
                    message=(
                        f"reported {objective} {value:g} != {objective} "
                        f"{derived_value:g} re-derived from the speeds"
                    ),
                    data={"reported": value, "derived": derived_value},
                )
            )
    return findings
