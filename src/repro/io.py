"""Serialisation of instances and schedules (JSON and CSV).

A reproduction is only usable downstream if its inputs and outputs can leave
the Python process: workloads need to be shared between runs and tools, and
computed schedules need to be archived next to the benchmark tables.  This
module provides a small, dependency-free interchange format:

* instances round-trip through JSON (and CSV: :func:`instance_to_csv` /
  :func:`instance_from_csv`),
* schedules round-trip through JSON as their raw execution pieces plus the
  power model, so any saved schedule can be re-validated and re-scored later
  without knowing which algorithm produced it,
* the typed request/response envelopes of :mod:`repro.api` round-trip through
  JSON (:func:`request_to_dict` / :func:`result_to_dict` and inverses), so
  the batch engine, the CLI and any future HTTP service share one
  serialisation path end to end — including the ndarray->JSON encoding of
  per-job speeds (:func:`batch_result_to_dict` for batch rows).

Only the built-in power functions are serialisable (polynomial and
affine-polynomial); arbitrary callables are rejected explicitly rather than
pickled, to keep the files portable and safe to load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .api.types import ProblemSpec, SolveRequest, SolveResult, SolverCapabilities
from .core.job import Instance, Job
from .core.power import AffinePolynomialPower, PolynomialPower, PowerFunction
from .core.schedule import Piece, Schedule
from .exceptions import InvalidInstanceError, InvalidScheduleError, ReproError
from .verify.report import Finding, VerificationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .batch import BatchResult

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "instances_to_dict",
    "instances_from_dict",
    "save_instances",
    "load_instances",
    "instance_to_csv",
    "instance_from_csv",
    "power_to_dict",
    "power_from_dict",
    "speed_levels_to_dict",
    "speed_levels_from_dict",
    "machine_model_to_dict",
    "machine_model_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
    "spec_to_dict",
    "spec_from_dict",
    "request_to_dict",
    "request_from_dict",
    "result_to_dict",
    "result_from_dict",
    "capabilities_to_dict",
    "batch_result_to_dict",
    "batch_result_from_dict",
    "serve_response_to_dict",
    "serve_response_from_dict",
    "report_to_dict",
    "report_from_dict",
]

_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------

def instance_to_dict(instance: Instance) -> dict[str, Any]:
    """JSON-ready representation of an instance."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "instance",
        "name": instance.name,
        "jobs": [
            {
                "release": job.release,
                "work": job.work,
                "deadline": job.deadline,
                "weight": job.weight,
            }
            for job in instance.jobs
        ],
    }


def instance_from_dict(data: dict[str, Any]) -> Instance:
    """Rebuild an instance from :func:`instance_to_dict` output."""
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"not an instance payload: expected a JSON object, got {type(data).__name__}"
        )
    if data.get("kind") != "instance":
        raise InvalidInstanceError(f"not an instance payload: kind={data.get('kind')!r}")
    rows = data.get("jobs", [])
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise InvalidInstanceError("instance payload 'jobs' must be a list of objects")
    jobs = []
    for i, row in enumerate(rows):
        try:
            jobs.append(
                Job(
                    index=i,
                    release=float(row["release"]),
                    work=float(row["work"]),
                    deadline=None if row.get("deadline") is None else float(row["deadline"]),
                    weight=float(row.get("weight", 1.0)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInstanceError(f"malformed job row {i}: {exc!r}") from exc
    return Instance(jobs, name=str(data.get("name", "instance")))


def save_instance(instance: Instance, path: str | Path) -> Path:
    """Write an instance to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(instance_to_dict(instance), indent=2), encoding="utf-8")
    return path


def load_instance(path: str | Path) -> Instance:
    """Read an instance from a JSON file produced by :func:`save_instance`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return instance_from_dict(data)


def instances_to_dict(instances: list[Instance]) -> dict[str, Any]:
    """JSON-ready representation of a batch of instances."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "instance-batch",
        "instances": [instance_to_dict(inst) for inst in instances],
    }


def instances_from_dict(data: dict[str, Any] | list) -> list[Instance]:
    """Rebuild a batch of instances.

    Accepts the ``instance-batch`` payload of :func:`instances_to_dict`, a
    bare JSON list of instance payloads, or a single ``instance`` payload
    (returned as a one-element batch).
    """
    if isinstance(data, list):
        return [instance_from_dict(row) for row in data]
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            "not an instance batch payload: expected a JSON object or list, "
            f"got {type(data).__name__}"
        )
    kind = data.get("kind")
    if kind == "instance-batch":
        rows = data.get("instances")
        if not isinstance(rows, list):
            raise InvalidInstanceError(
                "instance-batch payload is missing its 'instances' list"
            )
        return [instance_from_dict(row) for row in rows]
    if kind == "instance":
        return [instance_from_dict(data)]
    raise InvalidInstanceError(f"not an instance batch payload: kind={kind!r}")


def save_instances(instances: list[Instance], path: str | Path) -> Path:
    """Write a batch of instances to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(instances_to_dict(instances), indent=2), encoding="utf-8")
    return path


def load_instances(path: str | Path) -> list[Instance]:
    """Read a batch of instances from a JSON file (see :func:`instances_from_dict`)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return instances_from_dict(data)


def instance_to_csv(instance: Instance) -> str:
    """CSV text with one row per job (release, work, deadline, weight)."""
    lines = ["job,release,work,deadline,weight"]
    for job in instance.jobs:
        deadline = "" if job.deadline is None else f"{job.deadline!r}"
        lines.append(f"{job.index},{job.release!r},{job.work!r},{deadline},{job.weight!r}")
    return "\n".join(lines) + "\n"


def instance_from_csv(text: str, name: str = "instance") -> Instance:
    """Rebuild an instance from :func:`instance_to_csv` output.

    Accepts the exact header written by the exporter; an empty ``deadline``
    field means "no deadline".  The ``job`` column is ignored — jobs are
    re-indexed by release order, exactly as the :class:`Instance` constructor
    does.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "job,release,work,deadline,weight":
        raise InvalidInstanceError(
            "not an instance CSV: expected header 'job,release,work,deadline,weight'"
        )
    jobs = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 5:
            raise InvalidInstanceError(
                f"malformed CSV row at line {lineno}: expected 5 fields, got {len(fields)}"
            )
        _, release, work, deadline, weight = fields
        try:
            jobs.append(
                Job(
                    index=len(jobs),
                    release=float(release),
                    work=float(work),
                    deadline=None if deadline == "" else float(deadline),
                    weight=float(weight),
                )
            )
        except ValueError as exc:
            raise InvalidInstanceError(
                f"malformed CSV row at line {lineno}: {exc}"
            ) from exc
    return Instance(jobs, name=name)


# ----------------------------------------------------------------------
# power functions
# ----------------------------------------------------------------------

def power_to_dict(power: PowerFunction) -> dict[str, Any]:
    """Serialise a built-in power function."""
    if isinstance(power, PolynomialPower):
        return {"type": "polynomial", "alpha": power.exponent}
    if isinstance(power, AffinePolynomialPower):
        return {
            "type": "affine-polynomial",
            "alpha": power.exponent,
            "coefficient": power.coefficient,
            "static": power.static,
        }
    raise InvalidScheduleError(
        f"power function of type {type(power).__name__} is not serialisable; "
        "only PolynomialPower and AffinePolynomialPower are supported"
    )


def power_from_dict(data: dict[str, Any]) -> PowerFunction:
    """Rebuild a power function from :func:`power_to_dict` output."""
    if not isinstance(data, dict):
        raise InvalidScheduleError(
            f"not a power-function payload: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    kind = data.get("type")
    try:
        if kind == "polynomial":
            return PolynomialPower(float(data["alpha"]))
        if kind == "affine-polynomial":
            return AffinePolynomialPower(
                exponent=float(data["alpha"]),
                coefficient=float(data["coefficient"]),
                static=float(data["static"]),
            )
    except ReproError:
        raise  # e.g. alpha <= 1: keep the specific error and its stable code
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScheduleError(
            f"malformed power-function payload: {exc!r}"
        ) from exc
    raise InvalidScheduleError(f"unknown power function type {kind!r}")


# ----------------------------------------------------------------------
# machine models (repro.sim)
# ----------------------------------------------------------------------

def speed_levels_to_dict(levels: Any) -> dict[str, Any]:
    """JSON-ready representation of a :class:`~repro.discrete.SpeedLevels`."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "speed-levels",
        "name": levels.name,
        "levels": [float(level) for level in levels.levels],
    }


def speed_levels_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild a :class:`~repro.discrete.SpeedLevels` from :func:`speed_levels_to_dict` output."""
    from .discrete import SpeedLevels  # runtime import: io must stay import-light

    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"not a speed-levels payload: expected a JSON object, got {type(data).__name__}"
        )
    if data.get("kind") != "speed-levels":
        raise InvalidInstanceError(
            f"not a speed-levels payload: kind={data.get('kind')!r}"
        )
    rows = data.get("levels")
    if not isinstance(rows, list) or not rows:
        raise InvalidInstanceError(
            "speed-levels payload needs a non-empty 'levels' list"
        )
    try:
        return SpeedLevels(
            name=str(data.get("name", "levels")),
            levels=tuple(float(level) for level in rows),
        )
    except ReproError:
        raise  # e.g. non-positive levels: keep the specific error and code
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"malformed speed-levels payload: {exc!r}") from exc


def machine_model_to_dict(machine: Any) -> dict[str, Any]:
    """JSON-ready representation of a :class:`~repro.sim.MachineModel`."""
    sleep = machine.sleep
    return {
        "format": _FORMAT_VERSION,
        "kind": "machine-model",
        "name": machine.name,
        "power": power_to_dict(machine.power),
        "static_power": machine.static_power,
        "sleep": None
        if sleep is None
        else {
            "name": sleep.name,
            "power": sleep.power,
            "wake_latency": sleep.wake_latency,
            "transition_energy": sleep.transition_energy,
        },
        "levels": None if machine.levels is None else speed_levels_to_dict(machine.levels),
        "quantization": machine.quantization,
    }


def machine_model_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild a :class:`~repro.sim.MachineModel` from :func:`machine_model_to_dict` output."""
    from .sim.machine import MachineModel, SleepState  # runtime import: io must stay import-light

    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"not a machine-model payload: expected a JSON object, got {type(data).__name__}"
        )
    if data.get("kind") != "machine-model":
        raise InvalidInstanceError(
            f"not a machine-model payload: kind={data.get('kind')!r}"
        )
    if "power" not in data:
        raise InvalidInstanceError("machine-model payload needs a 'power' section")
    sleep_data = data.get("sleep")
    levels_data = data.get("levels")
    try:
        sleep = None
        if sleep_data is not None:
            if not isinstance(sleep_data, dict):
                raise InvalidInstanceError(
                    "machine-model 'sleep' must be an object or null"
                )
            sleep = SleepState(
                name=str(sleep_data.get("name", "sleep")),
                power=float(sleep_data.get("power", 0.0)),
                wake_latency=float(sleep_data.get("wake_latency", 0.0)),
                transition_energy=float(sleep_data.get("transition_energy", 0.0)),
            )
        return MachineModel(
            name=str(data.get("name", "machine")),
            power=power_from_dict(data["power"]),
            static_power=float(data.get("static_power", 0.0)),
            sleep=sleep,
            levels=None if levels_data is None else speed_levels_from_dict(levels_data),
            quantization=str(data.get("quantization", "two-level")),
        )
    except ReproError:
        raise  # keep specific errors (bad power, bad levels) and their codes
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"malformed machine-model payload: {exc!r}") from exc


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------

def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """JSON-ready representation of a schedule (instance + power + pieces)."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "schedule",
        "instance": instance_to_dict(schedule.instance),
        "power": power_to_dict(schedule.power),
        "n_processors": schedule.n_processors,
        "pieces": [
            {
                "job": piece.job,
                "processor": piece.processor,
                "start": piece.start,
                "end": piece.end,
                "speed": piece.speed,
            }
            for piece in schedule.pieces
        ],
        "summary": {
            "makespan": schedule.makespan,
            "total_flow": schedule.total_flow,
            "energy": schedule.energy,
        },
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output."""
    if data.get("kind") != "schedule":
        raise InvalidScheduleError(f"not a schedule payload: kind={data.get('kind')!r}")
    instance = instance_from_dict(data["instance"])
    power = power_from_dict(data["power"])
    pieces = [
        Piece(
            job=int(row["job"]),
            processor=int(row["processor"]),
            start=float(row["start"]),
            end=float(row["end"]),
            speed=float(row["speed"]),
        )
        for row in data.get("pieces", [])
    ]
    return Schedule(instance, power, pieces, n_processors=int(data.get("n_processors", 1)))


def save_schedule(schedule: Schedule, path: str | Path) -> Path:
    """Write a schedule to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(schedule_to_dict(schedule), indent=2), encoding="utf-8")
    return path


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule from a JSON file produced by :func:`save_schedule`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return schedule_from_dict(data)


# ----------------------------------------------------------------------
# typed request/response envelopes (repro.api)
# ----------------------------------------------------------------------

def spec_to_dict(spec: ProblemSpec) -> dict[str, Any]:
    """JSON-ready representation of a :class:`~repro.api.ProblemSpec`."""
    return {
        "objective": spec.objective,
        "mode": spec.mode,
        "machine": spec.machine,
        "online": spec.online,
    }


def spec_from_dict(data: dict[str, Any]) -> ProblemSpec:
    """Rebuild a :class:`~repro.api.ProblemSpec` from :func:`spec_to_dict` output."""
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"not a problem-spec payload: expected a JSON object, got {type(data).__name__}"
        )
    try:
        return ProblemSpec(
            objective=str(data["objective"]),
            mode=str(data["mode"]),
            machine=str(data.get("machine", "uni")),
            online=bool(data.get("online", False)),
        )
    except KeyError as exc:
        raise InvalidInstanceError(f"problem-spec payload is missing {exc}") from exc


def request_to_dict(request: SolveRequest) -> dict[str, Any]:
    """JSON-ready representation of a :class:`~repro.api.SolveRequest`.

    The SLA fields (``accuracy``, ``latency_budget_ms``) are emitted only
    when set, so legacy envelopes — and the golden transcripts pinning them —
    stay byte-identical.
    """
    payload = {
        "format": _FORMAT_VERSION,
        "kind": "solve-request",
        "solver": request.solver,
        "spec": None if request.spec is None else spec_to_dict(request.spec),
        "instance": instance_to_dict(request.instance),
        "power": power_to_dict(request.power),
        "budget": request.budget,
        "processors": request.processors,
        "options": dict(request.options),
    }
    if request.accuracy is not None:
        payload["accuracy"] = request.accuracy
    if request.latency_budget_ms is not None:
        payload["latency_budget_ms"] = request.latency_budget_ms
    return payload


def request_from_dict(data: dict[str, Any]) -> SolveRequest:
    """Rebuild a :class:`~repro.api.SolveRequest` from :func:`request_to_dict` output."""
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"not a solve-request payload: expected a JSON object, got {type(data).__name__}"
        )
    if data.get("kind") != "solve-request":
        raise InvalidInstanceError(
            f"not a solve-request payload: kind={data.get('kind')!r}"
        )
    if "instance" not in data or "power" not in data:
        raise InvalidInstanceError(
            "solve-request payload needs 'instance' and 'power' sections"
        )
    spec = data.get("spec")
    budget = data.get("budget")
    options = data.get("options") or {}
    if not isinstance(options, dict):
        raise InvalidInstanceError("solve-request 'options' must be a JSON object")
    accuracy = data.get("accuracy")
    latency_budget_ms = data.get("latency_budget_ms")
    try:
        budget = None if budget is None else float(budget)
        processors = int(data.get("processors", 1))
        accuracy = None if accuracy is None else float(accuracy)
        latency_budget_ms = (
            None if latency_budget_ms is None else float(latency_budget_ms)
        )
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(
            f"malformed solve-request payload: {exc}"
        ) from exc
    return SolveRequest(
        instance=instance_from_dict(data["instance"]),
        power=power_from_dict(data["power"]),
        solver=None if data.get("solver") is None else str(data["solver"]),
        spec=None if spec is None else spec_from_dict(spec),
        budget=budget,
        processors=processors,
        options=options,
        accuracy=accuracy,
        latency_budget_ms=latency_budget_ms,
    )


def _speeds_to_list(speeds: Any) -> list[float] | None:
    """The one ndarray->JSON encoding used by every result envelope."""
    if speeds is None:
        return None
    return [float(s) for s in speeds]


def result_to_dict(result: SolveResult) -> dict[str, Any]:
    """JSON-ready representation of a :class:`~repro.api.SolveResult`.

    ``approximation`` is emitted only when present (approximate solvers), so
    exact-solver envelopes — and the goldens pinning them — are unchanged.
    """
    payload = {
        "format": _FORMAT_VERSION,
        "kind": "solve-result",
        "solver": result.solver,
        "status": result.status,
        "value": result.value,
        "energy": result.energy,
        "speeds": _speeds_to_list(result.speeds),
        "extras": dict(result.extras),
        "error": None
        if result.ok
        else {"code": result.error_code, "message": result.error_message},
    }
    if result.approximation is not None:
        payload["approximation"] = dict(result.approximation)
    return payload


def result_from_dict(data: dict[str, Any]) -> SolveResult:
    """Rebuild a :class:`~repro.api.SolveResult` from :func:`result_to_dict` output."""
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"not a solve-result payload: expected a JSON object, got {type(data).__name__}"
        )
    if data.get("kind") != "solve-result":
        raise InvalidInstanceError(
            f"not a solve-result payload: kind={data.get('kind')!r}"
        )
    error = data.get("error") or {}
    value = data.get("value")
    energy = data.get("energy")
    return SolveResult(
        solver=str(data.get("solver")),
        status=str(data.get("status", "ok")),
        value=None if value is None else float(value),
        energy=None if energy is None else float(energy),
        speeds=data.get("speeds"),
        extras=data.get("extras") or {},
        error_code=error.get("code"),
        error_message=error.get("message"),
        approximation=data.get("approximation"),
    )


def report_to_dict(report: VerificationReport) -> dict[str, Any]:
    """JSON-ready representation of a :class:`~repro.verify.VerificationReport`."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "verification-report",
        "solver": report.solver,
        "status": report.status,
        "checks": list(report.checks),
        "findings": [
            {
                "code": f.code,
                "check": f.check,
                "severity": f.severity,
                "message": f.message,
                "data": dict(f.data),
            }
            for f in report.findings
        ],
    }


def report_from_dict(data: dict[str, Any]) -> VerificationReport:
    """Rebuild a :class:`~repro.verify.VerificationReport` from :func:`report_to_dict` output."""
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"not a verification-report payload: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    if data.get("kind") != "verification-report":
        raise InvalidInstanceError(
            f"not a verification-report payload: kind={data.get('kind')!r}"
        )
    rows = data.get("findings") or []
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise InvalidInstanceError(
            "verification-report 'findings' must be a list of objects"
        )
    for i, row in enumerate(rows):
        if not row.get("code") or not row.get("check"):
            raise InvalidInstanceError(
                f"malformed finding row {i}: needs non-empty 'code' and 'check'"
            )
    findings = tuple(
        Finding(
            code=str(row["code"]),
            check=str(row["check"]),
            message=str(row.get("message", "")),
            severity=str(row.get("severity", "error")),
            data=row.get("data") or {},
        )
        for row in rows
    )
    return VerificationReport(
        solver=str(data.get("solver")),
        checks=tuple(str(c) for c in data.get("checks") or ()),
        findings=findings,
    )


def capabilities_to_dict(capabilities: SolverCapabilities) -> dict[str, Any]:
    """Flat JSON-ready view of one solver's registry metadata.

    Drives ``repro solve --list``; flattened (spec fields inline) so the
    listing is grep- and spreadsheet-friendly.
    """
    return {
        "name": capabilities.name,
        "objective": capabilities.objective,
        "mode": capabilities.mode,
        "machine": capabilities.spec.machine,
        "online": capabilities.online,
        "batchable": capabilities.batchable,
        "batch_kernel": capabilities.batch_kernel,
        "budget": capabilities.budget_kind,
        "needs_polynomial_power": capabilities.needs_polynomial_power,
        "needs_deadlines": capabilities.needs_deadlines,
        "needs_equal_work": capabilities.needs_equal_work,
        "needs_zero_release": capabilities.needs_zero_release,
        "certificates": list(capabilities.certificates),
        "variant_of": capabilities.variant_of,
        "approximate": capabilities.approximate,
        "bound_kind": capabilities.bound_kind,
        "min_accuracy": capabilities.min_accuracy,
        "summary": capabilities.summary,
    }


def batch_result_to_dict(result: "BatchResult", name: str) -> dict[str, Any]:
    """JSON-ready row for one :class:`~repro.batch.BatchResult`.

    ``name`` is the instance's display name (the batch engine stores only the
    index).  Key order matches the historical ``repro batch --json`` output,
    so routing the CLI through this helper is byte-identical.  A failed row
    (``result.ok`` false, e.g. a ``worker-timeout`` chunk) serialises its NaN
    value/energy as ``null`` — strict JSON has no NaN — and appends an
    ``"error"`` object with the stable code; successful rows are unchanged.
    """
    row: dict[str, Any] = {
        "index": result.index,
        "name": name,
        "n_jobs": result.n_jobs,
        "value": result.value,
        "energy": result.energy,
        "speeds": _speeds_to_list(result.speeds),
    }
    if not result.ok:
        row["value"] = None
        row["energy"] = None
        row["error"] = {"code": result.error_code, "message": result.error_message}
    return row


def batch_result_from_dict(data: dict[str, Any], solver: str) -> "BatchResult":
    """Rebuild a :class:`~repro.batch.BatchResult` from :func:`batch_result_to_dict` output.

    ``solver`` is supplied by the caller (the row format stores the display
    name, not the solver; batch captures and run journals record the solver
    once at the top level).  Floats round-trip through JSON repr exactly, so
    the rebuilt result is byte-identical to the one that was serialised —
    the property the resumable batch journal relies on.
    """
    from .batch import BatchResult  # runtime import: io must stay import-light

    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"not a batch-result row: expected a JSON object, got {type(data).__name__}"
        )
    try:
        error = data.get("error") or {}
        value = data["value"]
        energy = data["energy"]
        speeds = data["speeds"] or ()
        return BatchResult(
            index=int(data["index"]),
            solver=str(solver),
            n_jobs=int(data["n_jobs"]),
            value=float("nan") if value is None else float(value),
            energy=float("nan") if energy is None else float(energy),
            speeds=np.asarray([float(s) for s in speeds], dtype=float),
            error_code=error.get("code"),
            error_message=error.get("message"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"malformed batch-result row: {exc!r}") from exc


def serve_response_to_dict(
    result: SolveResult,
    request_id: Any = None,
    serve: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """JSON-ready ``serve-response`` envelope (one ``repro serve`` output line).

    Key order — ``kind``, ``id``, ``result``, ``serve`` — matches the
    historical serve loop output, so routing the service through this helper
    keeps transcripts byte-identical.  ``serve`` is the per-request serving
    metadata (cache state, latency, verification); it is shallow-copied.
    """
    return {
        "kind": "serve-response",
        "id": request_id,
        "result": result_to_dict(result),
        "serve": dict(serve or {}),
    }


def serve_response_from_dict(data: dict[str, Any]) -> tuple[Any, SolveResult, dict[str, Any]]:
    """Parse a ``serve-response`` envelope into ``(id, result, serve_meta)``.

    The client-side half of :func:`serve_response_to_dict` — used by
    ``tools/loadgen.py`` and the chaos/bench harnesses to read responses
    without hand-rolled key access.
    """
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"not a serve-response payload: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    if data.get("kind") != "serve-response":
        raise InvalidInstanceError(
            f"not a serve-response payload: kind={data.get('kind')!r}"
        )
    serve = data.get("serve")
    if serve is None:
        serve = {}
    if not isinstance(serve, dict):
        raise InvalidInstanceError("serve-response 'serve' must be an object")
    return data.get("id"), result_from_dict(data.get("result")), dict(serve)
