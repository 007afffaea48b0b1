"""Command-line interface.

Exposes the library's main entry points without writing any Python:

* ``repro solve``    -- the generic registry-driven entry point: run any
  registered solver on one instance (``--solver`` / ``--objective``+``--mode``
  / a full ``--request`` JSON envelope), or enumerate the solver matrix with
  ``--list``,
* ``repro laptop``   -- minimum makespan for an energy budget (IncMerge),
* ``repro server``   -- minimum energy for a makespan target,
* ``repro frontier`` -- sample the non-dominated energy/makespan curve,
* ``repro flow``     -- minimum total flow for an energy budget (equal work),
* ``repro multi``    -- equal-work multiprocessor makespan/flow,
* ``repro verify``   -- certificate-check solve results: feed back the JSON
  envelopes of ``repro solve`` (``--request``/``--result``) or a
  ``repro batch --json`` capture (``--instances``/``--results``); exits 1
  with structured findings when verification fails,
* ``repro batch``    -- solve many instances at once (optionally in parallel,
  with a content-addressed result cache via ``--cache-dir`` and resumable
  runs via ``--run-dir``),
* ``repro compete``  -- online-vs-YDS competitive-ratio sweep over workload
  grids (through the batch engine), with machine-readable JSON output,
* ``repro serve``    -- long-running JSON-lines request loop (stdin/stdout or
  a TCP socket): solve-request envelopes in, result envelopes plus
  cache/latency metadata out (see :mod:`repro.service`),
* ``repro figures``  -- regenerate the paper's Figure 1-3 series as a table.

Every subcommand dispatches through the central solver registry
(:data:`repro.api.REGISTRY`); the per-problem subcommands are thin shims over
it that keep their historical (byte-identical) output formats.

Instances are given either inline (``--releases 0,5,6 --works 5,2,1``) or as
a JSON file produced by :mod:`repro.io` (``--instance jobs.json``).  Output is
a plain-text table on stdout; ``--json`` switches to machine-readable JSON.

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .analysis import format_table
from .api import REGISTRY, ProblemSpec, SolveRequest, SolveResult, list_solvers
from .api import solve as api_solve
from .api import verify as api_verify
from .core import Instance, PolynomialPower
from .exceptions import ReproError, VerificationError
from .io import (
    batch_result_to_dict,
    capabilities_to_dict,
    load_instance,
    load_instances,
    machine_model_from_dict,
    report_to_dict,
    request_from_dict,
    result_from_dict,
    result_to_dict,
)
from .makespan import makespan_frontier
from .workloads import FIGURE1_ENERGY_RANGE, figure1_instance, figure1_power

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import ResultCache

# The batch engine, the cache, the simulator, the competitive sweep and the
# serve loop (with asyncio, sqlite3 and multiprocessing behind them) are
# imported by the subcommands that use them, and the parsers of ``compete``,
# ``sim`` and ``serve`` are declared on first use, so the other subcommands
# load none of that machinery.

__all__ = ["main", "build_parser"]


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _load_checked(loader, path):
    """Run an instance-file loader, turning I/O and JSON problems into CLI errors.

    Scoped to the file-loading call sites: an ``OSError`` raised elsewhere
    (e.g. a broken stdout pipe) is a runtime condition, not a malformed-input
    error, and must not be rebranded as exit code 2.
    """
    try:
        return loader(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(str(exc)) from exc


def _instance_from_args(args: argparse.Namespace) -> Instance:
    if getattr(args, "instance", None):
        return _load_checked(load_instance, args.instance)
    if not getattr(args, "releases", None) or not getattr(args, "works", None):
        raise ReproError(
            "provide either --instance FILE.json or both --releases and --works"
        )
    return Instance.from_arrays(
        _parse_floats(args.releases), _parse_floats(args.works), name="cli-instance"
    )


def _power_from_args(args: argparse.Namespace) -> PolynomialPower:
    return PolynomialPower(float(args.alpha))


def _emit(args: argparse.Namespace, headers: Sequence[str], rows, title: str, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(format_table(headers, rows, title=title))


# ----------------------------------------------------------------------
# sub-commands
# ----------------------------------------------------------------------

def _cmd_solve_list(args: argparse.Namespace) -> int:
    solvers = [capabilities_to_dict(caps) for caps in list_solvers()]
    rows = [
        [s["name"], s["objective"], s["mode"], s["machine"],
         "yes" if s["online"] else "no", "yes" if s["batchable"] else "no",
         s["budget"]]
        for s in solvers
    ]
    payload = {"kind": "solver-list", "solvers": solvers}
    _emit(args, ["name", "objective", "mode", "machine", "online", "batchable", "budget"],
          rows, f"{len(solvers)} registered solvers", payload)
    return 0


def _solve_request_from_args(args: argparse.Namespace) -> SolveRequest:
    if args.request:
        data = _load_checked(
            lambda path: json.loads(Path(path).read_text(encoding="utf-8")),
            args.request,
        )
        return request_from_dict(data)
    spec = None
    if args.solver is None:
        if not args.objective or not args.mode:
            raise ReproError(
                "provide --list, --solver NAME, --objective OBJ --mode MODE, "
                "or --request FILE.json"
            )
        spec = ProblemSpec(
            objective=args.objective, mode=args.mode,
            machine=args.machine, online=args.online,
        )
    options: dict = {}
    if args.options:
        try:
            options = json.loads(args.options)
        except json.JSONDecodeError as exc:
            raise ReproError(f"--options must be a JSON object: {exc}") from exc
        if not isinstance(options, dict):
            raise ReproError("--options must be a JSON object")
    return SolveRequest(
        instance=_instance_from_args(args),
        power=_power_from_args(args),
        solver=args.solver,
        spec=spec,
        budget=args.budget,
        processors=args.processors,
        options=options,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    """Generic registry entry point: one request in, one result envelope out."""
    if args.list:
        return _cmd_solve_list(args)
    result = api_solve(_solve_request_from_args(args))
    if not result.ok:
        if getattr(args, "json", False):
            print(json.dumps(result_to_dict(result), indent=2))
        else:
            print(f"error [{result.error_code}]: {result.error_message}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(json.dumps(result_to_dict(result), indent=2))
        return 0
    title = f"solver {result.solver!r}"
    if result.value is not None:
        title += f": value {result.value:.6g}"
    if result.energy is not None:
        title += f", energy {result.energy:.6g}"
    if result.speeds is not None:
        rows = [[i, float(s)] for i, s in enumerate(result.speeds)]
        print(format_table(["job", "speed"], rows, title=title))
    else:
        rows = [[key, json.dumps(value)] for key, value in result.extras.items()]
        print(format_table(["extra", "value"], rows, title=title))
    return 0


def _run_registry(args: argparse.Namespace, solver: str, budget: float | None,
                  processors: int = 1, options: dict | None = None):
    """Shim helper: build a request for ``solver`` and run it, raising on error."""
    return REGISTRY.run(
        SolveRequest(
            instance=_instance_from_args(args),
            power=_power_from_args(args),
            solver=solver,
            budget=budget,
            processors=processors,
            options=options or {},
        )
    )


def _cmd_laptop(args: argparse.Namespace) -> int:
    result = _run_registry(args, "laptop", args.energy)
    blocks = result.extras["blocks"]
    rows = [
        [f"jobs {b['first']}..{b['last']}", b["start"], b["end"], b["speed"]]
        for b in blocks
    ]
    payload = {
        "makespan": result.value,
        "energy": result.energy,
        "speeds": result.speeds.tolist(),
        "blocks": [
            {"first": b["first"], "last": b["last"], "start": b["start"], "speed": b["speed"]}
            for b in blocks
        ],
    }
    _emit(args, ["block", "start", "end", "speed"], rows,
          f"optimal makespan {result.value:.6g} for energy {args.energy:g}", payload)
    return 0


def _cmd_server(args: argparse.Namespace) -> int:
    result = _run_registry(args, "server", args.makespan)
    energy = result.value
    payload = {"makespan_target": args.makespan, "minimum_energy": energy}
    _emit(args, ["makespan_target", "minimum_energy"], [[args.makespan, energy]],
          "server problem", payload)
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    result = _run_registry(
        args, "frontier", None,
        options={
            "min_energy": args.min_energy,
            "max_energy": args.max_energy,
            "points": args.points,
        },
    )
    breakpoints = result.extras["breakpoints"]
    samples = result.extras["samples"]
    rows = [[s["energy"], s["makespan"]] for s in samples]
    payload = {"breakpoints": breakpoints, "samples": samples}
    _emit(args, ["energy", "optimal_makespan"], rows,
          f"non-dominated frontier (configuration changes at {breakpoints})", payload)
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    result = _run_registry(args, "flow", args.energy)
    completions = result.extras["completions"]
    rows = [[i, float(s), float(c)] for i, (s, c) in enumerate(zip(result.speeds, completions))]
    payload = {
        "flow": result.value,
        "energy": result.energy,
        "exact_closed_form": result.extras["exact_closed_form"],
        "speeds": result.speeds.tolist(),
        "completions": completions,
    }
    _emit(args, ["job", "speed", "completion"], rows,
          f"optimal total flow {result.value:.6g} for energy {args.energy:g}", payload)
    return 0


def _cmd_multi(args: argparse.Namespace) -> int:
    solver = "multi-makespan" if args.metric == "makespan" else "multi-flow"
    result = _run_registry(args, solver, args.energy, processors=args.processors)
    assignment = result.extras["assignment"]
    rows = [
        [int(proc), ",".join(str(j) for j in jobs)]
        for proc, jobs in sorted(assignment.items(), key=lambda kv: int(kv[0]))
    ]
    payload = {
        "metric": args.metric,
        "value": result.value,
        "energy": result.energy,
        "assignment": assignment,
    }
    _emit(args, ["processor", "jobs"], rows,
          f"optimal {args.metric} {result.value:.6g} on {args.processors} processors "
          f"(energy {args.energy:g})", payload)
    return 0


def _load_json(path: str) -> dict:
    return _load_checked(
        lambda p: json.loads(Path(p).read_text(encoding="utf-8")), path
    )


def _report_rows(report) -> list[list]:
    return [
        [f.check, f.code, f.severity, f.message] for f in report.findings
    ]


def _cmd_verify(args: argparse.Namespace) -> int:
    """Certificate-check solve results from their JSON envelopes."""
    if args.results:
        return _cmd_verify_batch(args)
    if not args.request or not args.result:
        raise ReproError(
            "provide --request REQ.json --result RES.json (repro solve "
            "envelopes), or --instances FILE --results BATCH.json for a "
            "repro batch capture"
        )
    request = request_from_dict(_load_json(args.request))
    result = result_from_dict(_load_json(args.result))
    report = api_verify(request, result)
    payload = report_to_dict(report)
    _emit(args, ["check", "code", "severity", "message"], _report_rows(report),
          f"verification {report.status.upper()}: solver {report.solver!r} "
          f"({len(report.checks)} checks, {len(report.findings)} finding(s))",
          payload)
    return 0 if report.ok else 1


def _cmd_verify_batch(args: argparse.Namespace) -> int:
    """Verify every row of a ``repro batch --json`` capture."""
    if not args.instances:
        raise ReproError("--results needs --instances (the batch's input file)")
    instances = _load_checked(load_instances, args.instances)
    data = _load_json(args.results)
    rows = data.get("results") if isinstance(data, dict) else None
    if not isinstance(rows, list):
        raise ReproError(
            f"{args.results} is not a repro batch --json capture "
            "(missing its 'results' list)"
        )
    # solve parameters come from the capture itself (repro batch --json
    # records solver/alpha/budgets); explicit flags override
    solver = args.solver or data.get("solver")
    if not solver:
        raise ReproError("the capture names no solver; pass --solver NAME")
    alpha = args.alpha if args.alpha is not None else data.get("alpha", 3.0)
    try:
        power = PolynomialPower(float(alpha))
    except (TypeError, ValueError) as exc:
        raise ReproError(f"malformed alpha {alpha!r}: {exc}") from exc
    if args.energy:
        budgets = _parse_floats(args.energy)
    elif isinstance(data.get("budgets"), list):
        budgets = [None if b is None else float(b) for b in data["budgets"]]
    else:
        budgets = [None] * len(rows)
    if len(budgets) == 1:
        budgets = budgets * len(rows)
    if len(budgets) != len(rows):
        raise ReproError(
            f"got {len(budgets)} budgets for {len(rows)} results; pass one "
            "value or one per result"
        )
    reports = []
    table_rows = []
    for row, budget in zip(rows, budgets):
        try:
            index = int(row["index"])
            if not 0 <= index < len(instances):
                raise ReproError(
                    f"result row index {index} outside the instance batch "
                    f"(0..{len(instances) - 1})"
                )
            instance = instances[index]
            value = None if row.get("value") is None else float(row["value"])
            energy = None if row.get("energy") is None else float(row["energy"])
            speeds = row.get("speeds")
            if speeds is not None:
                speeds = [float(s) for s in speeds]
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed batch result row: {exc!r}") from exc
        request = SolveRequest(
            instance=instance, power=power, solver=solver, budget=budget
        )
        result = SolveResult(
            solver=solver,
            status="ok",
            value=value,
            energy=energy,
            speeds=speeds,
        )
        report = api_verify(request, result)
        reports.append(report)
        table_rows.extend(
            [index, *r] for r in _report_rows(report)
        )
    failed = [r for r in reports if not r.ok]
    payload = {
        "kind": "verification-batch",
        "solver": solver,
        "passed": len(reports) - len(failed),
        "failed": len(failed),
        "reports": [report_to_dict(r) for r in reports],
    }
    _emit(args, ["index", "check", "code", "severity", "message"], table_rows,
          f"verification of {len(reports)} batch result(s) via {solver!r}: "
          f"{len(reports) - len(failed)} passed, {len(failed)} failed",
          payload)
    return 0 if not failed else 1


def _cache_from_args(args: argparse.Namespace) -> ResultCache | None:
    if not getattr(args, "cache_dir", None):
        return None
    from .cache import ResultCache

    return ResultCache(directory=args.cache_dir)


def _cmd_batch(args: argparse.Namespace) -> int:
    from .batch import solve_many

    instances = _load_checked(load_instances, args.instances)
    power = _power_from_args(args)
    budgets = _parse_floats(args.energy)
    if len(budgets) == 1:
        budgets = budgets * len(instances)
    start = time.perf_counter()
    results = solve_many(
        instances,
        power,
        budgets,
        solver=args.solver,
        workers=args.workers,
        verify=args.verify,
        cache=_cache_from_args(args),
        run_dir=args.run_dir,
        chunk_timeout=args.chunk_timeout,
        batch_kernel=args.batch_kernel,
    )
    elapsed = time.perf_counter() - start
    throughput = len(results) / elapsed if elapsed > 0 else float("inf")
    rows = [
        [r.index, instances[r.index].name, r.n_jobs, r.value, r.energy]
        for r in results
    ]
    payload = {
        "solver": args.solver,
        "alpha": args.alpha,
        "budgets": budgets,
        "workers": args.workers,
        "elapsed_seconds": elapsed,
        "instances_per_second": throughput,
        "results": [
            batch_result_to_dict(r, name=instances[r.index].name) for r in results
        ],
    }
    _emit(args, ["index", "instance", "n_jobs", "value", "energy"], rows,
          f"batch of {len(results)} instances via {args.solver!r} "
          f"({args.workers} worker(s), {elapsed:.3g}s, {throughput:.4g} instances/s)",
          payload)
    return 0


def _write_output(args: argparse.Namespace, payload: dict) -> None:
    """Canonical deterministic dump: equal grids give byte-identical files."""
    if not getattr(args, "output", None):
        return
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = Path(args.output)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot write {out}: {exc}") from exc


def _cmd_compete_matrix(args: argparse.Namespace) -> int:
    """The --machines branch: the {trace x machine x algorithm} matrix."""
    from .sim import TRACE_FAMILIES, scenario_matrix

    alphas = _parse_floats(args.alphas) if args.alphas else [3.0]
    if len(alphas) != 1:
        raise ReproError(
            "--machines replays one power exponent at a time; pass a single "
            "--alphas value"
        )
    families = (
        [f.strip() for f in args.families.split(",") if f.strip()]
        if args.families
        else list(TRACE_FAMILIES)
    )
    payload = scenario_matrix(
        algorithms=[a.strip() for a in args.algorithms.split(",") if a.strip()],
        machines=[m.strip() for m in args.machines.split(",") if m.strip()],
        families=families,
        sizes=[int(s) for s in _parse_floats(args.sizes)],
        seeds=args.seeds,
        alpha=alphas[0],
        workers=args.workers,
        cache=_cache_from_args(args),
    )
    _write_output(args, payload)
    rows = [
        [
            r["machine"],
            r["algorithm"],
            r["family"],
            r["cells"],
            r["mean_ratio"],
            r["max_ratio"],
            r["deadline_misses"],
            r["sleep_transitions"],
        ]
        for r in payload["summary"]
    ]
    _emit(
        args,
        ["machine", "algorithm", "family", "cells", "mean_ratio", "max_ratio",
         "misses", "sleeps"],
        rows,
        f"measured energy vs clairvoyant YDS over {len(payload['cells'])} "
        f"scenario cells (alpha={alphas[0]:g})",
        payload,
    )
    return 0


def _cmd_compete(args: argparse.Namespace) -> int:
    if args.machines:
        return _cmd_compete_matrix(args)
    from .online.compete import FAMILIES, competitive_sweep

    payload = competitive_sweep(
        algorithms=[a.strip() for a in args.algorithms.split(",") if a.strip()],
        alphas=_parse_floats(args.alphas) if args.alphas else [2.0, 3.0],
        families=(
            [f.strip() for f in args.families.split(",") if f.strip()]
            if args.families
            else list(FAMILIES)
        ),
        sizes=[int(s) for s in _parse_floats(args.sizes)],
        seeds=args.seeds,
        workers=args.workers,
        cache=_cache_from_args(args),
        stride=args.stride,
    )
    _write_output(args, payload)
    rows = [
        [
            r["algorithm"],
            r["alpha"],
            r["family"],
            r["cells"],
            r["mean_ratio"],
            r["max_ratio"],
            r["bound"],
        ]
        for r in payload["summary"]
    ]
    _emit(
        args,
        ["algorithm", "alpha", "family", "cells", "mean_ratio", "max_ratio", "bound"],
        rows,
        f"empirical energy ratios vs YDS over {len(payload['cells'])} grid cells",
        payload,
    )
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    """Replay one trace through the online policies on a machine model."""
    from .sim import (
        TRACE_FAMILIES,
        generate_trace,
        load_trace,
        machine_model,
        save_trace,
        sim_report_to_dict,
        simulate,
    )

    if args.trace:
        trace = load_trace(args.trace)
    elif args.family:
        trace = generate_trace(args.family, args.size, args.seed)
    else:
        raise ReproError(
            "provide --trace FILE (.csv/.jsonl) or --family NAME "
            f"(known: {', '.join(TRACE_FAMILIES)})"
        )
    if args.save_trace:
        save_trace(trace, args.save_trace)
    if args.machine.endswith(".json"):
        machine = machine_model_from_dict(_load_json(args.machine))
    else:
        machine = machine_model(args.machine, alpha=args.alpha)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ReproError("provide at least one algorithm via --algorithms")
    reports = []
    bound = None  # the clairvoyant YDS bound is trace-level: compute it once
    for algorithm in algorithms:
        result = simulate(trace, machine, algorithm, yds_bound=bound)
        bound = result.report.yds_bound
        reports.append(result.report)
    payload = {
        "kind": "sim",
        "parameters": {
            "trace": trace.name,
            "events": trace.n_events,
            "machine": machine.name,
            "alpha": args.alpha,
            "algorithms": algorithms,
        },
        "reports": [sim_report_to_dict(r) for r in reports],
    }
    _write_output(args, payload)
    rows = [
        [
            r.algorithm,
            r.energy,
            r.yds_bound,
            r.energy_ratio,
            r.deadline_misses,
            r.speed_switches,
            r.sleep_transitions,
            r.clamped_segments,
            r.n_events,
        ]
        for r in reports
    ]
    _emit(
        args,
        ["algorithm", "energy", "yds_bound", "ratio", "misses", "switches",
         "sleeps", "clamped", "events"],
        rows,
        f"replay of {trace.name!r} ({trace.n_events} events) on "
        f"{machine.describe()}",
        payload,
    )
    return 0


def _parse_tcp_address(text: str) -> tuple[str, int]:
    """``PORT`` or ``HOST:PORT`` -> (host, port); malformed input is a CLI error."""
    host, _, port = text.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError as exc:
        raise ReproError(
            f"malformed --tcp address {text!r}: expected PORT or HOST:PORT"
        ) from exc


def _serve_cache(args: argparse.Namespace) -> ResultCache | None:
    """The serve loop's cache per ``--cache-backend`` / ``--cache-dir``."""
    from .cache import ResultCache
    from .cache_store import open_store

    if args.no_cache:
        return None
    backend = args.cache_backend
    if backend == "auto":
        # historical semantics: sharded JSON when a directory was given,
        # otherwise the pure in-process LRU front
        backend = "disk-json" if args.cache_dir else None
    if backend is None or backend == "memory":
        # the LRU front already is the memory tier; a MemoryStore behind it
        # would only duplicate entries without adding persistence
        return ResultCache(max_memory_entries=args.memory_cache)
    if not args.cache_dir:
        raise ReproError(
            f"--cache-backend {backend} needs --cache-dir to know where "
            "the store lives"
        )
    store = open_store(backend, args.cache_dir)
    return ResultCache(store=store, max_memory_entries=args.memory_cache)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Long-running JSON-lines request loop (stdin/stdout or TCP)."""
    import asyncio
    import threading

    from .faults import FaultPlan
    from .service import AsyncServeLoop

    cache = _serve_cache(args)
    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = FaultPlan.from_file(args.fault_plan)
    loop = AsyncServeLoop(
        cache=cache,
        verify=args.verify,
        timing=not args.no_timing,
        default_deadline_ms=args.deadline_ms,
        max_pending=args.max_pending,
        solve_threads=args.solve_threads,
        fault_plan=fault_plan,
        routing=args.routing,
    )
    if args.tcp is not None:
        host, port = _parse_tcp_address(args.tcp)

        class _Announce(threading.Event):
            """Print the bound address the moment the listener is up."""

            def set(self) -> None:
                bound_host, bound_port = loop.address
                print(f"serve: listening on {bound_host}:{bound_port}",
                      file=sys.stderr)
                sys.stderr.flush()
                super().set()

        try:
            asyncio.run(loop.serve_tcp(host, port, ready=_Announce()))
        except KeyboardInterrupt:
            pass  # SIGINT before the drain handler took over
    else:
        try:
            asyncio.run(loop.run_stream(sys.stdin, sys.stdout))
        except KeyboardInterrupt:
            pass  # SIGINT mid-loop: finish cleanly, stats already tallied
    print(f"serve: {loop.stats.summary()}", file=sys.stderr)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    curve = makespan_frontier(figure1_instance(), figure1_power())
    lo, hi = FIGURE1_ENERGY_RANGE
    grid = np.linspace(lo, hi, args.points)
    rows = [
        [float(e), curve.value(float(e)), curve.derivative(float(e)), curve.second_derivative(float(e))]
        for e in grid
    ]
    payload = {
        "breakpoints": curve.breakpoints,
        "samples": [
            {"energy": r[0], "makespan": r[1], "first_derivative": r[2], "second_derivative": r[3]}
            for r in rows
        ],
    }
    _emit(args, ["energy", "makespan", "1st_derivative", "2nd_derivative"], rows,
          "paper Figures 1-3 data (instance r=(0,5,6), w=(5,2,1), power=speed^3)", payload)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _LazyParser(argparse.ArgumentParser):
    """A subcommand parser whose arguments may be declared on first use.

    ``declare(parser)`` runs once, just before the parser first parses, so a
    subcommand whose options name the simulator's or the serve loop's
    constants imports them only when it is the one being run.
    """

    def __init__(self, *args, declare=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._declare = declare

    def parse_known_args(self, args=None, namespace=None):
        if self._declare is not None:
            declare, self._declare = self._declare, None
            declare(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power-aware speed-scaling scheduling (Bunde, SPAA 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_LazyParser)

    def add_common(p: argparse.ArgumentParser, need_energy: bool = False) -> None:
        p.add_argument("--instance", help="path to a JSON instance file (see repro.io)")
        p.add_argument("--releases", help="comma-separated release times, e.g. 0,5,6")
        p.add_argument("--works", help="comma-separated work amounts, e.g. 5,2,1")
        p.add_argument("--alpha", type=float, default=3.0, help="power = speed^alpha (default 3)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
        if need_energy:
            p.add_argument("--energy", type=float, required=True, help="energy budget")

    p = sub.add_parser(
        "solve",
        help="run any registered solver (or --list the solver matrix)",
        description="Generic registry-driven entry point: pick a solver by "
                    "name, by (objective, mode) cell, or submit a full "
                    "solve-request JSON envelope (see repro.io.request_to_dict). "
                    "Output is the uniform result envelope; errors come back "
                    "as structured envelopes with stable codes.",
    )
    add_common(p)
    p.add_argument("--list", action="store_true",
                   help="list every registered solver with its capabilities")
    p.add_argument("--solver", help="registered solver name (see --list)")
    p.add_argument("--objective", help="resolve the solver by matrix cell: objective")
    p.add_argument("--mode", help="resolve the solver by matrix cell: mode")
    p.add_argument("--machine", choices=["uni", "multi"], default="uni",
                   help="resolve the solver by matrix cell: machine model")
    p.add_argument("--online", action="store_true",
                   help="resolve the solver by matrix cell: online arrivals")
    p.add_argument("--budget", type=float,
                   help="energy budget (laptop-mode) or metric target (server-mode)")
    p.add_argument("--processors", type=int, default=1,
                   help="processor count for multiprocessor solvers")
    p.add_argument("--options",
                   help="solver-specific options as a JSON object, e.g. "
                        '\'{"min_energy": 6, "max_energy": 21}\'')
    p.add_argument("--request",
                   help="path to a solve-request JSON envelope (overrides the "
                        "other selection flags)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("laptop", help="minimum makespan for an energy budget (IncMerge)")
    add_common(p, need_energy=True)
    p.set_defaults(func=_cmd_laptop)

    p = sub.add_parser("server", help="minimum energy for a makespan target")
    add_common(p)
    p.add_argument("--makespan", type=float, required=True, help="makespan target")
    p.set_defaults(func=_cmd_server)

    p = sub.add_parser("frontier", help="sample the non-dominated energy/makespan curve")
    add_common(p)
    p.add_argument("--min-energy", type=float, required=True)
    p.add_argument("--max-energy", type=float, required=True)
    p.add_argument("--points", type=int, default=25)
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("flow", help="minimum total flow for an energy budget (equal-work jobs)")
    add_common(p, need_energy=True)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("multi", help="equal-work multiprocessor makespan or flow")
    add_common(p, need_energy=True)
    p.add_argument("--processors", type=int, required=True)
    p.add_argument("--metric", choices=["makespan", "flow"], default="makespan")
    p.set_defaults(func=_cmd_multi)

    p = sub.add_parser(
        "verify",
        help="certificate-check solve results from their JSON envelopes",
        description="Verify a (request, result) envelope pair produced by "
                    "repro solve --json, or every row of a repro batch --json "
                    "capture.  Runs the structural checks (feasibility, "
                    "energy/value accounting) plus the optimality certificates "
                    "the solver registered.  Exit code: 0 all checks passed, "
                    "1 verification failed (structured findings on stdout), "
                    "2 malformed input.",
    )
    p.add_argument("--request", help="path to a solve-request JSON envelope")
    p.add_argument("--result", help="path to a solve-result JSON envelope")
    p.add_argument("--instances",
                   help="batch mode: the instance-batch file the capture was solved from")
    p.add_argument("--results",
                   help="batch mode: path to a repro batch --json capture")
    p.add_argument("--solver",
                   help="batch mode: solver name (defaults to the capture's)")
    p.add_argument("--energy",
                   help="batch mode: override the budgets recorded in the "
                        "capture (one value or a comma-separated list)")
    p.add_argument("--alpha", type=float, default=None,
                   help="batch mode: override the power exponent recorded in "
                        "the capture (default: the capture's, else 3)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("batch", help="solve many instances at once (optionally in parallel)")
    p.add_argument(
        "--instances", required=True,
        help="path to a JSON instance-batch file (see repro.io.save_instances)",
    )
    p.add_argument(
        "--energy", required=True,
        help="energy budget(s): one value broadcast to all instances, or a "
             "comma-separated list with one per instance (makespan targets "
             "for --solver server)",
    )
    p.add_argument("--solver", choices=sorted(REGISTRY.find(batchable=True)), default="laptop")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1 = serial)")
    p.add_argument("--alpha", type=float, default=3.0, help="power = speed^alpha (default 3)")
    p.add_argument("--verify", action="store_true",
                   help="certificate-check every result in the worker that solved it")
    p.add_argument("--cache-dir",
                   help="content-addressed result cache directory: hits skip "
                        "the solver, misses are stored for the next run")
    p.add_argument("--run-dir",
                   help="journal completed results here; re-running with the "
                        "same inputs resumes where a killed run stopped and "
                        "reproduces the same capture byte for byte")
    p.add_argument("--chunk-timeout", type=float, default=None,
                   help="per-chunk timeout in seconds (parallel mode): a hung "
                        "worker fails its chunk with worker-timeout rows and "
                        "the pool is recycled, instead of stalling the batch")
    p.add_argument("--batch-kernel", choices=("auto", "on", "off"), default="auto",
                   help="structure-of-arrays dispatch for same-shape buckets: "
                        "auto (default) uses the solver's batched kernel when "
                        "registered, on forces it (error if the solver has "
                        "none), off keeps the per-instance reference path; "
                        "results are byte-identical either way")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "compete",
        help="online-vs-YDS competitive-ratio sweep over a workload grid",
        description="Sweep the online algorithms against the clairvoyant YDS "
                    "optimum.  Default mode replays the continuous-model "
                    "workload grid; --machines switches to the simulation "
                    "scenario matrix: every trace family is replayed through "
                    "repro.sim.simulate on each named machine model (static "
                    "power, sleep states, discrete speed ladders), and the "
                    "ratio reported is measured energy over the YDS bound.",
        declare=_compete_arguments,
    )
    p.set_defaults(func=_cmd_compete)

    p = sub.add_parser(
        "sim",
        help="replay an arrival trace on a realistic machine model",
        description="Trace-driven discrete-event simulation: replay one "
                    "arrival trace (a generated family or a .csv/.jsonl file) "
                    "through the online policies on a machine model with "
                    "static power, sleep states and discrete speed levels, "
                    "and report measured energy against the clairvoyant YDS "
                    "bound.  Exit code 2 flags malformed traces or unknown "
                    "models.",
        declare=_sim_arguments,
    )
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser(
        "serve",
        help="long-running JSON-lines solve service (stdin/stdout or TCP)",
        description="Read solve-request JSON envelopes (repro.io.request_to_dict "
                    "form, one per line) and answer each with a serve-response "
                    "line: the uniform solve-result envelope plus serving "
                    "metadata (cache hit/miss, latency).  Errors come back as "
                    "structured envelopes and the loop keeps serving; EOF or "
                    "SIGINT shuts down cleanly with a stats line on stderr.",
        declare=_serve_arguments,
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("figures", help="regenerate the paper's Figure 1-3 series")
    p.add_argument("--points", type=int, default=31)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_figures)

    return parser


def _compete_arguments(p: argparse.ArgumentParser) -> None:
    """Declare the ``compete`` options (on first use, see :class:`_LazyParser`)."""
    from .online.compete import ALGORITHMS, FAMILIES
    from .sim import MACHINE_MODEL_NAMES, TRACE_FAMILIES

    p.add_argument(
        "--algorithms", default=",".join(ALGORITHMS),
        help=f"comma-separated online algorithms (default {','.join(ALGORITHMS)})",
    )
    p.add_argument(
        "--alphas", default=None,
        help="comma-separated power exponents (power = speed^alpha; default "
             "2,3 — with --machines a single value, default 3)",
    )
    p.add_argument(
        "--families", default=None,
        help=f"comma-separated workload families (default {','.join(FAMILIES)}; "
             f"with --machines trace families, default "
             f"{','.join(sorted(TRACE_FAMILIES))})",
    )
    p.add_argument(
        "--machines", default=None,
        help="comma-separated machine-model presets (e.g. pure,static-sleep,"
             "athlon64): switch to the {trace x machine x algorithm} "
             f"simulation matrix (known: {','.join(sorted(MACHINE_MODEL_NAMES))})",
    )
    p.add_argument(
        "--sizes", default="8,12", help="comma-separated instance sizes (jobs)"
    )
    p.add_argument(
        "--seeds", type=int, default=3, help="seeds per (family, size) cell"
    )
    p.add_argument(
        "--stride", type=int, default=1,
        help="truncated sweep: keep every stride-th grid cell (default 1 = "
             "full grid); the truncation is recorded in the payload's "
             "parameters (continuous-model sweep only)",
    )
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1 = serial)")
    p.add_argument(
        "--output",
        help="write the JSON payload to this file (deterministic byte-identical reruns)",
    )
    p.add_argument("--cache-dir",
                   help="content-addressed result cache shared across sweeps: "
                        "overlapping grids pay for each cell once")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")


def _sim_arguments(p: argparse.ArgumentParser) -> None:
    """Declare the ``sim`` options (on first use, see :class:`_LazyParser`)."""
    from .sim import MACHINE_MODEL_NAMES, SIM_ALGORITHMS, TRACE_FAMILIES

    p.add_argument(
        "--trace",
        help="path to a trace file (.csv or .jsonl/.ndjson, see repro.sim)",
    )
    p.add_argument(
        "--family", choices=sorted(TRACE_FAMILIES),
        help="generate the trace from a seeded family instead of a file",
    )
    p.add_argument("--size", type=int, default=12,
                   help="jobs per generated trace (default 12)")
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed (default 0)")
    p.add_argument(
        "--save-trace", metavar="FILE",
        help="also write the replayed trace to FILE (.csv or .jsonl)",
    )
    p.add_argument(
        "--machine", default="pure",
        help="machine-model preset or a machine-model JSON file "
             f"(presets: {','.join(sorted(MACHINE_MODEL_NAMES))}; default pure)",
    )
    p.add_argument(
        "--algorithms", default=",".join(SIM_ALGORITHMS),
        help=f"comma-separated online policies (default {','.join(SIM_ALGORITHMS)})",
    )
    p.add_argument("--alpha", type=float, default=3.0,
                   help="power = speed^alpha for preset machines (default 3)")
    p.add_argument(
        "--output",
        help="write the JSON payload to this file (deterministic byte-identical reruns)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")


def _serve_arguments(p: argparse.ArgumentParser) -> None:
    """Declare the ``serve`` options (on first use, see :class:`_LazyParser`)."""
    from .cache_store import STORE_BACKENDS
    from .service import DEFAULT_MAX_PENDING, ROUTING_MODES

    p.add_argument("--tcp", metavar="[HOST:]PORT",
                   help="serve a TCP socket instead of stdin/stdout "
                        "(port 0 binds an ephemeral port, printed to stderr)")
    p.add_argument("--cache-dir",
                   help="persist the content-addressed result cache here "
                        "(default: in-memory only)")
    p.add_argument("--cache-backend",
                   choices=("auto",) + STORE_BACKENDS, default="auto",
                   help="cache store behind the LRU front: auto (default) "
                        "keeps the historical behaviour (disk-json when "
                        "--cache-dir is given, memory-only otherwise); "
                        "sqlite stores entries in one WAL-mode database "
                        "under --cache-dir, safe to share between serve "
                        "processes")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache entirely")
    p.add_argument("--memory-cache", type=int, default=1024,
                   help="max entries in the in-process LRU front (default 1024)")
    p.add_argument("--verify", action="store_true",
                   help="certificate-check every result before answering "
                        "(adds 'verified' to the serve metadata)")
    p.add_argument("--no-timing", action="store_true",
                   help="omit latency_ms from responses (byte-reproducible "
                        "transcripts, e.g. for goldens)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="default per-request deadline in ms (clients may "
                        "override per request with a 'deadline_ms' key); "
                        "expired requests get a deadline-exceeded envelope")
    p.add_argument("--max-pending", type=int, default=DEFAULT_MAX_PENDING,
                   help="admission-queue bound; beyond it requests are shed "
                        f"with an overloaded envelope (default "
                        f"{DEFAULT_MAX_PENDING})")
    p.add_argument("--solve-threads", type=int, default=1,
                   help="solve-pool threads (default 1); the pool runs cache "
                        "misses that carry a deadline or whose solver and "
                        "size last solved longer than the GIL switch "
                        "interval, the event loop solves the rest")
    p.add_argument("--routing", choices=ROUTING_MODES, default="off",
                   help="SLA-aware solver routing: off (default) dispatches "
                        "exactly as requested; sla reroutes requests carrying "
                        "an accuracy target through the registry's cost-model "
                        "router — exact when cheap, certified-approximate "
                        "under load (serve metadata gains routed_solver, "
                        "epsilon and certificate fields)")
    p.add_argument("--fault-plan", metavar="FILE",
                   help="JSON fault plan (repro.faults.FaultPlan) injecting "
                        "deterministic chaos — for robustness testing only")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except VerificationError as exc:
        # a result failing its certificate checks (repro batch --verify) is
        # the verification-failed outcome (1), not malformed input (2)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        # includes unreadable/malformed instance files, wrapped at the
        # loading call sites by _load_checked
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
