"""The benchmark's program process: one workload's library calls, in a child.

``perfbench/run.py`` starts ``python3 perfbench/program.py`` with ``src`` on
``PYTHONPATH``.  The process imports ``repro``, bootstraps the solver
registry and prints one ``ready`` JSON line -- the end of set-up.  It then
reads one JSON job from stdin, runs it and prints one JSON result line.  EOF
instead of a job ends the process right after set-up (extra set-up samples).

Jobs run their operations in cycles until ``seconds`` have passed.  Each
operation's time is its best over the cycles it ran in: on a shared machine
the slow spells come from other tenants, and the cycles spread each
operation's chances over the whole run.  Throughput is work per summed best
time, and the latency percentiles are taken over the per-operation bests.
Between cycles the job times a fixed calibration loop; the end-to-end figures
are scaled by the loop's best time to a reference host speed
(``common.calibration_s``), because the whole host drifts over minutes.  A
traced job interleaves traced cycles (timers wrapped around each layer's
public functions) with untraced ones; the ratio of the two is the reported
tracing overhead.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import repro  # noqa: E402,F401  (timed: the import is part of set-up)

_T1 = time.perf_counter()
from repro.api import REGISTRY  # noqa: E402

REGISTRY.names()
_T2 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from typing import Any, Callable, Sequence  # noqa: E402

from common import (  # noqa: E402
    REFERENCE_CALIBRATION_S,
    Spans,
    calibration_s,
    median,
    patched,
    peak_rss_mb,
    percentile,
)

REL_TOL = {"batch-online": 1e-9, "sim-replay": 1e-9, "flow-solve": 1e-6}


def _close(value: float | None, expected: float, rel_tol: float) -> bool:
    return value is not None and abs(value - expected) <= rel_tol * abs(expected)


Op = Callable[["Spans | None"], tuple[float, int, int]]


class Cycles:
    """Run ``ops`` in cycles for ``seconds``.

    An op takes the run's :class:`Spans` during a traced cycle (``None``
    otherwise) and returns ``(units of work, checked outputs, failed outputs)``.
    """

    def __init__(self, ops: Sequence[Op]) -> None:
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]
        self.traced_times: list[list[float]] = [[] for _ in ops]
        self.units = [0.0] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.calibration: list[float] = []

    def run(self, seconds: float, spans: Spans | None,
            traced: Callable[[], Any] = contextlib.nullcontext, warm: bool = True) -> None:
        """Cycle for ``seconds`` after one unrecorded warm-up cycle (``warm``).

        With ``spans``, every second cycle runs inside ``traced()`` and records
        into ``spans``.
        """
        if warm:
            for op in self.ops:
                op(None)
        started = time.perf_counter()
        while True:
            tracing = spans is not None and self.cycles % 2 == 1
            sink = self.traced_times if tracing else self.times
            with traced() if tracing else contextlib.nullcontext():
                for k, op in enumerate(self.ops):
                    begun = time.perf_counter()
                    units, attempted, failed = op(spans if tracing else None)
                    sink[k].append(time.perf_counter() - begun)
                    self.units[k] = units
                    self.attempted += attempted
                    self.failed += failed
            self.cycles += 1
            self.calibration.append(calibration_s())
            elapsed = time.perf_counter() - started
            enough = self.cycles >= (2 if spans is not None else 1)
            # stop when one more cycle of the average length would overrun
            if enough and elapsed * (self.cycles + 1) / self.cycles > seconds:
                return

    def end_to_end(self) -> dict[str, Any]:
        """Figures from each operation's best time, scaled to the reference
        host speed by the run's best calibration time."""
        scale = REFERENCE_CALIBRATION_S / min(self.calibration)
        op_ms = [min(t) * 1e3 for t in self.times]
        measured = {
            "throughput_per_s": sum(self.units) / (sum(op_ms) / 1e3),
            "latency_p50_ms": percentile(op_ms, 0.50),
            "latency_p99_ms": percentile(op_ms, 0.99),
        }
        return {
            "throughput_per_s": measured["throughput_per_s"] / scale,
            "latency_p50_ms": measured["latency_p50_ms"] * scale,
            "latency_p99_ms": measured["latency_p99_ms"] * scale,
            "measured": measured,
            "latency_samples": len(op_ms),
            "cycles": self.cycles,
            "cycle_s": [sum(t[c] for t in self.times) for c in range(len(self.times[0]))],
            "calibration_ms": [c * 1e3 for c in self.calibration],
        }

    def overhead_share(self) -> float:
        """Traced over untraced time of the same operations, minus one."""
        untraced = sum(min(t) for t in self.times)
        traced = sum(min(t) for t in self.traced_times)
        return traced / untraced - 1.0


# -- batch-online ----------------------------------------------------------------

def batch_online(job: dict[str, Any]) -> dict[str, Any]:
    import repro.core.kernels as kernels
    import repro.online.avr as online_avr
    import repro.online.yds as online_yds
    from repro.batch import solve_stream
    from repro.core import CUBE
    from repro.io import instances_from_dict

    spans = Spans()
    chunks = [
        (c["solver"], c["n"], instances_from_dict(c["instances"]), c["expected"])
        for c in job["chunks"]
    ]

    def op(solver: str, instances: list, expected: list[float]) -> Op:
        def run(_: Spans | None) -> tuple[float, int, int]:
            rows = list(solve_stream(
                instances, CUBE, 0.0, solver=solver, workers=1, batch_kernel="auto"
            ))
            failed = sum(
                not (row.ok and _close(row.energy, want, REL_TOL["batch-online"]))
                for row, want in zip(rows, expected)
            ) + abs(len(rows) - len(expected))
            return float(len(rows)), len(expected), failed
        return run

    cycles = Cycles([op(s, insts, exp) for s, _, insts, exp in chunks])

    original_run_batch, original_run = REGISTRY.run_batch, REGISTRY.run
    pack = spans.wrap("pack", kernels.pack_instances)

    def run_batch(requests):
        name = f"{requests[0].solver}.n{requests[0].instance.n_jobs}"
        spans.add(f"items.{name}", 0.0, len(requests))
        with spans.span(f"run_batch.{name}"):
            return original_run_batch(requests)

    def pack_counted(instances):
        spans.add("pack.items", 0.0, len(instances))
        return pack(instances)

    @contextlib.contextmanager
    def traced():
        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(REGISTRY, "run_batch", run_batch))
            stack.enter_context(patched(REGISTRY, "run", spans.wrap("run", original_run)))
            for module in (kernels, online_yds, online_avr):
                stack.enter_context(patched(module, "pack_instances", pack_counted))
            with spans.span("stream"):
                yield

    cycles.run(job["seconds"], spans if job["trace"] else None, traced)
    out = {"end_to_end": cycles.end_to_end(), "attempted": cycles.attempted,
           "failed": cycles.failed}
    if not job["trace"]:
        return out

    traced_cycles = len(cycles.traced_times[0])
    items = sum(len(insts) for _, _, insts, _ in chunks) * traced_cycles
    kernel_s = sum(v for k, v in spans.seconds.items() if k.startswith("run_batch."))
    layers = {
        "batch.kernel_share": kernel_s / spans.total("stream"),
        "batch.orchestration_us_per_item":
            (spans.total("stream") - kernel_s - spans.total("run")) / items * 1e6,
        "batch.batched_items": sum(
            v for k, v in spans.calls.items() if k.startswith("items.")
        ) / traced_cycles,
        "batch.per_instance_items": spans.count("run") / traced_cycles,
        "kernels.pack_us_per_item": spans.total("pack") / spans.count("pack.items") * 1e6,
        "trace.overhead_share": cycles.overhead_share(),
        "trace.unattributed_share":
            (spans.total("stream") - kernel_s - spans.total("run")) / spans.total("stream"),
    }
    for solver, n, _, _ in chunks:
        name = f"{solver}.n{n}"
        if spans.count(f"run_batch.{name}"):
            layers[f"kernels.run_batch_ms.{name}"] = (
                spans.total(f"run_batch.{name}") / spans.count(f"items.{name}") * 1e3
            )
    # the serve path: the same kernels on one instance at a time
    from repro.api import SolveRequest

    for solver, n, instances, _ in chunks:
        per_item = []
        for instance in instances[:4]:
            request = SolveRequest(instance=instance, power=CUBE, solver=solver, budget=0.0)
            begun = time.perf_counter()
            REGISTRY.run(request)
            per_item.append(time.perf_counter() - begun)
        layers[f"kernels.run_one_ms.{solver}.n{n}"] = median(per_item) * 1e3
    out["layers"] = layers
    return out


# -- flow-solve ------------------------------------------------------------------

def flow_solve(job: dict[str, Any]) -> dict[str, Any]:
    import scipy.optimize
    from repro.api import SolveRequest, solve, verify
    from repro.core import CUBE
    from repro.io import instance_from_dict

    spans = Spans()

    def op(o: dict[str, Any]) -> Op:
        """One solve + verify of one cell's instance."""
        cell, expected = o["cell"], o["expected"]
        request = SolveRequest(
            instance=instance_from_dict(o["instance_data"]), power=CUBE,
            solver=o["solver"], budget=o["budget"], processors=o["processors"],
        )

        def run(record: Spans | None) -> tuple[float, int, int]:
            begun = time.perf_counter()
            result = solve(request)
            solved = time.perf_counter()
            report = verify(request, result)
            if record is not None:
                record.add(f"solve.{cell}", solved - begun)
                record.add("verify", time.perf_counter() - solved)
                closed_form = result.ok and result.extras.get("exact_closed_form")
                record.add("exact", 0.0, int(bool(closed_form)))
            good = result.ok and report.ok and _close(
                result.value, expected, REL_TOL["flow-solve"]
            )
            return 1.0, 1, int(not good)
        return run

    for warm in job["warmup"]:
        # the first flow solves in a process pay one-off scipy set-up
        solve(SolveRequest(instance=instance_from_dict(warm["instance"]), power=CUBE,
                           solver=warm["solver"], budget=warm["budget"],
                           processors=warm["processors"]))
    cycles = Cycles([op(o) for o in job["ops"]])
    original_minimize = scipy.optimize.minimize

    def minimize(*args, **kwargs):
        result = original_minimize(*args, **kwargs)
        spans.add("optimizer", 0.0)
        spans.add("optimizer.nfev", 0.0, int(getattr(result, "nfev", 0)))
        return result

    def traced():
        return patched(scipy.optimize, "minimize", minimize)

    # the warm-up solves above stand in for a warm-up cycle, which takes seconds
    cycles.run(job["seconds"], spans if job["trace"] else None, traced, warm=False)
    out = {"end_to_end": cycles.end_to_end(), "attempted": cycles.attempted,
           "failed": cycles.failed}
    if not job["trace"]:
        return out
    traced_cycles = len(cycles.traced_times[0])
    solve_s = sum(v for k, v in spans.seconds.items() if k.startswith("solve."))
    op_s = sum(sum(t) for t in cycles.traced_times)
    layers = {
        "flow.verify_ms": spans.per_call("verify") * 1e3,
        "flow.optimizer_calls": spans.count("optimizer") / traced_cycles,
        "flow.optimizer_nfev": spans.count("optimizer.nfev") / traced_cycles,
        "flow.exact_share": spans.count("exact") / spans.count("verify"),
        "trace.overhead_share": cycles.overhead_share(),
        "trace.unattributed_share": (op_s - solve_s - spans.total("verify")) / op_s,
    }
    for o in job["ops"]:
        layers[f"flow.solve_ms.{o['cell']}"] = spans.per_call(f"solve.{o['cell']}") * 1e3
    out["layers"] = layers
    return out


# -- sim-replay ------------------------------------------------------------------

def sim_replay(job: dict[str, Any]) -> dict[str, Any]:
    import repro.sim.engine as engine
    from repro.sim import machine_model, trace_from_jsonl

    spans = Spans()

    traces = {key: trace_from_jsonl(t["trace"], name=t["name"])
              for key, t in job["traces"].items()}

    def op(trace, machine: str, algorithm: str, expected) -> Op:
        model = machine_model(machine)

        def run(record: Spans | None) -> tuple[float, int, int]:
            begun = time.perf_counter()
            report = engine.simulate(trace, model, algorithm).report
            if record is not None:
                record.add("simulate", time.perf_counter() - begun)
                record.add("events", 0.0, report.n_events)
                record.add("replans", 0.0, report.replans)
            energy, events = expected
            good = report.n_events == events and _close(
                report.energy, energy, REL_TOL["sim-replay"]
            )
            return float(report.n_events), 1, int(not good)
        return run

    ops = [op(traces[o["trace"]], o["machine"], o["algorithm"], o["expected"])
           for o in job["ops"]]
    cycles = Cycles(ops)
    planners = {
        "oa_schedule_incremental": "plan.oa",
        "avr_speed_profile": "plan.avr",
        "bkp_speed_profile": "plan.bkp",
        "quantize_profile": "quantize",
        "quantize_schedule": "quantize",
        "execute_profile_edf": "execute",
        "yds_schedule": "bound",
    }

    @contextlib.contextmanager
    def traced():
        with contextlib.ExitStack() as stack:
            for attribute, span in planners.items():
                wrapped = spans.wrap(span, getattr(engine, attribute))
                stack.enter_context(patched(engine, attribute, wrapped))
            yield

    cycles.run(job["seconds"], spans if job["trace"] else None, traced)
    out = {"end_to_end": cycles.end_to_end(), "attempted": cycles.attempted,
           "failed": cycles.failed}
    if not job["trace"]:
        return out
    traced_cycles = len(cycles.traced_times[0])
    per_cycle = {name: spans.total(name) * 1e3 / traced_cycles
                 for name in set(planners.values())}
    total_ms = spans.total("simulate") * 1e3 / traced_cycles
    layers = {
        "sim.plan_ms.oa": per_cycle["plan.oa"],
        "sim.plan_ms.avr": per_cycle["plan.avr"],
        "sim.plan_ms.bkp": per_cycle["plan.bkp"],
        "sim.quantize_ms": per_cycle["quantize"],
        "sim.execute_ms": per_cycle["execute"],
        "sim.bound_ms": per_cycle["bound"],
        "sim.walk_ms": total_ms - sum(per_cycle.values()),
        "sim.events": spans.count("events") / traced_cycles,
        "sim.replans": spans.count("replans") / traced_cycles,
        "trace.overhead_share": cycles.overhead_share(),
        "trace.unattributed_share": (total_ms - sum(per_cycle.values())) / total_ms,
    }
    out["layers"] = layers
    return out


# -- serve-replay: the serve pipeline's layers, called one by one ------------------

def serve_replay(job: dict[str, Any]) -> dict[str, Any]:
    """Replay the serve-mix request lines through the same public calls the
    serve loop makes per request (parse, cache, solve, verify, put, encode),
    on a sqlite-backed cache with the default 1024-entry memory front."""
    from repro.api import solve, verify
    from repro.cache import ResultCache
    from repro.cache_store import open_store
    from repro.io import request_from_dict, serve_response_to_dict
    from repro.service import AsyncServeLoop

    def replay(lines: list[str], directory: str, spans: Spans | None):
        store = open_store("sqlite", directory)
        cache = ResultCache(store=store, max_memory_entries=1024)
        timer = spans.span if spans is not None else (lambda _: contextlib.nullcontext())
        failed = 0
        begun = time.perf_counter()
        for line in lines:
            with timer("parse"):
                data = json.loads(line)
                request = request_from_dict(data)
            if spans is not None:
                with timer("key"):
                    cache.key_for(request)
                spans.add("request_bytes", 0.0, len(line.encode("utf-8")))
            started = time.perf_counter()
            result = cache.get(request)
            elapsed = time.perf_counter() - started
            hit = result is not None
            if spans is not None:
                spans.add("get_hit" if hit else "get_miss", elapsed)
            if not hit:
                kind = REGISTRY.capabilities(request.solver).objective
                with timer("solve.makespan" if kind == "makespan" else "solve.deadline"):
                    result = solve(request)
            with timer("verify"):
                verified = verify(request, result).ok
            failed += not (result.ok and verified)
            if not hit and result.ok and verified:
                with timer("put"):
                    cache.put(request, result)
            with timer("encode"):
                text = json.dumps(serve_response_to_dict(
                    result, data.get("id"), {"cache": "hit" if hit else "miss",
                                             "verified": verified}
                ))
            if spans is not None:
                spans.add("response_bytes", 0.0, len(text) + 1)
        wall = time.perf_counter() - begun
        store.close()
        return wall, cache.stats(), failed

    base = job["cache_dir"]
    # the serve set-up past import: open the sqlite cache, bind a TCP listener
    begun = time.perf_counter()
    store = open_store("sqlite", f"{base}/listen")
    server = AsyncServeLoop(cache=ResultCache(store=store), verify=True)
    server.start_in_thread()
    listen_ms = (time.perf_counter() - begun) * 1e3
    server.stop()
    store.close()

    segments = []
    for path in job["segments"]:
        with open(path, encoding="utf-8") as handle:
            segments.append(json.load(handle))
    replay(segments[0][:200], f"{base}/warm", None)
    untraced_s, _, failed = replay(segments[0], f"{base}/u0", None)
    spans = Spans()
    runs = [replay(segments[0], f"{base}/t0", spans)]
    layer_s = {name: spans.total(name) for name in spans.seconds}
    requests0 = len(segments[0])
    runs += [replay(lines, f"{base}/t{i}", spans) for i, lines in enumerate(segments[1:], 1)]
    traced_s = runs[0][0]
    stats = [run[1] for run in runs]
    hits = sum(s.hits for s in stats)
    gets = sum(s.gets for s in stats)
    per_request_us = {k: v / requests0 * 1e6 for k, v in layer_s.items()}
    requests = sum(len(lines) for lines in segments)
    return {
        "attempted": requests + requests0,
        "failed": failed + sum(run[2] for run in runs),
        "overhead_share": traced_s / untraced_s - 1.0,
        "listen_ms": listen_ms,
        # layer busy time per request of the first segment (the open loop)
        "per_request_us": per_request_us,
        "layers": {
            "io.parse_us": spans.per_call("parse") * 1e6,
            "io.encode_us": spans.per_call("encode") * 1e6,
            "io.request_bytes": spans.count("request_bytes") / requests,
            "io.response_bytes": spans.count("response_bytes") / requests,
            "cache.key_us": spans.per_call("key") * 1e6,
            "cache.get_hit_us": spans.per_call("get_hit") * 1e6,
            "cache.get_miss_us": spans.per_call("get_miss") * 1e6,
            "cache.put_us": spans.per_call("put") * 1e6,
            "cache.hit_ratio": hits / gets,
            "cache.store_hit_share": sum(s.disk_hits for s in stats) / hits,
            "api.solve_us.makespan": spans.per_call("solve.makespan") * 1e6,
            "api.solve_us.deadline": spans.per_call("solve.deadline") * 1e6,
            "verify.us": spans.per_call("verify") * 1e6,
        },
    }


WORKLOADS = {
    "batch-online": batch_online,
    "flow-solve": flow_solve,
    "sim-replay": sim_replay,
    "serve-replay": serve_replay,
}


def main() -> int:
    print(json.dumps({
        "ready": True,
        "import_ms": (_T1 - _T0) * 1e3,
        "registry_ms": (_T2 - _T1) * 1e3,
    }), flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0  # a set-up sample: no job follows
    job = json.loads(line)
    result = WORKLOADS[job["workload"]](job)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
