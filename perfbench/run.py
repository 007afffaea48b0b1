"""The repository benchmark: four workloads, output checks, end-to-end and
per-layer metrics.  See ``perfbench/README.md`` for why each workload exists.

Run from the repository root::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(and makes a separate, traced run).  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full record (environment, phases, every figure).  The exit code is 1 when any
output check fails and 2 when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from common import environment, mean, median, peak_rss_mb, percentile  # noqa: E402

WORKLOADS = ("serve-mix", "batch-online", "flow-solve", "sim-replay")
SETUP_SAMPLES = 3

# serve-mix: open-loop rate, closed-loop window, share of --seconds per phase.
# The rate keeps the server below a fifth of its capacity: queueing multiplies
# every change in the host's speed, and at higher rates it decided the p50.
SERVE_RATE = 80.0
SERVE_IN_FLIGHT = 8
SERVE_OPEN_SHARE = 0.75
SERVE_CLOSED_SHARE = 0.25
# Both phases are cut into windows that take turns (see serve_load.drive).  On
# a shared machine, seconds-long slow spells come from other tenants and would
# otherwise decide the figures, while a change to the program moves every
# window.  So the open loop reports p50 over the pooled requests of its
# SERVE_CALM windows with the lowest p50, and p99 over those of its SERVE_CALM
# windows with the lowest p95 (>= 1000 requests at 24 s, so >= 10 lie beyond
# p99); the closed loop reports the mean of its SERVE_BEST best bursts.
SERVE_WINDOWS = 16
SERVE_CALM = 12
SERVE_BURST_EVERY = 1
SERVE_BEST = 3
SERVE_PING_PERIOD = 0.015
SERVE_CLOSED_LINES = 5000
SERVE_REPLAY_LINES = 3000


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


# -- the program process ---------------------------------------------------------

def spawn_program() -> tuple[subprocess.Popen, float, dict[str, Any]]:
    """Start ``program.py``; returns it with its spawn-to-ready seconds."""
    begun = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "program.py")], cwd=ROOT, env=_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - begun
    if not line:
        proc.wait(30)
        raise RuntimeError(f"program exited during set-up (code {proc.returncode})")
    return proc, setup_s, json.loads(line)


def setup_sample() -> tuple[float, dict[str, Any]]:
    proc, setup_s, ready = spawn_program()
    proc.stdin.close()
    proc.wait(30)
    proc.stdout.close()
    return setup_s, ready


def run_program(job: dict[str, Any]) -> tuple[dict[str, Any], list[float], list[dict]]:
    """Set-up samples, then ``job`` in a fresh program process."""
    samples = [setup_sample() for _ in range(SETUP_SAMPLES - 1)]
    proc, setup_s, ready = spawn_program()
    samples.append((setup_s, ready))
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.close()
        line = proc.stdout.readline()
        proc.wait(60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if not line:
        raise RuntimeError(f"program failed on {job['workload']} (code {proc.returncode})")
    return json.loads(line), [s for s, _ in samples], [r for _, r in samples]


def _program_outcome(job: dict[str, Any]) -> dict[str, Any]:
    result, setup, ready = run_program(job)
    e2e = result["end_to_end"]
    layers = dict(result.get("layers", {}))
    layers["setup.import_ms"] = median([r["import_ms"] for r in ready])
    layers["setup.registry_ms"] = median([r["registry_ms"] for r in ready])
    return {
        "metrics": {
            "setup_s": median(setup),
            "latency_p50_ms": e2e["latency_p50_ms"],
            "latency_p99_ms": e2e["latency_p99_ms"],
            "throughput_per_s": e2e["throughput_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "layers": layers,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "detail": {"setup_samples_s": setup, "latency_samples": e2e["latency_samples"],
                   "cycles": e2e["cycles"], "cycle_s": e2e["cycle_s"],
                   "calibration_ms": e2e["calibration_ms"], "measured": e2e["measured"]},
    }


# -- batch-online, flow-solve, sim-replay -------------------------------------------

def batch_online(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import inputs
    from repro.io import instances_to_dict

    reference = inputs.load_reference()["batch"]
    chunks = [
        {
            "solver": c["solver"],
            "n": c["n"],
            "instances": instances_to_dict(
                [inputs.batch_instance(c["n"], i) for i in c["pool"]]
            ),
            "expected": [reference[c["solver"]][str(c["n"])][i] for i in c["pool"]],
        }
        for c in inputs.batch_order(seed)
    ]
    return _program_outcome({"workload": "batch-online", "seconds": seconds,
                             "trace": trace, "chunks": chunks})


def flow_solve(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import inputs
    from repro.io import instance_to_dict

    reference = inputs.load_reference()["flow"]

    def op(cell: int, index: int) -> dict[str, Any]:
        solver, processors, n = inputs.FLOW_CELLS[cell]
        key = inputs.flow_cell_key(solver, processors, n)
        return {
            "cell": key, "solver": solver, "processors": processors,
            "budget": inputs.flow_budget(solver, n),
            "instance_data": instance_to_dict(inputs.flow_instance(n, index)),
            "expected": reference[key][index],
        }

    warmup = [
        {"solver": solver, "processors": processors, "budget": inputs.flow_budget(solver, n),
         "instance": instance_to_dict(inputs.flow_instance(n, inputs.FLOW_POOL + k))}
        for k, (solver, processors, n) in enumerate(
            [("flow", 1, 16), ("flow", 1, 16), ("flow-server", 1, 16), ("multi-flow", 2, 16)]
        )
    ]
    ops = [op(cell, index) for cell, index in inputs.flow_order(seed)]
    return _program_outcome({"workload": "flow-solve", "seconds": seconds, "trace": trace,
                             "warmup": warmup, "ops": ops})


def sim_replay(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import inputs
    from repro.sim import trace_to_jsonl

    reference = inputs.load_reference()["sim"]
    traces = {}
    ops = []
    for family, index, machine, algorithm in inputs.sim_order(seed):
        key = f"{family}.{index}"
        if key not in traces:
            generated = inputs.sim_trace(family, index)
            traces[key] = {"trace": trace_to_jsonl(generated), "name": generated.name}
        ops.append({"trace": key, "machine": machine, "algorithm": algorithm,
                    "expected": reference[family][index][machine][algorithm]})
    return _program_outcome({"workload": "sim-replay", "seconds": seconds, "trace": trace,
                             "traces": traces, "ops": ops})


# -- serve-mix ----------------------------------------------------------------------

class Server:
    """A ``repro serve --tcp`` subprocess with a fresh sqlite cache directory."""

    def __init__(self, cache_dir: Path) -> None:
        begun = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--tcp", "127.0.0.1:0",
             "--verify", "--cache-backend", "sqlite", "--cache-dir", str(cache_dir),
             "--max-pending", "4096"],
            cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            for line in self.proc.stderr:
                found = re.search(r"listening on (\S+):(\d+)", line)
                if found:
                    self.address = (found.group(1), int(found.group(2)))
                    break
            else:
                raise RuntimeError("serve exited before listening")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - begun

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)  # graceful drain
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


def _check_serve(lines: list[tuple[bytes, bool]], raws: list[bytes],
                 stats_raw: bytes) -> dict[str, Any]:
    """Every response ok + verified, ids in order, hit exactly on repeats, and
    the server's own counters equal to the client's tallies."""
    import serve_load

    failed = shed = drops = hits = ok = 0
    server_ms = []
    for (line, repeat), raw in zip(lines, raws + [b""] * (len(lines) - len(raws))):
        response = serve_load.parse(raw)
        if response is None:
            drops += 1
            failed += 1
            continue
        error = response["result"]["error"]
        serve = response["serve"]
        if error is not None and error.get("code") == "overloaded":
            shed += 1
        good = (
            response["id"] == json.loads(line)["id"]
            and error is None
            and serve.get("verified") is True
            and serve.get("cache") == ("hit" if repeat else "miss")
        )
        failed += not good
        ok += error is None
        hits += serve.get("cache") == "hit"
        server_ms.append(serve.get("latency_ms", 0.0))
    stats = (serve_load.parse(stats_raw) or {}).get("stats", {})
    repeats = sum(repeat for _, repeat in lines)
    counters_ok = (
        stats.get("requests") == len(lines)
        and stats.get("ok") == ok
        and stats.get("cache_hits") == repeats == hits
        and stats.get("errors") == 0
        and stats.get("shed") == 0
    )
    return {"attempted": len(lines), "ok": ok, "failed": failed + (not counters_ok),
            "shed": shed, "transport_drops": drops, "repeats": repeats,
            "server_ms": server_ms, "counters_ok": counters_ok, "server_stats": stats}


def serve_mix(seed: int, seconds: float, trace: bool, work: Path) -> dict[str, Any]:
    import inputs
    import serve_load

    per_window = int(SERVE_RATE * SERVE_OPEN_SHARE * seconds / SERVE_WINDOWS)
    bursts = SERVE_WINDOWS // SERVE_BURST_EVERY + 1
    burst_s = SERVE_CLOSED_SHARE * seconds / bursts
    open_mix, closed_mix = inputs.ServeMix(seed, "open"), inputs.ServeMix(seed, "closed")
    open_warm, closed_warm = open_mix.warmup(), closed_mix.warmup()
    windows = [open_mix.take(per_window) for _ in range(SERVE_WINDOWS)]
    closed_lines = closed_mix.take(SERVE_CLOSED_LINES)

    def wire(lines: list[tuple[bytes, bool]]) -> list[bytes]:
        return [line for line, _ in lines]

    setup = []
    server = Server(work / "cache-setup")
    setup.append(server.setup_s)
    server.stop()
    servers: list[Server] = []
    began = time.perf_counter()
    try:
        for name in ("open", "closed"):
            servers.append(Server(work / f"cache-{name}"))
            setup.append(servers[-1].setup_s)
        run = serve_load.run(serve_load.drive(
            servers[0].address, servers[1].address,
            wire(open_warm), [wire(w) for w in windows], wire(closed_warm),
            wire(closed_lines), SERVE_RATE, SERVE_PING_PERIOD, SERVE_IN_FLIGHT, burst_s,
            SERVE_BURST_EVERY,
        ), timeout=seconds + 120)
        rss = [server.peak_rss_mb() for server in servers]
    finally:
        for server in servers:
            server.stop()
    phases_s = time.perf_counter() - began

    opened = run["open"]
    open_sent = open_warm + [line for w in windows for line in w]
    sent_closed = closed_warm + closed_lines[:run["closed_sent"]]
    check_open = _check_serve(
        open_sent, run["open_warm"] + [raw for w in opened for raw in w["raw"]],
        run["open_stats"])
    check_closed = _check_serve(
        sent_closed, run["closed_warm"] + [raw for b in run["bursts"] for raw in b["raw"]],
        run["closed_stats"])

    window_ms = [[s * 1e3 for s in w["latency_s"]] for w in opened]
    latency_ms = [ms for w in window_ms for ms in w]
    p50s = [percentile(w, 0.50) for w in window_ms]
    p95s = [percentile(w, 0.95) for w in window_ms]

    def calmest(by: list[float]) -> list[float]:
        return [ms for k in sorted(range(len(by)), key=by.__getitem__)[:SERVE_CALM]
                for ms in window_ms[k]]

    rates = [b["rate_per_s"] for b in run["bursts"]]
    metrics = {
        "setup_s": median(setup),
        "latency_p50_ms": percentile(calmest(p50s), 0.50),
        "latency_p99_ms": percentile(calmest(p95s), 0.99),
        "throughput_per_s": mean(sorted(rates)[-SERVE_BEST:]),
        "peak_rss_mb": max(rss),
    }
    server_ms = check_open["server_ms"][len(open_warm):]
    pings = [s * 1e3 for w in opened for s in w["ping_s"]]
    layers = {
        "service.server_latency_p50_ms": percentile(server_ms, 0.50),
        "service.server_latency_p99_ms": percentile(server_ms, 0.99),
        "service.client_overhead_ms": median([c - s for c, s in zip(latency_ms, server_ms)]),
        "service.loop_stall_p99_ms": percentile(pings, 0.99),
        "service.generator_lag_p99_ms":
            percentile([s * 1e3 for w in opened for s in w["lag_s"]], 0.99),
    }
    detail = {
        "setup_samples_s": setup,
        "phases_s": phases_s,
        "open_loop": {"rate_per_s": SERVE_RATE, "window_requests": per_window,
                      "window_p50_ms": p50s, "window_p95_ms": p95s,
                      "p99_samples": len(calmest(p95s)),
                      "pings": len(pings),
                      **{k: v for k, v in check_open.items() if k != "server_ms"}},
        "closed_loop": {"in_flight": SERVE_IN_FLIGHT, "burst_s": burst_s,
                        "burst_rates_per_s": rates, "exhausted": run["closed_exhausted"],
                        **{k: v for k, v in check_closed.items() if k != "server_ms"}},
    }
    attempted = check_open["attempted"] + check_closed["attempted"]
    failed = check_open["failed"] + check_closed["failed"]

    if trace:
        segments = []
        for k, lines in enumerate((open_sent, sent_closed[:SERVE_REPLAY_LINES])):
            path = work / f"replay-{k}.json"
            path.write_text(json.dumps([line.decode("utf-8") for line, _ in lines]))
            segments.append(str(path))
        replay, _, ready = run_program({
            "workload": "serve-replay", "segments": segments, "cache_dir": str(work / "replay"),
        })
        layers.update(replay["layers"])
        layers["setup.import_ms"] = median([r["import_ms"] for r in ready])
        layers["setup.registry_ms"] = median([r["registry_ms"] for r in ready])
        layers["setup.listen_ms"] = replay["listen_ms"]
        attempted += replay["attempted"]
        failed += replay["failed"]
        server_us = mean(server_ms) * 1e3
        per_request = replay["per_request_us"]
        attributed = sum(v for k, v in per_request.items()
                         if k not in ("key", "request_bytes", "response_bytes"))
        layers["service.unattributed_us"] = server_us - attributed
        layers["verify.share"] = per_request.get("verify", 0.0) / server_us
        layers["trace.overhead_share"] = replay["overhead_share"]
        layers["trace.unattributed_share"] = (server_us - attributed) / server_us
        detail["replay_per_request_us"] = per_request
    return {"metrics": metrics, "layers": layers, "attempted": attempted,
            "failed": failed, "detail": detail}


# -- entry point -----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    begun = time.perf_counter()
    try:
        if args.workload == "serve-mix":
            outcome = serve_mix(args.seed, args.seconds, bool(args.trace), work)
        else:
            runner = {"batch-online": batch_online, "flow-solve": flow_solve,
                      "sim-replay": sim_replay}[args.workload]
            outcome = runner(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - begun

    figures = {**outcome["layers"], **outcome["metrics"]}
    metrics = {
        m["name"]: {"value": float(figures.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    for name, metric in metrics.items():
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": elapsed, "env": environment(),
        "end_to_end": outcome["metrics"], "layers": outcome["layers"],
        "detail": outcome["detail"],
    }
    attempted, failed = int(outcome["attempted"]), int(outcome["failed"])
    record["accounting"] = {"attempted": attempted, "ok": attempted - failed, "failed": failed}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
