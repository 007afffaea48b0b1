#!/usr/bin/env python
"""Open-loop load generator for the ``repro serve`` TCP tier.

Coordinated-omission-safe by construction: requests fire on a fixed schedule
(``--qps`` arrivals per second, independent of how slowly the server answers)
and every latency is measured from the request's *scheduled* arrival time,
not from when the client finally got around to sending it.  A server that
stalls therefore shows up as long latencies — not as a conveniently quiet
client.

Requests shed by the server (``overloaded`` envelopes) are retried with
exponential backoff and deterministic seeded jitter, starting from the
server's ``retry_after_ms`` hint; the retried request keeps charging latency
against its original scheduled arrival.  Everything is seeded, so a given
``(seed, qps, n)`` run replays the same schedule and the same jitter.

Usable as a CLI (``python tools/loadgen.py --port 7777 --qps 200 -n 500``)
or as a library (:func:`run_loadgen`) — ``benchmarks/bench_serve_qps.py``
drives it in-process against an :class:`repro.service.AsyncServeLoop`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from pathlib import Path
from typing import Any, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:  # runnable straight from a checkout
    sys.path.insert(0, _SRC)

DEFAULT_MAX_RETRIES = 4
DEFAULT_BACKOFF_CAP_S = 2.0


def _default_request_lines(n: int, distinct: int, seed: int) -> list[str]:
    """``n`` solve-request lines cycling over ``distinct`` tiny instances."""
    from repro.api import SolveRequest
    from repro.core import CUBE
    from repro.io import request_to_dict
    from repro.workloads import poisson_instance

    envelopes = []
    for i in range(max(1, distinct)):
        instance = poisson_instance(6, seed=seed + i, arrival_rate=1.0)
        request = SolveRequest(
            instance=instance, power=CUBE, solver="laptop", budget=20.0
        )
        envelopes.append(request_to_dict(request))
    lines = []
    for i in range(n):
        payload = dict(envelopes[i % len(envelopes)])
        payload["id"] = f"lg-{i}"
        lines.append(json.dumps(payload))
    return lines


async def _one_request(
    host: str,
    port: int,
    line: str,
    scheduled_at: float,
    deadline_ms: float | None,
    rng: random.Random,
    max_retries: int,
    timeout_s: float,
) -> dict[str, Any]:
    """Send one request (with shed retries); returns a per-request record."""
    outcome: dict[str, Any] = {"status": "ok", "code": None, "retries": 0}
    payload = line
    if deadline_ms is not None:
        data = json.loads(line)
        data["deadline_ms"] = deadline_ms
        payload = json.dumps(data)

    for attempt in range(max_retries + 1):
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((payload + "\n").encode("utf-8"))
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout_s)
            writer.close()
        except (OSError, asyncio.TimeoutError) as exc:
            outcome.update(status="transport-error", code=repr(exc))
            break
        if not raw:
            outcome.update(status="connection-drop", code="connection-drop")
            break
        response = json.loads(raw)
        error = (response.get("result") or {}).get("error")
        if error is None:
            outcome.update(status="ok", code=None)
            break
        outcome.update(status="error", code=error.get("code"))
        if error.get("code") != "overloaded" or attempt == max_retries:
            break
        # exponential backoff from the server's hint, with seeded jitter so
        # retried clients do not re-stampede in lockstep
        hint_ms = response.get("serve", {}).get("retry_after_ms") or 50.0
        backoff = min(
            DEFAULT_BACKOFF_CAP_S, (hint_ms / 1e3) * (2.0 ** attempt)
        )
        await asyncio.sleep(backoff * (0.5 + rng.random()))
        outcome["retries"] = attempt + 1

    # coordinated-omission-safe: charged from the *scheduled* arrival
    outcome["latency_ms"] = (time.monotonic() - scheduled_at) * 1e3
    return outcome


async def _run(
    host: str,
    port: int,
    lines: Sequence[str],
    qps: float,
    deadline_ms: float | None,
    seed: int,
    max_retries: int,
    timeout_s: float,
) -> dict[str, Any]:
    start = time.monotonic()
    tasks = []
    for index, line in enumerate(lines):
        scheduled_at = start + index / qps
        delay = scheduled_at - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        rng = random.Random((seed << 20) ^ index)
        tasks.append(
            asyncio.ensure_future(
                _one_request(
                    host, port, line, scheduled_at, deadline_ms, rng,
                    max_retries, timeout_s,
                )
            )
        )
    records = await asyncio.gather(*tasks)
    elapsed = time.monotonic() - start

    latencies = sorted(r["latency_ms"] for r in records)
    codes: dict[str, int] = {}
    for record in records:
        if record["code"] is not None:
            codes[record["code"]] = codes.get(record["code"], 0) + 1

    def pct(q: float) -> float | None:
        if not latencies:
            return None
        index = min(len(latencies) - 1, max(0, round(q * (len(latencies) - 1))))
        return round(latencies[int(index)], 3)

    return {
        "kind": "loadgen-report",
        "target_qps": qps,
        "requests": len(records),
        "ok": sum(1 for r in records if r["status"] == "ok"),
        "errors": sum(1 for r in records if r["status"] != "ok"),
        "error_codes": codes,
        "retries": sum(r["retries"] for r in records),
        "elapsed_s": round(elapsed, 3),
        "achieved_qps": round(len(records) / elapsed, 3) if elapsed > 0 else None,
        "latency_ms": {
            "p50": pct(0.50),
            "p99": pct(0.99),
            "max": pct(1.0),
            "mean": round(sum(latencies) / len(latencies), 3) if latencies else None,
        },
    }


def run_loadgen(
    host: str,
    port: int,
    n: int = 200,
    qps: float = 100.0,
    deadline_ms: float | None = None,
    seed: int = 0,
    distinct: int = 4,
    max_retries: int = DEFAULT_MAX_RETRIES,
    timeout_s: float = 30.0,
    lines: Sequence[str] | None = None,
) -> dict[str, Any]:
    """Drive an open-loop run against a serving TCP address; returns the report."""
    if lines is None:
        lines = _default_request_lines(n, distinct, seed)
    return asyncio.run(
        _run(host, port, lines, qps, deadline_ms, seed, max_retries, timeout_s)
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("-n", "--requests", type=int, default=200)
    parser.add_argument("--qps", type=float, default=100.0)
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--distinct", type=int, default=4,
                        help="distinct instances to cycle over (cache-hit mix)")
    parser.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES)
    parser.add_argument("--report", metavar="FILE",
                        help="also write the JSON report here")
    args = parser.parse_args(argv)

    report = run_loadgen(
        args.host, args.port, n=args.requests, qps=args.qps,
        deadline_ms=args.deadline_ms, seed=args.seed, distinct=args.distinct,
        max_retries=args.max_retries,
    )
    text = json.dumps(report, indent=2)
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    return 0 if report["ok"] > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
