#!/usr/bin/env python
"""CI smoke test for ``repro serve``: cache hits over stdio and over TCP.

Stage 1 pipes two identical solve-request envelopes through a real ``repro
serve`` subprocess (stdin/stdout transport, default in-memory cache) and
asserts:

* exactly one response line per request, both solved OK,
* the first response reports a cache miss, the second a cache hit,
* both carry latency metadata and byte-identical result envelopes.

Stage 2 starts a second serve subprocess in the server configuration of
the benchmark's serve-mix workload (``--tcp 127.0.0.1:0 --verify
--cache-backend sqlite --cache-dir <tmp>``), sends the same request twice
on one connection, then three more requests of the same cell with other
budgets, and asserts:

* a cache miss, then a cache hit, both solved OK and ``verified: true``,
  with identical result envelopes; then three verified misses,
* the counters of a ``{"op": "stats"}`` request equal the client's own
  tallies of those five responses,
* the misses were solved in both places: at least one on a solve-pool
  thread (the first of its class always is) and at least one on the event
  loop (a deadline-free miss whose class last solved within the GIL switch
  interval),
* SIGTERM drains the server: exit 0, a final stats line, no traceback.

Run as ``python tools/serve_smoke.py`` (the repo's ``src/`` is put on the
subprocess's PYTHONPATH automatically); exits non-zero with a diagnostic on
any violation.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:  # runnable straight from a checkout
    sys.path.insert(0, _SRC)


def _fail(message: str) -> int:
    print(f"serve smoke FAILED: {message}", file=sys.stderr)
    return 1


def _request_line(budget: float = 17.0) -> str:
    from repro.api import SolveRequest
    from repro.core import CUBE
    from repro.io import request_to_dict
    from repro.workloads import figure1_instance

    return json.dumps(
        request_to_dict(
            SolveRequest(
                instance=figure1_instance(), power=CUBE, solver="laptop", budget=budget
            )
        )
    )


def _serve_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _tcp_smoke(line: str) -> int:
    """Stage 2: the serve-mix server configuration over TCP, then SIGTERM."""
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as cache_dir:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--tcp", "127.0.0.1:0",
             "--verify", "--cache-backend", "sqlite", "--cache-dir", cache_dir],
            stdin=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=_serve_env(),
        )
        try:
            announce = proc.stderr.readline().strip()
            prefix = "serve: listening on "
            if not announce.startswith(prefix):
                return _fail(f"unexpected serve announcement: {announce!r}")
            host, _, port_text = announce[len(prefix):].rpartition(":")
            with socket.create_connection((host, int(port_text)), timeout=30) as sock, \
                    sock.makefile("rw", encoding="utf-8") as stream:
                responses = []
                for request in [line, line] + [_request_line(b) for b in (18.0, 19.0, 20.0)]:
                    stream.write(request + "\n")
                    stream.flush()
                    responses.append(json.loads(stream.readline()))
                stream.write(json.dumps({"op": "stats"}) + "\n")
                stream.flush()
                snapshot = json.loads(stream.readline())["stats"]
            proc.send_signal(signal.SIGTERM)
            _, stderr_rest = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)

    for i, response in enumerate(responses):
        if response["result"].get("status") != "ok":
            return _fail(f"TCP response {i} did not solve OK: {response['result']}")
        if response["serve"].get("verified") is not True:
            return _fail(f"TCP response {i} was not verified: {response['serve']}")
    states = [response["serve"]["cache"] for response in responses]
    expected = ["miss", "hit", "miss", "miss", "miss"]
    if states != expected:
        return _fail(f"expected TCP cache states {expected}, got {states}")
    if responses[0]["result"] != responses[1]["result"]:
        return _fail("sqlite cache hit returned a different result envelope")
    tallies = {
        "requests": len(responses),
        "ok": sum(r["result"]["status"] == "ok" for r in responses),
        "errors": sum(r["result"]["status"] != "ok" for r in responses),
        "cache_hits": states.count("hit"),
        "verify_failures": sum(r["serve"].get("verified") is False for r in responses),
    }
    served = {key: snapshot.get(key) for key in tallies}
    if served != tallies:
        return _fail(f"stats op counters {served} differ from client tallies {tallies}")
    solves = snapshot.get("solves") or {}
    if solves.get("loop", 0) < 1 or solves.get("pool", 0) < 1:
        return _fail(f"expected misses solved on the loop and on the pool, got {solves}")
    if proc.returncode != 0:
        return _fail(f"serve exited {proc.returncode} after SIGTERM:\n{stderr_rest}")
    if "serve: 5 request(s)" not in stderr_rest or "Traceback" in stderr_rest:
        return _fail(f"unexpected shutdown output after SIGTERM:\n{stderr_rest}")
    print(
        "serve smoke OK: TCP with --verify on a sqlite cache answered a verified "
        f"miss then hit, then three misses (solves {solves}), stats matched the "
        "client, SIGTERM drained with exit 0"
    )
    return 0


def main() -> int:
    line = _request_line()
    env = _serve_env()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve"],
        input=(line + "\n") * 2,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    if proc.returncode != 0:
        return _fail(f"serve exited {proc.returncode}: {proc.stderr.strip()}")
    responses = [json.loads(row) for row in proc.stdout.splitlines()]
    if len(responses) != 2:
        return _fail(f"expected 2 response lines, got {len(responses)}")
    for i, response in enumerate(responses):
        if response.get("kind") != "serve-response":
            return _fail(f"response {i} has kind {response.get('kind')!r}")
        if response["result"].get("status") != "ok":
            return _fail(f"response {i} did not solve OK: {response['result']}")
        if "latency_ms" not in response["serve"]:
            return _fail(f"response {i} is missing latency metadata")
    states = [response["serve"]["cache"] for response in responses]
    if states != ["miss", "hit"]:
        return _fail(f"expected cache states ['miss', 'hit'], got {states}")
    if responses[0]["result"] != responses[1]["result"]:
        return _fail("cache hit returned a different result envelope")
    print(
        "serve smoke OK: second identical request was a cache hit "
        f"(latencies {responses[0]['serve']['latency_ms']}ms -> "
        f"{responses[1]['serve']['latency_ms']}ms)"
    )
    return _tcp_smoke(line)


if __name__ == "__main__":
    sys.exit(main())
