"""Tests for the hardened async serving tier (:class:`repro.service.AsyncServeLoop`).

Covers the robustness semantics on top of the request/response protocol
(``tests/test_service.py``): deadlines, load shedding, graceful drain,
control requests, fault injection and concurrent TCP clients sharing one
cache.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import threading

import pytest

from repro.api import SolveRequest
from repro.cache import ResultCache
from repro.core import CUBE
from repro.exceptions import InvalidInstanceError
from repro.faults import (
    CONNECTION_DROP,
    SOLVER_SLOW,
    WORKER_EXCEPTION,
    WORKER_HANG,
    FaultPlan,
    FaultRule,
)
from repro.io import request_to_dict, serve_response_from_dict
from repro.service import AsyncServeLoop
from repro.workloads import figure1_instance, poisson_instance


def _request_line(request_id=None, budget=17.0, seed=None, deadline_ms=None) -> str:
    instance = figure1_instance() if seed is None else poisson_instance(
        6, seed=seed, arrival_rate=1.0
    )
    envelope = request_to_dict(
        SolveRequest(instance=instance, power=CUBE, solver="laptop", budget=budget)
    )
    if request_id is not None:
        envelope["id"] = request_id
    if deadline_ms is not None:
        envelope["deadline_ms"] = deadline_ms
    return json.dumps(envelope) + "\n"


def _run_stream(lines, **kwargs):
    out = io.StringIO()
    loop = AsyncServeLoop(**kwargs)
    stats = asyncio.run(loop.run_stream(iter(lines), out))
    return [json.loads(line) for line in out.getvalue().splitlines()], stats, loop


class _Client:
    """One blocking line-protocol connection to a started loop."""

    def __init__(self, address):
        self._sock = socket.create_connection(address, timeout=10)
        self._file = self._sock.makefile("rw", encoding="utf-8")

    def send(self, line: str) -> None:
        self._file.write(line)
        self._file.flush()

    def recv(self) -> dict:
        raw = self._file.readline()
        if not raw:
            raise ConnectionResetError("server closed the connection")
        return json.loads(raw)

    def rpc(self, line: str) -> dict:
        self.send(line)
        return self.recv()

    def close(self) -> None:
        self._file.close()
        self._sock.close()


class TestStreamMode:
    def test_roundtrip_and_cache_hit(self):
        responses, stats, _ = _run_stream(
            [_request_line(), _request_line()], cache=ResultCache()
        )
        assert [r["serve"]["cache"] for r in responses] == ["miss", "hit"]
        assert stats.requests == 2 and stats.ok == 2 and stats.cache_hits == 1

    def test_responses_keep_request_order(self):
        lines = [_request_line(request_id=f"r{i}", seed=i) for i in range(6)]
        responses, _, _ = _run_stream(lines, cache=ResultCache())
        assert [r["id"] for r in responses] == [f"r{i}" for i in range(6)]

    def test_malformed_line_is_structured_error(self):
        responses, stats, _ = _run_stream(["{not json\n", _request_line()])
        assert responses[0]["result"]["error"]["code"] == "invalid-instance"
        assert responses[1]["result"]["status"] == "ok"
        assert stats.errors == 1 and stats.ok == 1

    def test_timing_false_omits_latency(self):
        responses, _, _ = _run_stream([_request_line()], timing=False)
        assert "latency_ms" not in responses[0]["serve"]

    def test_response_parses_with_io_codec(self):
        responses, _, _ = _run_stream([_request_line(request_id="x")])
        request_id, result, meta = serve_response_from_dict(responses[0])
        assert request_id == "x" and result.ok and meta["cache"] == "off"


class TestDeadlines:
    def test_expired_deadline_never_returns_a_late_answer(self):
        plan = FaultPlan(
            rules=(FaultRule(site=WORKER_HANG, indices=frozenset({0}), delay=15.0),)
        )
        responses, stats, _ = _run_stream(
            [_request_line(request_id="slow", deadline_ms=200.0), _request_line()],
            fault_plan=plan,
        )
        assert responses[0]["id"] == "slow"
        assert responses[0]["result"]["error"]["code"] == "deadline-exceeded"
        assert responses[1]["result"]["status"] == "ok"
        assert stats.deadline_misses == 1 and stats.errors == 1 and stats.ok == 1

    def test_server_default_deadline_applies(self):
        plan = FaultPlan(
            rules=(FaultRule(site=WORKER_HANG, indices=frozenset({0}), delay=15.0),)
        )
        responses, stats, _ = _run_stream(
            [_request_line()], fault_plan=plan, default_deadline_ms=200.0
        )
        assert responses[0]["result"]["error"]["code"] == "deadline-exceeded"
        assert stats.deadline_misses == 1

    def test_invalid_deadline_is_structured_error(self):
        responses, _, _ = _run_stream([_request_line(deadline_ms=-5)])
        assert responses[0]["result"]["error"]["code"] == "invalid-instance"
        assert "deadline_ms" in responses[0]["result"]["error"]["message"]

    def test_constructor_rejects_bad_defaults(self):
        with pytest.raises(InvalidInstanceError):
            AsyncServeLoop(default_deadline_ms=0)
        with pytest.raises(InvalidInstanceError):
            AsyncServeLoop(max_pending=0)


class TestOverload:
    def test_queue_overflow_sheds_with_retry_hint(self):
        # every solve sleeps, admission bound is 1: pipelining many distinct
        # requests must shed the tail instead of queueing unboundedly
        plan = FaultPlan(rules=(FaultRule(site=SOLVER_SLOW, rate=1.0, delay=0.2),))
        lines = [_request_line(request_id=f"r{i}", seed=i) for i in range(8)]
        responses, stats, _ = _run_stream(
            lines, fault_plan=plan, max_pending=1, cache=None
        )
        assert [r["id"] for r in responses] == [f"r{i}" for i in range(8)]
        shed = [r for r in responses
                if (r["result"].get("error") or {}).get("code") == "overloaded"]
        served = [r for r in responses if r["result"]["status"] == "ok"]
        assert shed and served
        assert stats.shed == len(shed)
        for response in shed:
            hint = response["serve"]["retry_after_ms"]
            assert isinstance(hint, (int, float)) and hint > 0

    def test_control_requests_bypass_the_queue(self):
        plan = FaultPlan(rules=(FaultRule(site=SOLVER_SLOW, rate=1.0, delay=0.2),))
        lines = [
            _request_line(request_id="r0", seed=0),
            json.dumps({"op": "stats", "id": "st"}) + "\n",
        ]
        responses, _, _ = _run_stream(lines, fault_plan=plan, max_pending=1)
        kinds = {r.get("id"): r["kind"] for r in responses}
        assert kinds == {"r0": "serve-response", "st": "serve-control"}


class TestControlOps:
    def test_stats_op_reports_counters_and_latency(self):
        loop = AsyncServeLoop(cache=ResultCache())
        address = loop.start_in_thread()
        try:
            client = _Client(address)
            client.rpc(_request_line())
            client.rpc(_request_line())
            snap = client.rpc(json.dumps({"op": "stats"}) + "\n")
            client.close()
        finally:
            loop.stop()
        assert snap["kind"] == "serve-control" and snap["op"] == "stats"
        stats = snap["stats"]
        assert stats["requests"] == 2 and stats["cache_hits"] == 1
        assert stats["cache_hit_ratio"] == 0.5
        assert stats["qps"] > 0 and stats["uptime_s"] >= 0
        assert stats["latency_ms"]["p50"] <= stats["latency_ms"]["p99"]

    def test_stats_op_without_timing_omits_rates(self):
        responses, _, _ = _run_stream(
            [json.dumps({"op": "stats"}) + "\n"], timing=False
        )
        snap = responses[0]["stats"]
        assert "qps" not in snap and "latency_ms" not in snap
        assert snap["requests"] == 0 and snap["draining"] is False

    def test_ping_and_unknown_op(self):
        responses, _, _ = _run_stream(
            [json.dumps({"op": "ping", "id": 1}) + "\n",
             json.dumps({"op": "selfdestruct"}) + "\n"]
        )
        assert responses[0] == {"kind": "serve-control", "id": 1, "op": "ping",
                                "ok": True}
        assert responses[1]["error"]["code"] == "invalid-instance"

    def test_drain_op_stops_the_loop(self):
        loop = AsyncServeLoop()
        address = loop.start_in_thread()
        client = _Client(address)
        response = client.rpc(json.dumps({"op": "drain"}) + "\n")
        assert response["draining"] is True
        stats = loop.stop(timeout=10)
        assert stats.requests == 0


class TestFaultsInTheLoop:
    def test_worker_exception_maps_to_internal(self):
        plan = FaultPlan(
            rules=(FaultRule(site=WORKER_EXCEPTION, indices=frozenset({0}),
                             message="injected crash"),)
        )
        responses, stats, _ = _run_stream(
            [_request_line(), _request_line(seed=1)], fault_plan=plan
        )
        assert responses[0]["result"]["error"]["code"] == "internal"
        assert "injected crash" in responses[0]["result"]["error"]["message"]
        assert responses[1]["result"]["status"] == "ok"
        assert stats.errors == 1 and stats.ok == 1

    def test_connection_drop_kills_one_connection_not_the_server(self):
        plan = FaultPlan(
            rules=(FaultRule(site=CONNECTION_DROP, indices=frozenset({0})),)
        )
        loop = AsyncServeLoop(cache=ResultCache(), fault_plan=plan)
        address = loop.start_in_thread()
        try:
            victim = _Client(address)
            victim.send(_request_line())
            with pytest.raises((ConnectionResetError, json.JSONDecodeError)):
                victim.recv()
            victim.close()
            # the server keeps answering fresh connections
            survivor = _Client(address)
            response = survivor.rpc(_request_line())
            assert response["result"]["status"] == "ok"
            survivor.close()
        finally:
            loop.stop()


class TestConcurrentTcpClients:
    def test_many_threads_share_one_loop_and_cache(self):
        n_threads, n_requests = 6, 5
        loop = AsyncServeLoop(cache=ResultCache())
        address = loop.start_in_thread()
        failures: list[str] = []

        def hammer(thread_index: int) -> None:
            try:
                client = _Client(address)
                for request_index in range(n_requests):
                    request_id = f"t{thread_index}-r{request_index}"
                    # every thread solves the same tiny problem: contention on
                    # one shared cache entry
                    response = client.rpc(_request_line(request_id=request_id))
                    if response["id"] != request_id:
                        failures.append(
                            f"id mismatch: sent {request_id}, got {response['id']}"
                        )
                    if response["result"]["status"] != "ok":
                        failures.append(f"{request_id}: {response['result']}")
                client.close()
            except Exception as exc:  # torn line, closed conn, bad JSON...
                failures.append(f"t{thread_index}: {exc!r}")

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        stats = loop.stop()
        assert failures == []
        total = n_threads * n_requests
        assert stats.requests == total and stats.ok == total
        # exactly one request paid for the miss; with concurrent misses a few
        # more may race past the cache, but hits must dominate
        assert stats.cache_hits >= total - n_threads
        assert stats.cache_hits + loop.cache.stats().puts == total
