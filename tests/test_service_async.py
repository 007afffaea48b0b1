"""Tests for the hardened async serving tier (:class:`repro.service.AsyncServeLoop`).

Covers the robustness semantics on top of the request/response protocol
(``tests/test_service.py``): deadlines, load shedding, graceful drain,
control requests, fault injection, concurrent TCP clients sharing one
cache, and which thread solves a cache miss.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import sys
import threading
import time

import pytest

from repro import service
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
        assert "qps" not in snap and "latency_ms" not in snap and "solves" not in snap
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


@pytest.fixture
def switch_interval():
    """Pin the GIL switch interval the placement rule compares against, so a
    real solve counts as short whatever the host's speed; restored after."""
    saved = sys.getswitchinterval()
    yield sys.setswitchinterval
    sys.setswitchinterval(saved)


@pytest.fixture
def solved_on(monkeypatch):
    """``(budget, thread)`` of every solve the serve loop runs, in order."""
    record = []
    real = service.api_solve

    def recording(request):
        record.append((request.budget, threading.current_thread()))
        return real(request)

    monkeypatch.setattr(service, "api_solve", recording)
    return record


_POOL_THREAD = "repro-serve-solve"


class TestSolvePlacement:
    def test_short_deadline_free_miss_is_solved_on_the_loop_thread(
        self, switch_interval, solved_on
    ):
        switch_interval(1.0)
        lines = [_request_line(budget=budget) for budget in (17.0, 18.0, 19.0)]
        responses, _, loop = _run_stream(lines, cache=ResultCache())
        assert [r["result"]["status"] for r in responses] == ["ok"] * 3
        threads = [thread for _, thread in solved_on]
        # the first of its class is measured on the pool; the rest run inline
        assert threads[0].name == _POOL_THREAD
        assert threads[1:] == [threading.current_thread()] * 2
        assert loop.stats_snapshot()["solves"] == {"loop": 2, "pool": 1, "abandoned": 0}

    @pytest.mark.parametrize("where", ["request", "server"])
    def test_miss_with_a_deadline_is_solved_on_the_pool(
        self, switch_interval, solved_on, where
    ):
        switch_interval(1.0)
        per_request = 10_000.0 if where == "request" else None
        lines = [
            _request_line(budget=budget, deadline_ms=per_request)
            for budget in (17.0, 18.0, 19.0)
        ]
        responses, _, loop = _run_stream(
            lines, cache=ResultCache(),
            default_deadline_ms=10_000.0 if where == "server" else None,
        )
        assert [r["result"]["status"] for r in responses] == ["ok"] * 3
        assert [thread.name for _, thread in solved_on] == [_POOL_THREAD] * 3
        assert loop.stats_snapshot()["solves"] == {"loop": 0, "pool": 3, "abandoned": 0}

    def test_abandoned_solve_sends_its_class_back_to_the_pool(
        self, switch_interval, solved_on
    ):
        switch_interval(1.0)
        plan = FaultPlan(
            rules=(FaultRule(site=WORKER_HANG, indices=frozenset({1}), delay=15.0),)
        )
        lines = [
            _request_line(budget=17.0),
            _request_line(request_id="slow", budget=18.0, deadline_ms=200.0),
            _request_line(budget=19.0),
            _request_line(budget=20.0),
        ]
        responses, _, loop = _run_stream(lines, cache=ResultCache(), fault_plan=plan)
        assert responses[1]["result"]["error"]["code"] == "deadline-exceeded"
        places = {budget: thread.name for budget, thread in solved_on}
        # 17 measures the class, 18 hangs and is abandoned, so 19 measures
        # it again on the pool before 20 runs inline
        assert places[17.0] == places[19.0] == _POOL_THREAD
        assert places[20.0] == threading.current_thread().name
        assert loop.stats_snapshot()["solves"] == {"loop": 1, "pool": 3, "abandoned": 1}

    def test_long_class_stays_on_the_pool_and_ping_is_answered(self):
        plan = FaultPlan(rules=(FaultRule(site=SOLVER_SLOW, rate=1.0, delay=1.0),))
        loop = AsyncServeLoop(cache=ResultCache(), fault_plan=plan)
        address = loop.start_in_thread()
        try:
            client, prober = _Client(address), _Client(address)
            # the first solve measures the class at 1 s, past the switch interval
            assert client.rpc(_request_line(budget=17.0))["result"]["status"] == "ok"
            client.send(_request_line(budget=18.0))
            time.sleep(0.2)  # the second 1 s solve is under way
            begun = time.monotonic()
            pong = prober.rpc(json.dumps({"op": "ping"}) + "\n")
            waited = time.monotonic() - begun
            assert client.recv()["result"]["status"] == "ok"
            snap = prober.rpc(json.dumps({"op": "stats"}) + "\n")["stats"]
            client.close()
            prober.close()
        finally:
            loop.stop()
        assert pong["ok"] is True
        assert waited < 0.5
        assert snap["solves"] == {"loop": 0, "pool": 2, "abandoned": 0}

    def test_response_is_written_before_the_next_inline_solve(
        self, monkeypatch, switch_interval
    ):
        switch_interval(1.0)
        events = []
        real = service.api_solve

        def recording(request):
            events.append(("solve", request.budget))
            if request.budget == 17.0:
                time.sleep(0.05)  # both pipelined misses queue up meanwhile
            return real(request)

        class Out(io.StringIO):
            def write(self, text):
                events.append(("write", json.loads(text)["id"]))
                return super().write(text)

        monkeypatch.setattr(service, "api_solve", recording)
        lines = [
            _request_line(request_id=name, budget=budget)
            for name, budget in (("warm", 17.0), ("a", 18.0), ("b", 19.0))
        ]
        loop = AsyncServeLoop(cache=ResultCache())
        asyncio.run(loop.run_stream(iter(lines), Out()))
        assert loop.stats_snapshot()["solves"]["loop"] == 2
        assert events.index(("write", "a")) < events.index(("solve", 19.0))

    def test_inline_solves_feed_the_service_time_ewma(self, monkeypatch, switch_interval):
        switch_interval(1.0)
        real = service.api_solve

        def slow(request):
            time.sleep(0.01 if request.budget == 17.0 else 0.1)
            return real(request)

        monkeypatch.setattr(service, "api_solve", slow)
        _, _, loop = _run_stream(
            [_request_line(budget=17.0), _request_line(budget=18.0)],
            cache=ResultCache(),
        )
        assert loop.stats_snapshot()["solves"] == {"loop": 1, "pool": 1, "abandoned": 0}
        # 0.2 x 0.1 s inline + 0.8 x 0.01 s pooled: an inline solve read as
        # 0 s would leave 0.008 s, one left out 0.01 s
        assert loop._ewma_service_s >= 0.028
