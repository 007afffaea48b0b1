"""Tests for the ``repro serve`` request loop (:mod:`repro.service`)."""

from __future__ import annotations

import asyncio
import io
import json
import socket
import threading

import pytest

from repro.api import SolveRequest
from repro.api import solve as api_solve
from repro.cache import ResultCache
from repro.cli import main
from repro.core import CUBE
from repro.io import request_to_dict, result_to_dict
from repro.service import AsyncServeLoop, ServeStats
from repro.workloads import figure1_instance


def _request_line(request_id=None, budget=17.0) -> str:
    envelope = request_to_dict(
        SolveRequest(
            instance=figure1_instance(), power=CUBE, solver="laptop", budget=budget
        )
    )
    if request_id is not None:
        envelope["id"] = request_id
    return json.dumps(envelope) + "\n"


def _serve(lines, **kwargs):
    out = io.StringIO()
    stats = asyncio.run(AsyncServeLoop(**kwargs).run_stream(iter(lines), out))
    return [json.loads(line) for line in out.getvalue().splitlines()], stats


class TestServeStream:
    def test_one_response_per_line_in_order(self):
        responses, stats = _serve([_request_line(), _request_line(budget=8.0)])
        assert len(responses) == 2
        assert all(r["kind"] == "serve-response" for r in responses)
        assert all(r["result"]["status"] == "ok" for r in responses)
        assert stats.requests == 2 and stats.ok == 2 and stats.errors == 0
        # responses match the library path exactly
        direct = api_solve(
            SolveRequest(
                instance=figure1_instance(), power=CUBE, solver="laptop", budget=17.0
            )
        )
        assert responses[0]["result"] == result_to_dict(direct)

    def test_identical_requests_second_is_cache_hit(self):
        responses, stats = _serve(
            [_request_line(), _request_line()], cache=ResultCache()
        )
        assert responses[0]["serve"]["cache"] == "miss"
        assert responses[1]["serve"]["cache"] == "hit"
        assert responses[0]["result"] == responses[1]["result"]
        assert stats.cache_hits == 1

    def test_no_cache_reports_off(self):
        responses, _ = _serve([_request_line()])
        assert responses[0]["serve"]["cache"] == "off"

    def test_client_id_is_echoed(self):
        responses, _ = _serve([_request_line(request_id="req-42")])
        assert responses[0]["id"] == "req-42"

    def test_malformed_line_is_structured_error_and_loop_survives(self):
        responses, stats = _serve(["{not json\n", _request_line()])
        assert len(responses) == 2
        assert responses[0]["result"]["status"] == "error"
        assert responses[0]["result"]["error"]["code"] == "invalid-instance"
        assert responses[1]["result"]["status"] == "ok"
        assert stats.errors == 1 and stats.ok == 1

    def test_wrong_envelope_kind_is_structured_error(self):
        responses, _ = _serve([json.dumps({"kind": "instance"}) + "\n"])
        assert responses[0]["result"]["status"] == "error"

    @pytest.mark.parametrize("power", [5, None, [], {"type": "polynomial"},
                                       {"type": "polynomial", "alpha": "x"}])
    def test_malformed_power_section_is_structured_error(self, power):
        # regression: a wrong-typed power section used to raise AttributeError
        # through request_from_dict and kill the loop
        envelope = json.loads(_request_line())
        envelope["power"] = power
        responses, stats = _serve([json.dumps(envelope) + "\n"])
        assert responses[0]["result"]["status"] == "error"
        assert stats.errors == 1

    def test_solver_failure_uses_the_serving_contract(self):
        envelope = request_to_dict(
            SolveRequest(instance=figure1_instance(), power=CUBE, solver="laptop")
        )  # no budget: laptop requires one
        responses, stats = _serve([json.dumps(envelope) + "\n"])
        assert responses[0]["result"]["status"] == "error"
        assert responses[0]["result"]["error"]["code"] == "invalid-budget"
        assert stats.errors == 1

    def test_blank_lines_are_skipped(self):
        responses, stats = _serve(["\n", "   \n", _request_line()])
        assert len(responses) == 1
        assert stats.requests == 1

    def test_timing_flag_controls_latency_field(self):
        with_timing, _ = _serve([_request_line()])
        without, _ = _serve([_request_line()], timing=False)
        assert "latency_ms" in with_timing[0]["serve"]
        assert "latency_ms" not in without[0]["serve"]

    def test_verify_metadata_on_ok_result(self):
        responses, _ = _serve([_request_line()], verify=True, cache=ResultCache())
        assert responses[0]["serve"]["verified"] is True

    def test_eof_returns_stats_cleanly(self):
        _, stats = _serve([])
        assert stats == ServeStats()


def _tcp_roundtrip(address, lines: list[str]) -> list[dict]:
    """Send all lines on one connection, half-close, read responses to EOF."""
    with socket.create_connection(address, timeout=10) as conn:
        conn.sendall("".join(lines).encode("utf-8"))
        conn.shutdown(socket.SHUT_WR)
        blob = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            blob += chunk
    return [json.loads(line) for line in blob.decode("utf-8").splitlines()]


class TestServeTcp:
    def test_tcp_roundtrip_with_cache_hit(self):
        loop = AsyncServeLoop(cache=ResultCache())
        address = loop.start_in_thread()
        try:
            responses = _tcp_roundtrip(address, [_request_line(), _request_line()])
        finally:
            stats = loop.stop()
        assert [r["serve"]["cache"] for r in responses] == ["miss", "hit"]
        assert all(r["result"]["status"] == "ok" for r in responses)
        assert stats.requests == 2
        assert stats.cache_hits == 1

    def test_tcp_cache_is_shared_across_connections(self):
        loop = AsyncServeLoop(cache=ResultCache())
        address = loop.start_in_thread()
        try:
            seen = [_tcp_roundtrip(address, [_request_line()])[0] for _ in range(2)]
        finally:
            loop.stop()
        assert seen[0]["serve"]["cache"] == "miss"
        assert seen[1]["serve"]["cache"] == "hit"


class TestServeCli:
    def test_stdin_stdout_loop(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(_request_line() + _request_line())
        )
        assert main(["serve", "--no-timing"]) == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["serve"]["cache"] for r in responses] == ["miss", "hit"]
        assert "serve: 2 request(s), 1 cache hit(s)" in captured.err

    def test_no_cache_flag(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(_request_line()))
        assert main(["serve", "--no-cache", "--no-timing"]) == 0
        responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert responses[0]["serve"]["cache"] == "off"

    def test_cache_dir_persists_across_invocations(self, tmp_path, monkeypatch, capsys):
        store = str(tmp_path / "cache")
        monkeypatch.setattr("sys.stdin", io.StringIO(_request_line()))
        assert main(["serve", "--cache-dir", store, "--no-timing"]) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(_request_line()))
        assert main(["serve", "--cache-dir", store, "--no-timing"]) == 0
        responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert responses[0]["serve"]["cache"] == "hit"

    def test_malformed_tcp_address_is_cli_error(self, capsys):
        assert main(["serve", "--tcp", "nonsense"]) == 2
        assert "malformed --tcp" in capsys.readouterr().err
