"""Golden CLI tests: the registry-shimmed subcommands are byte-identical.

The files under ``tests/golden/`` were captured from the CLI *before* the
solver-registry redesign (PR 3).  These tests prove the redesigned
subcommands — now thin shims over :data:`repro.api.REGISTRY` — still produce
byte-identical output, and exercise the new generic ``repro solve``
subcommand end to end.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.api import REGISTRY, SolveRequest
from repro.cli import main
from repro.core import CUBE
from repro.io import request_to_dict, save_instance, save_instances
from repro.workloads import equal_work_instance, figure1_instance

GOLDEN = Path(__file__).parent / "golden"

FIG1 = ["--releases", "0,5,6", "--works", "5,2,1"]
EQ = ["--releases", "0,1,2", "--works", "2,2,2"]

GOLDEN_CASES = {
    "laptop_table.txt": ["laptop", *FIG1, "--energy", "17"],
    "laptop.json": ["laptop", *FIG1, "--energy", "17", "--json"],
    "server.json": ["server", *FIG1, "--makespan", "8", "--json"],
    "frontier.json": ["frontier", *FIG1, "--min-energy", "6", "--max-energy", "21",
                      "--points", "5", "--json"],
    "flow.json": ["flow", *EQ, "--energy", "6", "--json"],
    "flow_table.txt": ["flow", *EQ, "--energy", "6"],
    "multi_makespan.json": ["multi", *EQ, "--energy", "8", "--processors", "2",
                            "--metric", "makespan", "--json"],
    "multi_flow.json": ["multi", *EQ, "--energy", "8", "--processors", "2",
                        "--metric", "flow", "--json"],
    "figures.json": ["figures", "--points", "7", "--json"],
    "sim.json": ["sim", "--family", "day-night", "--size", "12", "--seed", "0",
                 "--machine", "athlon64", "--json"],
    "sim_table.txt": ["sim", "--family", "heavy-tail", "--size", "8",
                      "--seed", "1", "--machine", "static-sleep"],
    # BKP at the sim-replay benchmark's size (the goldens above reach it
    # only at n <= 12)
    "sim_mmpp64.json": ["sim", "--family", "mmpp", "--size", "64", "--seed", "7000",
                        "--machine", "athlon64", "--json"],
}


class TestGoldenSubcommands:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_identical_to_pre_redesign_output(self, name, capsys):
        assert main(GOLDEN_CASES[name]) == 0
        got = capsys.readouterr().out
        want = (GOLDEN / name).read_text(encoding="utf-8")
        assert got == want

    @pytest.mark.slow
    def test_compete_byte_identical(self, capsys):
        argv = ["compete", "--alphas", "2", "--sizes", "5", "--seeds", "2",
                "--families", "deadline,staircase", "--json"]
        assert main(argv) == 0
        got = capsys.readouterr().out
        want = (GOLDEN / "compete.json").read_text(encoding="utf-8")
        assert got == want

    @pytest.mark.slow
    def test_compete_machines_byte_identical(self, capsys):
        argv = ["compete", "--machines", "pure,athlon64",
                "--families", "day-night,mmpp", "--sizes", "6",
                "--seeds", "1", "--algorithms", "oa,avr", "--json"]
        assert main(argv) == 0
        got = capsys.readouterr().out
        want = (GOLDEN / "compete_machines.json").read_text(encoding="utf-8")
        assert got == want

    def test_batch_results_byte_identical(self, tmp_path, capsys):
        # timing fields vary run to run; the results section must not
        path = tmp_path / "batch.json"
        save_instances([equal_work_instance(4, seed=s) for s in range(3)], path)
        assert main(["batch", "--instances", str(path), "--energy", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        got = json.dumps(payload["results"], indent=2, sort_keys=True) + "\n"
        want = (GOLDEN / "batch_results.json").read_text(encoding="utf-8")
        assert got == want


class TestServeGolden:
    def test_serve_transcript_byte_identical(self, monkeypatch, capsys):
        # the serve-protocol golden: two identical requests (miss then hit)
        # plus a malformed line (structured error, loop survives), exactly as
        # tools/regen_golden.py captures it
        line = json.dumps(
            request_to_dict(
                SolveRequest(
                    instance=figure1_instance(), power=CUBE,
                    solver="laptop", budget=17.0,
                )
            )
        )
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(line + "\n" + line + "\n" + "{not json\n")
        )
        assert main(["serve", "--no-timing"]) == 0
        got = capsys.readouterr().out
        want = (GOLDEN / "serve_transcript.txt").read_text(encoding="utf-8")
        assert got == want


class TestSolveSubcommand:
    def test_list_contains_every_registered_solver(self, capsys):
        assert main(["solve", "--list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY.names():
            assert name in out

    def test_solve_by_name_matches_laptop_shim(self, capsys):
        assert main(["solve", "--solver", "laptop", *FIG1, "--budget", "17", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert main(["laptop", *FIG1, "--energy", "17", "--json"]) == 0
        legacy = json.loads(capsys.readouterr().out)
        assert envelope["kind"] == "solve-result"
        assert envelope["status"] == "ok"
        assert envelope["value"] == legacy["makespan"]
        assert envelope["energy"] == legacy["energy"]
        assert envelope["speeds"] == legacy["speeds"]

    def test_solve_by_matrix_cell(self, capsys):
        assert main(["solve", "--objective", "makespan", "--mode", "server",
                     *FIG1, "--budget", "8", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["solver"] == "server"
        assert envelope["value"] == pytest.approx(8.0)

    def test_solve_request_envelope_file(self, tmp_path, capsys):
        from repro.api import SolveRequest
        from repro.core import CUBE

        request = SolveRequest(
            instance=figure1_instance(), power=CUBE, solver="laptop", budget=17.0
        )
        path = tmp_path / "request.json"
        path.write_text(json.dumps(request_to_dict(request)), encoding="utf-8")
        assert main(["solve", "--request", str(path), "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["status"] == "ok"
        assert envelope["value"] == pytest.approx(6.5)

    def test_error_is_structured_envelope_in_json_mode(self, capsys):
        assert main(["solve", "--solver", "laptop", *FIG1, "--json"]) == 2
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["status"] == "error"
        assert envelope["error"]["code"] == "invalid-budget"

    def test_error_exit_code_in_table_mode(self, capsys):
        assert main(["solve", "--solver", "nope", *FIG1, "--budget", "1"]) == 2
        assert "unknown-solver" in capsys.readouterr().err

    def test_missing_selection_is_cli_error(self, capsys):
        assert main(["solve", *FIG1]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_request_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "req.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["solve", "--request", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("processors", None), ("budget", "abc")])
    def test_malformed_request_values_exit_2(self, tmp_path, capsys, field, value):
        # valid JSON whose envelope fields have the wrong type must be a
        # clean CLI error, not a traceback
        from repro.api import SolveRequest
        from repro.core import CUBE

        request = SolveRequest(
            instance=figure1_instance(), power=CUBE, solver="laptop", budget=17.0
        )
        data = request_to_dict(request)
        data[field] = value
        path = tmp_path / "req.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["solve", "--request", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_frontier_through_solve(self, tmp_path, capsys):
        path = save_instance(figure1_instance(), tmp_path / "fig1.json")
        assert main([
            "solve", "--solver", "frontier", "--instance", str(path),
            "--options", '{"min_energy": 6, "max_energy": 21, "points": 5}', "--json",
        ]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["extras"]["breakpoints"] == pytest.approx([8.0, 17.0])
        assert len(envelope["extras"]["samples"]) == 5

    def test_multi_through_solve(self, capsys):
        assert main(["solve", "--solver", "multi-makespan", *EQ, "--budget", "8",
                     "--processors", "2", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["status"] == "ok"
        assert set(envelope["extras"]["assignment"]) == {"0", "1"}
