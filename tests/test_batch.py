"""Tests for the batch solving engine (:mod:`repro.batch`) and its CLI."""

from __future__ import annotations

import json
import types

import numpy as np
import pytest

import repro.batch as batch_module
from repro.batch import solve_many, solve_stream
from repro.cache import ResultCache
from repro.cli import main
from repro.core import CUBE, Instance
from repro.exceptions import InvalidInstanceError, VerificationError
from repro.io import load_instances, save_instances
from repro.makespan import incmerge, minimum_energy_for_makespan
from repro.workloads import deadline_instance, equal_work_instance, poisson_instance


@pytest.fixture(scope="module")
def instances() -> list[Instance]:
    return [poisson_instance(20, seed=s, arrival_rate=1.0) for s in range(8)]


class TestSolveMany:
    def test_serial_matches_direct_calls(self, instances):
        results = solve_many(instances, CUBE, 50.0, solver="laptop")
        assert [r.index for r in results] == list(range(len(instances)))
        for r, inst in zip(results, instances):
            direct = incmerge(inst, CUBE, 50.0)
            assert r.value == direct.makespan
            assert np.array_equal(r.speeds, direct.speeds)

    def test_workers_are_deterministic_and_byte_identical(self, instances):
        serial = solve_many(instances, CUBE, 50.0, solver="laptop", workers=1)
        parallel = solve_many(instances, CUBE, 50.0, solver="laptop", workers=4)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.index == b.index
            assert a.value == b.value
            assert a.energy == b.energy
            assert a.speeds.tobytes() == b.speeds.tobytes()

    def test_parallel_chunking_preserves_order(self, instances):
        parallel = solve_many(
            instances, CUBE, 50.0, solver="laptop", workers=3, chunk_size=1
        )
        assert [r.index for r in parallel] == list(range(len(instances)))

    def test_per_instance_budgets(self, instances):
        budgets = [40.0 + i for i in range(len(instances))]
        results = solve_many(instances, CUBE, budgets, solver="laptop")
        for r, inst, budget in zip(results, instances, budgets):
            assert r.energy == pytest.approx(budget, rel=1e-8)

    def test_server_solver_inverts_laptop(self, instances):
        inst = instances[0]
        laptop = incmerge(inst, CUBE, 50.0)
        results = solve_many([inst], CUBE, laptop.makespan, solver="server")
        assert results[0].value == pytest.approx(
            minimum_energy_for_makespan(inst, CUBE, laptop.makespan), rel=1e-9
        )
        assert results[0].value == pytest.approx(50.0, rel=1e-6)

    def test_yds_solver(self):
        insts = [deadline_instance(8, seed=s, laxity=3.0) for s in range(3)]
        results = solve_many(insts, CUBE, 0.0, solver="yds")
        assert all(r.value > 0 for r in results)
        assert all(r.value == pytest.approx(r.energy) for r in results)

    def test_flow_solver(self):
        insts = [equal_work_instance(5, seed=s) for s in range(2)]
        results = solve_many(insts, CUBE, 20.0, solver="flow")
        assert all(r.value > 0 for r in results)
        assert all(r.energy <= 20.0 * (1 + 1e-5) for r in results)

    def test_validation_errors(self, instances):
        with pytest.raises(InvalidInstanceError):
            solve_many(instances, CUBE, 50.0, solver="nope")
        with pytest.raises(InvalidInstanceError):
            solve_many(instances, CUBE, [1.0, 2.0], solver="laptop")
        assert solve_many([], CUBE, 50.0) == []

    @pytest.mark.parametrize(
        "budget",
        [50.0, np.float64(50.0), np.asarray(50.0)],
        ids=["python-float", "numpy-scalar", "zero-d-array"],
    )
    def test_scalar_budgets_broadcast_in_every_form(self, instances, budget):
        # regression: np.isscalar(np.asarray(50.0)) is False, so a 0-d array
        # budget used to hit the per-instance branch and die with a raw
        # "iteration over a 0-d array" TypeError
        results = solve_many(instances[:3], CUBE, budget, solver="laptop")
        expected = solve_many(instances[:3], CUBE, 50.0, solver="laptop")
        for r, e in zip(results, expected):
            assert r.value == e.value
            assert r.speeds.tobytes() == e.speeds.tobytes()


def _counting_solve_chunk(monkeypatch):
    """Wrap the worker entry point with call/item counters (serial path)."""
    counter = types.SimpleNamespace(calls=0, items=0)
    original = batch_module._solve_chunk

    def wrapper(payload):
        counter.calls += 1
        counter.items += len(payload[2])
        return original(payload)

    monkeypatch.setattr(batch_module, "_solve_chunk", wrapper)
    return counter


class TestSolveStream:
    def test_materialised_stream_matches_solve_many_byte_identically(self, instances):
        streamed = list(solve_stream(instances, CUBE, 50.0, solver="laptop"))
        materialised = solve_many(instances, CUBE, 50.0, solver="laptop")
        assert [r.index for r in streamed] == [r.index for r in materialised]
        for a, b in zip(streamed, materialised):
            assert a.value == b.value
            assert a.energy == b.energy
            assert a.speeds.tobytes() == b.speeds.tobytes()

    def test_results_stream_chunk_by_chunk(self, instances, monkeypatch):
        counter = _counting_solve_chunk(monkeypatch)
        stream = solve_stream(instances, CUBE, 50.0, solver="laptop", chunk_size=2)
        first = next(stream)
        # only the first chunk has been solved when the first result arrives
        assert first.index == 0
        assert counter.calls == 1
        assert counter.items == 2
        rest = list(stream)
        assert [r.index for r in rest] == list(range(1, len(instances)))
        assert counter.items == len(instances)

    def test_validation_is_eager_not_deferred_to_first_next(self, instances):
        with pytest.raises(InvalidInstanceError):
            solve_stream(instances, CUBE, [1.0, 2.0], solver="laptop")

    def test_parallel_stream_is_byte_identical_to_serial(self, instances):
        serial = list(solve_stream(instances, CUBE, 50.0, solver="laptop"))
        parallel = list(
            solve_stream(instances, CUBE, 50.0, solver="laptop", workers=3,
                         chunk_size=1)
        )
        assert [r.index for r in parallel] == [r.index for r in serial]
        for a, b in zip(parallel, serial):
            assert a.value == b.value
            assert a.speeds.tobytes() == b.speeds.tobytes()


class TestBatchCache:
    def test_warm_run_skips_the_solver_and_is_byte_identical(
        self, instances, monkeypatch
    ):
        cache = ResultCache()
        cold = solve_many(instances, CUBE, 50.0, solver="laptop", cache=cache)
        counter = _counting_solve_chunk(monkeypatch)
        warm = solve_many(instances, CUBE, 50.0, solver="laptop", cache=cache)
        assert counter.items == 0  # every item was a cache hit
        for a, b in zip(cold, warm):
            assert a.index == b.index
            assert a.n_jobs == b.n_jobs
            assert a.value == b.value
            assert a.energy == b.energy
            assert a.speeds.tobytes() == b.speeds.tobytes()
        stats = cache.stats()
        assert stats.hits == len(instances)
        assert stats.puts == len(instances)

    def test_cache_is_keyed_per_budget(self, instances):
        cache = ResultCache()
        solve_many(instances[:2], CUBE, 50.0, solver="laptop", cache=cache)
        solve_many(instances[:2], CUBE, 60.0, solver="laptop", cache=cache)
        assert cache.stats().hits == 0

    def test_verify_checks_cache_hits_too(self, instances, tmp_path):
        # a disk entry that parses fine but carries a tampered energy must be
        # caught by verify=True even though it skips the solver
        store = tmp_path / "cache"
        cache = ResultCache(directory=store)
        solve_many(instances[:1], CUBE, 50.0, solver="laptop", cache=cache)
        entry_files = list(store.glob("*/*.json"))
        assert len(entry_files) == 1
        entry = json.loads(entry_files[0].read_text())
        entry["result"]["energy"] = entry["result"]["energy"] * 2.0
        entry_files[0].write_text(json.dumps(entry))
        tampered = ResultCache(directory=store)
        # without verify the tampered hit flows through...
        bad = solve_many(instances[:1], CUBE, 50.0, solver="laptop", cache=tampered)
        assert bad[0].energy == pytest.approx(100.0, rel=1e-6)
        # ...with verify it is rejected
        with pytest.raises(VerificationError, match="cached"):
            solve_many(
                instances[:1], CUBE, 50.0, solver="laptop",
                cache=ResultCache(directory=store), verify=True,
            )

    def test_verify_checks_journal_replays_too(self, instances, tmp_path):
        run_dir = tmp_path / "run"
        solve_many(instances[:2], CUBE, 50.0, solver="laptop", run_dir=run_dir)
        journal_path = run_dir / "journal.jsonl"
        rows = [json.loads(line) for line in journal_path.read_text().splitlines()]
        rows[0]["energy"] = rows[0]["energy"] * 2.0
        journal_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(VerificationError, match="journal-replayed"):
            solve_many(
                instances[:2], CUBE, 50.0, solver="laptop",
                run_dir=run_dir, verify=True,
            )

    def test_disk_cache_survives_processes(self, instances, tmp_path, monkeypatch):
        store = tmp_path / "cache"
        cold = solve_many(
            instances[:3], CUBE, 50.0, solver="laptop",
            cache=ResultCache(directory=store),
        )
        counter = _counting_solve_chunk(monkeypatch)
        warm = solve_many(
            instances[:3], CUBE, 50.0, solver="laptop",
            cache=ResultCache(directory=store),
        )
        assert counter.items == 0
        for a, b in zip(cold, warm):
            assert a.speeds.tobytes() == b.speeds.tobytes()

    def test_pool_write_behind_matches_serial_bytes(self, instances, tmp_path):
        # pool workers ship result envelopes back for the parent to cache:
        # the stored entries are the serial run's bytes, and a warm pool run
        # is all hits
        runs = {}
        for workers in (1, 2):
            cache = ResultCache(directory=tmp_path / f"w{workers}")
            runs[workers] = solve_many(
                instances[:4], CUBE, 50.0, solver="laptop", workers=workers,
                chunk_size=1, cache=cache,
            )
        for a, b in zip(runs[1], runs[2]):
            assert a.index == b.index and a.value == b.value
            assert a.speeds.tobytes() == b.speeds.tobytes()
        serial = sorted((tmp_path / "w1").rglob("*.json"))
        pooled = sorted((tmp_path / "w2").rglob("*.json"))
        assert [p.name for p in serial] == [p.name for p in pooled]
        for a, b in zip(serial, pooled):
            assert a.read_bytes() == b.read_bytes()
        warm = ResultCache(directory=tmp_path / "w2")
        solve_many(instances[:4], CUBE, 50.0, solver="laptop", workers=2,
                   chunk_size=1, cache=warm)
        assert warm.stats().hits == 4


class TestRunDir:
    def test_killed_run_resumes_and_matches_uninterrupted_bytes(
        self, instances, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        uninterrupted = solve_many(instances, CUBE, 50.0, solver="laptop")

        # simulate a kill: consume three results, then drop the generator
        stream = solve_stream(
            instances, CUBE, 50.0, solver="laptop", chunk_size=1, run_dir=run_dir
        )
        for _ in range(3):
            next(stream)
        stream.close()
        journal = (run_dir / "journal.jsonl").read_text().splitlines()
        assert len(journal) == 3

        counter = _counting_solve_chunk(monkeypatch)
        resumed = solve_many(
            instances, CUBE, 50.0, solver="laptop", chunk_size=1, run_dir=run_dir
        )
        assert counter.items == len(instances) - 3  # finished work is skipped
        assert [r.index for r in resumed] == list(range(len(instances)))
        for a, b in zip(resumed, uninterrupted):
            assert a.value == b.value
            assert a.energy == b.energy
            assert a.speeds.tobytes() == b.speeds.tobytes()

    def test_completed_run_dir_replays_without_solving(
        self, instances, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        first = solve_many(instances, CUBE, 50.0, solver="laptop", run_dir=run_dir)
        counter = _counting_solve_chunk(monkeypatch)
        replayed = solve_many(instances, CUBE, 50.0, solver="laptop", run_dir=run_dir)
        assert counter.items == 0
        for a, b in zip(first, replayed):
            assert a.speeds.tobytes() == b.speeds.tobytes()

    def test_torn_journal_tail_is_truncated_not_poisoned(
        self, instances, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        stream = solve_stream(
            instances, CUBE, 50.0, solver="laptop", chunk_size=1, run_dir=run_dir
        )
        next(stream)
        next(stream)
        stream.close()
        journal_path = run_dir / "journal.jsonl"
        with journal_path.open("a") as fh:
            fh.write('{"index": 2, "name": "torn')  # killed mid-write
        resumed = solve_many(
            instances, CUBE, 50.0, solver="laptop", run_dir=run_dir
        )
        expected = solve_many(instances, CUBE, 50.0, solver="laptop")
        for a, b in zip(resumed, expected):
            assert a.speeds.tobytes() == b.speeds.tobytes()
        # the torn fragment was truncated, not appended onto: the journal is
        # fully parseable again and a third run replays it without solving
        rows = journal_path.read_text().splitlines()
        assert len(rows) == len(instances)
        assert all(json.loads(row) for row in rows)
        counter = _counting_solve_chunk(monkeypatch)
        solve_many(instances, CUBE, 50.0, solver="laptop", run_dir=run_dir)
        assert counter.items == 0

    def test_run_dir_rejects_different_inputs(self, instances, tmp_path):
        run_dir = tmp_path / "run"
        solve_many(instances[:3], CUBE, 50.0, solver="laptop", run_dir=run_dir)
        with pytest.raises(InvalidInstanceError, match="different batch"):
            solve_many(instances[:3], CUBE, 60.0, solver="laptop", run_dir=run_dir)
        with pytest.raises(InvalidInstanceError, match="different batch"):
            solve_many(instances[:4], CUBE, 50.0, solver="laptop", run_dir=run_dir)
        # the fingerprint guard also covers empty batches, both directions
        with pytest.raises(InvalidInstanceError, match="different batch"):
            solve_many([], CUBE, 50.0, solver="laptop", run_dir=run_dir)
        empty_dir = tmp_path / "empty"
        assert solve_many([], CUBE, 50.0, solver="laptop", run_dir=empty_dir) == []
        assert (empty_dir / "manifest.json").exists()
        with pytest.raises(InvalidInstanceError, match="different batch"):
            solve_many(instances[:3], CUBE, 50.0, solver="laptop", run_dir=empty_dir)


class TestInstanceBatchIO:
    def test_roundtrip(self, tmp_path, instances):
        path = tmp_path / "batch.json"
        save_instances(instances, path)
        loaded = load_instances(path)
        assert len(loaded) == len(instances)
        for a, b in zip(loaded, instances):
            assert np.array_equal(a.releases, b.releases)
            assert np.array_equal(a.works, b.works)

    def test_single_instance_payload_accepted(self, tmp_path, instances):
        from repro.io import save_instance

        path = tmp_path / "one.json"
        save_instance(instances[0], path)
        loaded = load_instances(path)
        assert len(loaded) == 1

    def test_bare_list_accepted(self, tmp_path, instances):
        from repro.io import instance_to_dict

        path = tmp_path / "list.json"
        path.write_text(json.dumps([instance_to_dict(i) for i in instances[:2]]))
        assert len(load_instances(path)) == 2


class TestBatchCLI:
    def test_table_output(self, tmp_path, instances, capsys):
        path = tmp_path / "batch.json"
        save_instances(instances[:3], path)
        code = main(["batch", "--instances", str(path), "--energy", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch of 3 instances" in out
        assert "instances/s" in out

    def test_json_output_matches_library(self, tmp_path, instances, capsys):
        path = tmp_path / "batch.json"
        save_instances(instances[:3], path)
        code = main(
            ["batch", "--instances", str(path), "--energy", "50", "--json",
             "--workers", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == 2
        expected = solve_many(instances[:3], CUBE, 50.0)
        assert len(payload["results"]) == 3
        for row, r in zip(payload["results"], expected):
            assert row["value"] == pytest.approx(r.value, rel=1e-12)

    def test_run_dir_resume_produces_byte_identical_capture(
        self, tmp_path, instances, capsys
    ):
        path = tmp_path / "batch.json"
        save_instances(instances, path)
        run_dir = tmp_path / "run"
        # simulate a killed run: a few results already journalled
        stream = solve_stream(
            instances, CUBE, 50.0, solver="laptop", chunk_size=1, run_dir=run_dir
        )
        for _ in range(4):
            next(stream)
        stream.close()
        argv = ["batch", "--instances", str(path), "--energy", "50", "--json"]
        assert main([*argv, "--run-dir", str(run_dir)]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        fresh = json.loads(capsys.readouterr().out)
        assert (
            json.dumps(resumed["results"], sort_keys=True)
            == json.dumps(fresh["results"], sort_keys=True)
        )

    def test_cache_dir_warm_capture_is_byte_identical(
        self, tmp_path, instances, capsys
    ):
        path = tmp_path / "batch.json"
        save_instances(instances[:4], path)
        argv = ["batch", "--instances", str(path), "--energy", "50", "--json",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert (
            json.dumps(warm["results"], sort_keys=True)
            == json.dumps(cold["results"], sort_keys=True)
        )

    def test_budget_count_mismatch_is_cli_error(self, tmp_path, instances, capsys):
        path = tmp_path / "batch.json"
        save_instances(instances[:3], path)
        code = main(["batch", "--instances", str(path), "--energy", "50,60"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestBatchRobustness:
    """Tentpole/satellites: pool recovery, atomic manifest, torn journal."""

    def test_chunk_timeout_fails_chunk_not_stream(self, tmp_path):
        from repro.faults import WORKER_HANG, FaultPlan, FaultRule

        insts = [poisson_instance(10, seed=s, arrival_rate=1.0) for s in range(6)]
        run_dir = tmp_path / "run"
        plan = FaultPlan(
            rules=(FaultRule(site=WORKER_HANG, indices=frozenset({2}), delay=30.0),)
        )
        rows = solve_many(
            insts, CUBE, 50.0, solver="laptop", workers=2, chunk_size=2,
            chunk_timeout=1.5, fault_plan=plan, run_dir=run_dir,
        )
        assert [r.index for r in rows] == list(range(6))
        bad = [r for r in rows if not r.ok]
        assert [r.index for r in bad] == [2, 3]  # the hung chunk, nothing else
        assert all(r.error_code == "worker-timeout" for r in bad)
        assert all(np.isnan(r.value) and np.isnan(r.energy) for r in bad)
        # error rows are never journalled: a resumed run retries exactly them
        journal = (run_dir / "journal.jsonl").read_text().splitlines()
        assert len(journal) == 4
        resumed = solve_many(
            insts, CUBE, 50.0, solver="laptop", workers=2, chunk_size=2,
            run_dir=run_dir,
        )
        expected = solve_many(insts, CUBE, 50.0, solver="laptop")
        assert all(r.ok for r in resumed)
        for a, b in zip(resumed, expected):
            assert a.speeds.tobytes() == b.speeds.tobytes()

    def test_worker_exception_still_propagates(self, instances):
        from repro.faults import WORKER_EXCEPTION, FaultPlan, FaultRule, InjectedFault

        plan = FaultPlan(
            rules=(FaultRule(site=WORKER_EXCEPTION, indices=frozenset({1}),
                             message="crashed worker"),)
        )
        with pytest.raises(InjectedFault, match="crashed worker"):
            solve_many(instances, CUBE, 50.0, solver="laptop", fault_plan=plan)

    def test_manifest_is_complete_json_after_first_yield(self, instances, tmp_path):
        run_dir = tmp_path / "run"
        stream = solve_stream(
            instances, CUBE, 50.0, solver="laptop", chunk_size=1, run_dir=run_dir
        )
        next(stream)
        # temp+rename: the manifest is never observable half-written
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["kind"] == "batch-run"
        leftovers = [p.name for p in run_dir.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []
        stream.close()

    def test_kill_during_manifest_write_leaves_no_manifest(
        self, instances, tmp_path, monkeypatch
    ):
        import os as os_module

        run_dir = tmp_path / "run"
        real_replace = os_module.replace

        def killed(src, dst, *args, **kwargs):
            if str(dst).endswith("manifest.json"):
                raise KeyboardInterrupt("killed mid-manifest")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr("os.replace", killed)
        with pytest.raises(KeyboardInterrupt):
            list(
                solve_stream(
                    instances, CUBE, 50.0, solver="laptop", run_dir=run_dir
                )
            )
        monkeypatch.undo()
        # no half-written manifest: the next run starts from a clean slate
        assert not (run_dir / "manifest.json").exists()
        rerun = solve_many(instances, CUBE, 50.0, solver="laptop", run_dir=run_dir)
        expected = solve_many(instances, CUBE, 50.0, solver="laptop")
        for a, b in zip(rerun, expected):
            assert a.speeds.tobytes() == b.speeds.tobytes()

    def test_journal_torn_injector_resumes_byte_identical(self, instances, tmp_path):
        from repro.faults import JOURNAL_TORN, FaultPlan, FaultRule, InjectedFault

        run_dir = tmp_path / "run"
        plan = FaultPlan(
            rules=(FaultRule(site=JOURNAL_TORN, indices=frozenset({2})),)
        )
        with pytest.raises(InjectedFault):
            list(
                solve_stream(
                    instances, CUBE, 50.0, solver="laptop", chunk_size=1,
                    run_dir=run_dir, fault_plan=plan,
                )
            )
        lines = (run_dir / "journal.jsonl").read_text().splitlines()
        assert len(lines) == 3  # two complete rows plus the torn half-line
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[-1])
        resumed = solve_many(instances, CUBE, 50.0, solver="laptop", run_dir=run_dir)
        expected = solve_many(instances, CUBE, 50.0, solver="laptop")
        for a, b in zip(resumed, expected):
            assert a.speeds.tobytes() == b.speeds.tobytes()

    def test_error_rows_round_trip_through_io(self):
        from repro.batch import BatchResult
        from repro.io import batch_result_from_dict, batch_result_to_dict

        row = BatchResult(
            index=3, solver="laptop", n_jobs=5, value=float("nan"),
            energy=float("nan"), speeds=np.zeros(0),
            error_code="worker-timeout", error_message="chunk timed out",
        )
        data = batch_result_to_dict(row, name="inst-3")
        # strict JSON: NaN never reaches the wire
        assert data["value"] is None and data["energy"] is None
        assert data["error"] == {"code": "worker-timeout",
                                 "message": "chunk timed out"}
        json.dumps(data)  # must be serialisable without allow_nan abuse
        back = batch_result_from_dict(data, solver="laptop")
        assert not back.ok and back.error_code == "worker-timeout"
        assert np.isnan(back.value) and np.isnan(back.energy)

    def test_cli_chunk_timeout_flag(self, tmp_path, instances, capsys):
        path = tmp_path / "batch.json"
        save_instances(instances[:2], path)
        code = main(
            ["batch", "--instances", str(path), "--energy", "50",
             "--workers", "2", "--chunk-timeout", "30", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all("error" not in row for row in payload["results"])
