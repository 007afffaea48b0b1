"""Tests for the pluggable cache-store backends (:mod:`repro.cache_store`)
and the cache race fixes that make sharing one store safe.

Three backend implementations of one contract, plus the regression pins for
the satellite bugfixes: the pid-only temp-path collision, resurrection of
invalidated entries by a racing lock-free store read, and the permanent
disk-degradation latch.
"""

from __future__ import annotations

import json
import sqlite3
import subprocess
import sys
import threading
import warnings
from contextlib import closing
from pathlib import Path

import pytest

from repro.api import REGISTRY, SolveRequest
from repro.api import solve as api_solve
from repro.cache import ResultCache
from repro.cache_store import (
    ENTRY_KIND,
    STORE_BACKENDS,
    DiskJSONStore,
    MemoryStore,
    SqliteStore,
    open_store,
)
from repro.core import CUBE
from repro.faults import CACHE_WRITE, FaultPlan, FaultRule
from repro.workloads import poisson_instance

from test_cache import _request_for


def _make_store(backend: str, tmp_path: Path):
    if backend == "memory":
        return MemoryStore()
    if backend == "disk-json":
        return DiskJSONStore(tmp_path / "store")
    return SqliteStore(tmp_path / "cache.sqlite3")


def _entry(key: str, solver: str = "laptop", energy: float = 12.5) -> dict:
    return {
        "kind": ENTRY_KIND,
        "key": key,
        "solver": solver,
        "result": {
            "format": 1,
            "kind": "solve-result",
            "solver": solver,
            "status": "ok",
            "value": 3.25,
            "energy": energy,
            "speeds": [1.0, 0.5, 0.25],
            "extras": {},
            "error": None,
        },
    }


KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62


class TestStoreContract:
    """Every backend honours the same read/write/purge semantics."""

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_round_trip_and_miss(self, backend, tmp_path):
        store = _make_store(backend, tmp_path)
        assert store.read(KEY_A) == (None, False)
        entry = _entry(KEY_A)
        store.write(KEY_A, entry)
        got, corrupt = store.read(KEY_A)
        assert not corrupt
        assert got == entry
        assert list(store.keys()) == [KEY_A]
        store.close()

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_overwrite_is_last_writer_wins(self, backend, tmp_path):
        store = _make_store(backend, tmp_path)
        store.write(KEY_A, _entry(KEY_A, energy=1.0))
        store.write(KEY_A, _entry(KEY_A, energy=2.0))
        got, _ = store.read(KEY_A)
        assert got["result"]["energy"] == 2.0
        store.close()

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_purge_all_and_by_solver(self, backend, tmp_path):
        store = _make_store(backend, tmp_path)
        store.write(KEY_A, _entry(KEY_A, solver="laptop"))
        store.write(KEY_B, _entry(KEY_B, solver="yds"))
        assert store.purge("yds") == {KEY_B}
        assert store.read(KEY_A)[0] is not None
        assert store.read(KEY_B) == (None, False)
        assert store.purge() == {KEY_A}
        assert list(store.keys()) == []
        store.close()

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_result_cache_rides_any_backend(self, backend, tmp_path):
        request = _request_for("laptop")
        fresh = api_solve(request)
        cache = ResultCache(store=_make_store(backend, tmp_path))
        assert cache.get(request) is None
        cache.put(request, fresh)
        # force the store path: a second cache over the same store
        other = ResultCache(store=cache.store)
        hit = other.get(request)
        assert hit is not None
        assert hit.speeds.tobytes() == fresh.speeds.tobytes()
        assert other.stats().disk_hits == 1

    def test_open_store_by_name(self, tmp_path):
        assert open_store("memory").backend == "memory"
        assert open_store("disk-json", tmp_path / "d").backend == "disk-json"
        sqlite_store = open_store("sqlite", tmp_path / "s")
        assert sqlite_store.backend == "sqlite"
        assert sqlite_store.path == tmp_path / "s" / "cache.sqlite3"
        direct = open_store("sqlite", tmp_path / "own.sqlite3")
        assert direct.path == tmp_path / "own.sqlite3"
        with pytest.raises(ValueError, match="unknown cache backend"):
            open_store("redis", tmp_path)
        with pytest.raises(ValueError, match="needs a directory"):
            open_store("sqlite")

    def test_directory_and_store_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            ResultCache(directory=tmp_path, store=MemoryStore())


class TestDiskJSONFormatPinned:
    """The extracted backend writes the exact bytes ResultCache always wrote."""

    def test_on_disk_bytes_unchanged(self, tmp_path):
        request = _request_for("laptop")
        result = api_solve(request)
        cache = ResultCache(directory=tmp_path / "via_dir")
        key = cache.put(request, result)
        path = tmp_path / "via_dir" / key[:2] / f"{key}.json"
        assert path.exists()
        entry = {
            "kind": ENTRY_KIND,
            "key": key,
            "solver": "laptop",
            "result": json.loads(path.read_text())["result"],
        }
        # the file is exactly json.dumps(entry, sort_keys=True) — the format
        # every pre-refactor store on disk already has
        assert path.read_text(encoding="utf-8") == json.dumps(entry, sort_keys=True)

    def test_pre_refactor_layout_reads_back(self, tmp_path):
        # simulate an old store: a file written by the historical code path
        request = _request_for("laptop")
        result = api_solve(request)
        seed = ResultCache(directory=tmp_path)
        seed.put(request, result)
        # an explicit DiskJSONStore over the same directory serves it
        cache = ResultCache(store=DiskJSONStore(tmp_path), max_memory_entries=0)
        hit = cache.get(request)
        assert hit is not None and hit.energy == result.energy


class TestTempPathRace:
    """Satellite bugfix: temp names were pid-only, so concurrent writers of
    one key shared a temp file and could degrade a healthy cache."""

    def test_temp_paths_are_unique_per_call_and_thread(self, tmp_path):
        store = DiskJSONStore(tmp_path)
        target = store._entry_path(KEY_A)
        paths, lock = [], threading.Lock()

        def grab():
            mine = [store._temp_path(target) for _ in range(8)]
            with lock:
                paths.extend(mine)

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # pre-fix every one of these was `.{name}.{pid}.tmp` — one single
        # path for all 32 writers; now each write gets its own temp file
        assert len(set(paths)) == len(paths) == 32

    def test_concurrent_same_key_puts_never_degrade(self, tmp_path):
        request = _request_for("laptop")
        result = api_solve(request)
        cache = ResultCache(directory=tmp_path, max_memory_entries=0)
        barrier = threading.Barrier(8)
        errors = []

        def hammer():
            barrier.wait()
            try:
                for _ in range(10):
                    cache.put(request, result)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # degradation would warn -> fail
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        stats = cache.stats()
        assert stats.disk_errors == 0 and not stats.disk_degraded
        assert cache.get(request) is not None  # the entry survived intact


class _InvalidateDuringRead(DiskJSONStore):
    """A store whose read triggers a concurrent invalidate() — the exact
    interleaving of the resurrection bug, made deterministic."""

    def __init__(self, directory):
        super().__init__(directory)
        self.cache: ResultCache | None = None
        self.armed = False

    def read(self, key):
        entry, corrupt = super().read(key)
        if self.armed:
            self.armed = False
            # runs between the cache's lock-free read and its re-lock —
            # exactly where a concurrent invalidator can land
            self.cache.invalidate()
        return entry, corrupt


class TestInvalidateResurrectionRace:
    """Satellite bugfix: a lock-free disk read racing invalidate() must not
    resurrect the just-invalidated entry into the memory tier."""

    def test_racing_read_does_not_resurrect(self, tmp_path):
        store = _InvalidateDuringRead(tmp_path)
        cache = ResultCache(store=store)
        store.cache = cache
        request = _request_for("laptop")
        cache.put(request, api_solve(request))
        cache._memory.clear()  # force the next get through the store

        store.armed = True
        # pre-fix: the entry read before the invalidate was _remember()ed
        # afterwards and returned — resurrecting what was just dropped
        assert cache.get(request) is None
        # and nothing leaked back into the memory front
        assert len(cache) == 0
        assert cache.get(request) is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.invalidated == 1

    def test_unraced_reads_still_promote_to_memory(self, tmp_path):
        store = _InvalidateDuringRead(tmp_path)  # never armed
        cache = ResultCache(store=store)
        store.cache = cache
        request = _request_for("laptop")
        cache.put(request, api_solve(request))
        cache._memory.clear()
        assert cache.get(request) is not None
        assert cache.stats().disk_hits == 1
        assert cache.get(request) is not None
        assert cache.stats().memory_hits == 1


class TestDiskWriteReprobe:
    """Satellite bugfix: the degradation latch re-probes instead of being
    permanent, so a transient ENOSPC no longer disables persistence forever."""

    def _requests(self, n):
        base = _request_for("laptop")
        return [
            SolveRequest(
                instance=base.instance, power=base.power,
                solver="laptop", budget=20.0 + i,
            )
            for i in range(n)
        ]

    def _plan(self, *indices):
        return FaultPlan(
            rules=(FaultRule(site=CACHE_WRITE, indices=frozenset(indices),
                             message="disk full"),)
        )

    def test_transient_failure_recovers_after_probe(self, tmp_path):
        cache = ResultCache(
            directory=tmp_path, fault_plan=self._plan(0), disk_probe_interval=4
        )
        requests = self._requests(6)
        with pytest.warns(RuntimeWarning, match="disk"):
            cache.put(requests[0], api_solve(requests[0]))  # fails, latches
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for request in requests[1:4]:  # skipped puts (latched, no probe)
                cache.put(request, api_solve(request))
            cache.put(requests[4], api_solve(requests[4]))  # the probe: succeeds
            cache.put(requests[5], api_solve(requests[5]))  # back to normal
        stats = cache.stats()
        assert stats.disk_errors == 1
        assert stats.disk_probes == 1
        assert stats.disk_recoveries == 1
        assert not stats.disk_degraded
        on_disk = {p.stem for p in tmp_path.rglob("*.json")}
        # pre-fix the latch was permanent: nothing ever reached disk again;
        # now the probe put and every later put persist
        assert cache.key_for(requests[4]) in on_disk
        assert cache.key_for(requests[5]) in on_disk
        assert cache.key_for(requests[1]) not in on_disk  # skipped while latched

    def test_persistent_failure_keeps_degraded_without_new_warnings(self, tmp_path):
        cache = ResultCache(
            directory=tmp_path, fault_plan=self._plan(0, 1, 2),
            disk_probe_interval=4,
        )
        requests = self._requests(10)
        with pytest.warns(RuntimeWarning):
            cache.put(requests[0], api_solve(requests[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # re-probes must not re-warn
            for request in requests[1:10]:
                cache.put(request, api_solve(request))
        stats = cache.stats()
        # puts 4 and 8 probed (ordinals 1 and 2 -> both injected failures)
        assert stats.disk_probes == 2
        assert stats.disk_errors == 3
        assert stats.disk_recoveries == 0
        assert stats.disk_degraded
        assert list(tmp_path.rglob("*.json")) == []

    def test_interval_validation(self, tmp_path):
        with pytest.raises(ValueError, match="disk_probe_interval"):
            ResultCache(directory=tmp_path, disk_probe_interval=0)


class TestSqliteSharedTier:
    """The cross-process story: one WAL database, many caches."""

    def test_two_caches_share_one_store(self, tmp_path):
        store = SqliteStore(tmp_path / "cache.sqlite3")
        cache_a = ResultCache(store=store)
        cache_b = ResultCache(store=store)
        request = _request_for("laptop")
        fresh = api_solve(request)
        cache_a.put(request, fresh)
        hit = cache_b.get(request)
        assert hit is not None
        assert hit.speeds.tobytes() == fresh.speeds.tobytes()
        assert cache_b.stats().disk_hits == 1

    def test_two_stores_on_one_database_file(self, tmp_path):
        # separate SqliteStore instances = separate connections, like two
        # serve processes pointing --cache-dir at the same location
        path = tmp_path / "cache.sqlite3"
        cache_a = ResultCache(store=SqliteStore(path))
        cache_b = ResultCache(store=SqliteStore(path), max_memory_entries=0)
        request = _request_for("yds")
        cache_a.put(request, api_solve(request))
        assert cache_b.get(request) is not None
        assert cache_b.stats().disk_hits == 1

    def test_concurrent_writers_on_separate_connections(self, tmp_path):
        path = tmp_path / "cache.sqlite3"
        requests = [
            SolveRequest(
                instance=poisson_instance(5, seed=i), power=CUBE,
                solver="laptop", budget=25.0,
            )
            for i in range(12)
        ]
        results = [api_solve(r) for r in requests]
        caches = [ResultCache(store=SqliteStore(path)) for _ in range(4)]
        barrier = threading.Barrier(4)
        failures = []

        def writer(cache, chunk):
            barrier.wait()
            try:
                for request, result in chunk:
                    cache.put(request, result)
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        pairs = list(zip(requests, results))
        threads = [
            threading.Thread(target=writer, args=(caches[i], pairs[i::4]))
            for i in range(4)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert failures == []
        for cache in caches:
            assert cache.stats().disk_errors == 0
        reader = ResultCache(store=SqliteStore(path), max_memory_entries=0)
        for request in requests:
            assert reader.get(request) is not None
        assert reader.stats().disk_hits == len(requests)

    def test_first_open_retries_a_locked_journal_switch(self, tmp_path, monkeypatch):
        # connections first opening a fresh database at once: one of them
        # gets "database is locked" from the journal-mode switch at once,
        # without SQLite waiting out busy_timeout; the write must still land
        class LockedOnce(sqlite3.Connection):
            raised = False

            def execute(self, sql, *args):
                if sql.startswith("PRAGMA journal_mode") and not LockedOnce.raised:
                    LockedOnce.raised = True
                    raise sqlite3.OperationalError("database is locked")
                return super().execute(sql, *args)

        connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect", lambda *a, **k: connect(*a, factory=LockedOnce, **k)
        )
        path = tmp_path / "cache.sqlite3"
        cache = ResultCache(store=SqliteStore(path))
        request = _request_for("laptop")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cache.put(request, api_solve(request))
        assert LockedOnce.raised
        assert cache.stats().disk_errors == 0
        monkeypatch.undo()
        reader = ResultCache(store=SqliteStore(path), max_memory_entries=0)
        assert reader.get(request) is not None

    def test_true_cross_process_read(self, tmp_path):
        path = tmp_path / "cache.sqlite3"
        store = SqliteStore(path)
        store.write(KEY_A, _entry(KEY_A, energy=42.5))
        store.close()
        script = (
            "import sys; sys.path.insert(0, sys.argv[2]);"
            "from repro.cache_store import SqliteStore;"
            "entry, corrupt = SqliteStore(sys.argv[1]).read(sys.argv[3]);"
            "assert not corrupt and entry is not None;"
            "print(entry['result']['energy'])"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path), src, KEY_A],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "42.5"

    def test_corrupted_database_degrades_not_crashes(self, tmp_path):
        path = tmp_path / "cache.sqlite3"
        path.write_bytes(b"this is not a sqlite database, not even close\x00" * 8)
        cache = ResultCache(store=SqliteStore(path))
        request = _request_for("laptop")
        # reads are corrupt-misses, writes degrade with the one-time warning
        assert cache.get(request) is None
        assert cache.stats().corrupt_entries == 1
        with pytest.warns(RuntimeWarning, match="disk"):
            cache.put(request, api_solve(request))
        assert cache.stats().disk_degraded
        # the memory front still serves
        assert cache.get(request) is not None

    def test_rows_are_written_as_json(self, tmp_path):
        path = tmp_path / "cache.sqlite3"
        request = _request_for("yds")
        fresh = api_solve(request)
        cache = ResultCache(store=SqliteStore(path))
        cache.put(request, fresh)
        cache.store.close()
        with closing(sqlite3.connect(str(path))) as conn:
            rows = conn.execute("SELECT key, codec, envelope FROM entries").fetchall()
        assert [(key, codec) for key, codec, _ in rows] == [
            (cache.key_for(request), "json")
        ]
        assert json.loads(rows[0][2])["speeds"] == [float(s) for s in fresh.speeds]

    def test_binary_row_reads_as_corrupt_miss(self, tmp_path):
        # a store written when rows could carry the binary envelope codec:
        # it opens unchanged, JSON rows still hit, a binary row is a miss
        # counted as corrupt (never a crash), and a fresh put replaces it
        path = tmp_path / "cache.sqlite3"
        request_j = _request_for("laptop")
        request_b = _request_for("yds")
        writer = ResultCache(store=SqliteStore(path))
        writer.put(request_j, api_solve(request_j))
        writer.store.close()
        with closing(sqlite3.connect(str(path))) as conn:
            conn.execute(
                "INSERT INTO entries (key, solver, codec, envelope) VALUES (?, ?, ?, ?)",
                (writer.key_for(request_b), "yds", "binary", b"RBE1\x07\x00\x00\x00\x00"),
            )
            conn.commit()
        reader = ResultCache(store=SqliteStore(path), max_memory_entries=0)
        assert reader.get(request_j) is not None
        assert reader.get(request_b) is None
        assert reader.stats().corrupt_entries == 1
        reader.put(request_b, api_solve(request_b))
        assert reader.get(request_b) is not None
        reader.store.close()
        with closing(sqlite3.connect(str(path))) as conn:
            codecs = {codec for (codec,) in conn.execute("SELECT codec FROM entries")}
        assert codecs == {"json"}

    def test_invalidate_spans_both_caches(self, tmp_path):
        store = SqliteStore(tmp_path / "cache.sqlite3")
        cache_a = ResultCache(store=store)
        cache_b = ResultCache(store=store, max_memory_entries=0)
        request_l = _request_for("laptop")
        request_y = _request_for("yds")
        cache_a.put(request_l, api_solve(request_l))
        cache_a.put(request_y, api_solve(request_y))
        assert cache_a.invalidate(solver="yds") == 1
        assert cache_b.get(request_y) is None
        assert cache_b.get(request_l) is not None
