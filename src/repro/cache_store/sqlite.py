"""SQLite-backed :class:`CacheStore` (WAL mode) — the shared-tier backend.

One database file replaces the sharded-JSON directory when several serve
processes on one box must share a cache tier: WAL journaling gives
single-writer/many-reader concurrency without readers blocking writers,
and the content-address key is the primary key, so concurrent same-key
writes from different processes are idempotent upserts rather than
racing renames.  ``busy_timeout`` absorbs writer contention instead of
surfacing ``database is locked`` errors.

Result envelopes are stored as per-row JSON blobs.  The schema keeps a
per-row ``codec`` column, always written as ``"json"``; a row recorded
under any other codec (older stores could hold ``"binary"`` rows) reads
as a corrupt miss.  A corrupted or foreign database file likewise
degrades to misses on read and :class:`OSError` on write — never a crash
— which plugs straight into :class:`~repro.cache.ResultCache`'s
memory-only degradation and re-probe machinery.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from .base import ENTRY_KIND, CacheStore, validate_entry

__all__ = ["SqliteStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    solver TEXT,
    codec TEXT NOT NULL,
    envelope BLOB NOT NULL
) WITHOUT ROWID
"""


class SqliteStore(CacheStore):
    """Cache entries in one SQLite database (safe across processes)."""

    backend = "sqlite"

    def __init__(self, path: str | Path, busy_timeout: float = 30.0) -> None:
        self.path = Path(path)
        self.busy_timeout = float(busy_timeout)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # one connection per thread (sqlite3 connections are not safe to
        # share across threads); all are tracked so close() can drop them
        self._local = threading.local()
        self._conns_lock = threading.Lock()
        self._conns: list[sqlite3.Connection] = []
        self._closed = False

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        if self._closed:
            raise sqlite3.ProgrammingError("store is closed")
        conn = self._open()
        self._local.conn = conn
        with self._conns_lock:
            self._conns.append(conn)
        return conn

    def _open(self) -> sqlite3.Connection:
        """A connection in WAL mode with the schema in place.

        Several connections first opening a fresh database at once can see
        ``database is locked`` from the journal-mode switch or the schema
        creation straight away, without SQLite waiting out ``busy_timeout``,
        so the set-up is retried on ``locked`` until that timeout runs out.
        """
        give_up = time.monotonic() + self.busy_timeout
        pause = 0.001
        while True:
            conn = sqlite3.connect(str(self.path), timeout=self.busy_timeout)
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}")
                conn.execute(_SCHEMA)
                conn.commit()
                return conn
            except sqlite3.OperationalError as exc:
                conn.close()
                if "locked" not in str(exc) or time.monotonic() >= give_up:
                    raise
            except sqlite3.Error:
                conn.close()
                raise
            time.sleep(pause)
            pause = min(2 * pause, 0.05)

    # ------------------------------------------------------------------
    # CacheStore contract
    # ------------------------------------------------------------------
    def read(self, key: str) -> tuple[dict[str, Any] | None, bool]:
        try:
            row = self._conn().execute(
                "SELECT solver, codec, envelope FROM entries WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error:
            return None, True
        if row is None:
            return None, False
        solver, codec, blob = row
        if codec != "json":
            return None, True
        try:
            envelope = json.loads(bytes(blob).decode("utf-8"))
        except (TypeError, ValueError):
            return None, True
        entry = validate_entry(
            {"kind": ENTRY_KIND, "key": key, "solver": solver, "result": envelope},
            key,
        )
        return (entry, False) if entry is not None else (None, True)

    def write(self, key: str, entry: dict[str, Any]) -> None:
        try:
            blob = json.dumps(entry["result"], sort_keys=True).encode("utf-8")
            conn = self._conn()
            conn.execute(
                "INSERT INTO entries (key, solver, codec, envelope) VALUES (?, ?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET "
                "solver = excluded.solver, codec = excluded.codec, "
                "envelope = excluded.envelope",
                (key, entry.get("solver"), "json", blob),
            )
            conn.commit()
        except sqlite3.Error as exc:
            raise OSError(f"sqlite cache store at {self.path}: {exc}") from exc

    def purge(self, solver: str | None = None) -> set[str]:
        try:
            conn = self._conn()
            if solver is None:
                rows = conn.execute("SELECT key FROM entries").fetchall()
                conn.execute("DELETE FROM entries")
            else:
                rows = conn.execute(
                    "SELECT key FROM entries WHERE solver = ?", (solver,)
                ).fetchall()
                conn.execute("DELETE FROM entries WHERE solver = ?", (solver,))
            conn.commit()
        except sqlite3.Error:
            return set()
        return {key for (key,) in rows}

    def keys(self) -> Iterator[str]:
        try:
            rows = self._conn().execute("SELECT key FROM entries ORDER BY key").fetchall()
        except sqlite3.Error:
            return iter(())
        return iter([key for (key,) in rows])

    def __len__(self) -> int:
        try:
            (count,) = self._conn().execute("SELECT COUNT(*) FROM entries").fetchone()
        except sqlite3.Error:
            return 0
        return int(count)

    def close(self) -> None:
        with self._conns_lock:
            conns, self._conns = self._conns, []
            self._closed = True
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
        self._local = threading.local()

    def describe(self) -> str:
        return f"sqlite:{self.path}"
