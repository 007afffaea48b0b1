"""Pluggable persistence backends for :class:`~repro.cache.ResultCache`.

ROADMAP item 5: the cache's identity is the content-addressed key, not
the medium it is stored on.  This package separates the two — the cache
keeps its LRU front, counters and degradation policy, and delegates
persistence to a :class:`CacheStore`:

* :class:`MemoryStore` — unbounded in-process dict; several caches in one
  process can share it.
* :class:`DiskJSONStore` — the original sharded-JSON directory, byte-for-
  byte identical to what ``ResultCache(directory=...)`` always wrote.
* :class:`SqliteStore` — one WAL-mode SQLite file, safe for concurrent
  writers across processes; the first backend N serve processes can
  genuinely share.

The same key doubles as the consistent-hash key for a future remote
store, which would be the fourth implementation of this contract.
Select a backend by name with :func:`open_store` (what ``repro serve
--cache-backend`` calls) or construct one directly and pass it as
``ResultCache(store=...)``.
"""

from __future__ import annotations

from pathlib import Path

from .base import ENTRY_KIND, CacheStore, validate_entry
from .disk_json import DiskJSONStore
from .memory import MemoryStore
from .sqlite import SqliteStore

__all__ = [
    "ENTRY_KIND",
    "STORE_BACKENDS",
    "CacheStore",
    "DiskJSONStore",
    "MemoryStore",
    "SqliteStore",
    "open_store",
    "validate_entry",
]

#: Backend names accepted by :func:`open_store` (and the serve CLI).
STORE_BACKENDS = ("memory", "disk-json", "sqlite")

#: Suffixes under which a ``directory`` argument is already a database file.
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def open_store(backend: str, directory: str | Path | None = None) -> CacheStore:
    """Construct a :class:`CacheStore` by backend name.

    ``directory`` is required for the persistent backends.  For
    ``"sqlite"`` it may point at the database file itself (any of
    ``.sqlite`` / ``.sqlite3`` / ``.db``) or at a directory, in which
    case the store lives at ``<directory>/cache.sqlite3`` — so one
    ``--cache-dir`` flag serves every backend.
    """
    if backend == "memory":
        return MemoryStore()
    if backend not in STORE_BACKENDS:
        raise ValueError(
            f"unknown cache backend {backend!r}; expected one of {sorted(STORE_BACKENDS)}"
        )
    if directory is None:
        raise ValueError(f"cache backend {backend!r} needs a directory")
    if backend == "disk-json":
        return DiskJSONStore(directory)
    path = Path(directory)
    if path.suffix not in _SQLITE_SUFFIXES:
        path = path / "cache.sqlite3"
    return SqliteStore(path)
