"""CACHE-THROUGHPUT -- warm-vs-cold speedup of the content-addressed cache.

The serving claim of the cache layer (:mod:`repro.cache`): on a
repeated-instance sweep — the shape of every competitive-ratio grid and of
any service seeing the same request twice — a warm cache answers at lookup
speed instead of solver speed.  This benchmark runs the same sweep through
:func:`repro.batch.solve_stream` three ways (cold with no cache, a cache
warm-up over the unique instances, then fully warm), checks the warm results
are byte-identical to the cold ones, and writes a machine-readable summary
to ``benchmarks/results/BENCH_cache.json``.

A second axis, **backend**, measures the per-request write and hit latency
of every :mod:`repro.cache_store` backend (the in-memory LRU front, the
sharded ``disk-json`` directory and the WAL-mode ``sqlite`` store) through
the same :class:`repro.cache.ResultCache` front the serve loop uses.

Running this file directly with ``--quick`` is the CI smoke: a small-scale
re-measurement of the backend axis plus a check that the committed
``BENCH_cache.json`` carries the backend section.

The acceptance floor asserted by the full run: warm is at least 10x faster
than cold.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.api import SolveRequest
from repro.api import solve as api_solve
from repro.batch import solve_stream
from repro.cache import ResultCache
from repro.cache_store import SqliteStore
from repro.workloads import figure1_power, poisson_instance

RESULTS = Path(__file__).parent / "results"

N_JOBS = 500
UNIQUE = 10
REPEATS = 4  # each unique instance appears this many times in the sweep
ENERGY = 2.5 * N_JOBS


def _requests(instances, power):
    return [
        SolveRequest(instance=inst, power=power, solver="laptop", budget=ENERGY)
        for inst in instances
    ]


def _per_request_us(fn, requests) -> float:
    start = time.perf_counter()
    for request in requests:
        fn(request)
    return (time.perf_counter() - start) / len(requests) * 1e6


def _measure_backends(requests, results) -> dict:
    """Per-request hit latency of each cache-store backend (LRU front off
    for the persistent ones, so every get pays the store read)."""
    memory_cache = ResultCache()
    miss_us = _per_request_us(memory_cache.get, requests)  # all misses
    for request, result in zip(requests, results):
        memory_cache.put(request, result)
    backends = {
        "memory": {"hit_us": _per_request_us(memory_cache.get, requests)},
        "miss_overhead_us": miss_us,
    }
    with tempfile.TemporaryDirectory() as tmp:
        disk_cache = ResultCache(directory=Path(tmp) / "json",
                                 max_memory_entries=0)
        start = time.perf_counter()
        for request, result in zip(requests, results):
            disk_cache.put(request, result)
        write_us = (time.perf_counter() - start) / len(requests) * 1e6
        backends["disk-json"] = {
            "write_us": write_us,
            "hit_us": _per_request_us(disk_cache.get, requests),
        }
        store = SqliteStore(Path(tmp) / "cache.sqlite3")
        sqlite_cache = ResultCache(store=store, max_memory_entries=0)
        start = time.perf_counter()
        for request, result in zip(requests, results):
            sqlite_cache.put(request, result)
        write_us = (time.perf_counter() - start) / len(requests) * 1e6
        backends["sqlite"] = {
            "write_us": write_us,
            "hit_us": _per_request_us(sqlite_cache.get, requests),
        }
        assert sqlite_cache.stats().disk_errors == 0
        store.close()
    return backends


def test_cache_throughput():
    power = figure1_power()
    unique = [poisson_instance(N_JOBS, seed=i) for i in range(UNIQUE)]
    sweep = unique * REPEATS

    # cold: every item goes to the solver
    start = time.perf_counter()
    cold = list(solve_stream(sweep, power, ENERGY, solver="laptop"))
    t_cold = time.perf_counter() - start

    # warm-up: one solve per unique instance fills the cache (untimed)
    cache = ResultCache()
    list(solve_stream(unique, power, ENERGY, solver="laptop", cache=cache))

    # warm: the whole sweep is answered from the cache
    start = time.perf_counter()
    warm = list(solve_stream(sweep, power, ENERGY, solver="laptop", cache=cache))
    t_warm = time.perf_counter() - start

    stats = cache.stats()
    assert stats.hits >= len(sweep), "warm sweep must be answered from the cache"
    assert len(warm) == len(cold) == len(sweep)
    for a, b in zip(warm, cold):
        assert a.index == b.index
        assert a.value == b.value
        assert a.energy == b.energy
        assert a.speeds.tobytes() == b.speeds.tobytes()

    speedup = t_cold / t_warm
    # the acceptance floor: a warm repeated-instance sweep is >= 10x cold
    assert speedup >= 10.0, f"warm cache only {speedup:.1f}x faster than cold"

    # the backend axis on the same request population
    requests = _requests(unique, power)
    results = [api_solve(request) for request in requests]
    backends = _measure_backends(requests, results)

    report = {
        "benchmark": "cache_throughput",
        "solver": "laptop",
        "cpu_count": os.cpu_count(),
        "n_jobs": N_JOBS,
        "sweep": {"items": len(sweep), "unique": UNIQUE, "repeats": REPEATS},
        "cold_seconds": t_cold,
        "warm_seconds": t_warm,
        "warm_speedup": speedup,
        "byte_identical": True,
        "backends": backends,
        # kept for dashboards reading the original flat section
        "latency_us": {
            "miss_overhead": backends["miss_overhead_us"],
            "memory_hit": backends["memory"]["hit_us"],
            "disk_hit": backends["disk-json"]["hit_us"],
        },
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "BENCH_cache.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"\ncache throughput: cold {t_cold:.3f}s, warm {t_warm:.4f}s "
        f"({speedup:.0f}x), memory hit {backends['memory']['hit_us']:.1f}us, "
        f"disk-json hit {backends['disk-json']['hit_us']:.1f}us, "
        f"sqlite hit {backends['sqlite']['hit_us']:.1f}us"
    )


def _quick_smoke() -> int:
    """CI smoke: tiny backend re-measurement; committed results must be fresh.

    "Fresh" means the committed ``BENCH_cache.json`` carries the
    ``backends`` section this file writes, with one entry per backend — a
    PR touching the cache-store layer without regenerating the numbers
    fails here.
    """
    power = figure1_power()
    requests = _requests([poisson_instance(200, seed=i) for i in range(3)], power)
    results = [api_solve(request) for request in requests]
    backends = _measure_backends(requests, results)
    print(
        "quick smoke: 3 envelopes of 200 jobs — hit "
        + ", ".join(
            f"{name} {backends[name]['hit_us']:.1f}us"
            for name in ("memory", "disk-json", "sqlite")
        )
    )

    path = RESULTS / "BENCH_cache.json"
    if not path.exists():
        print(f"FAIL: {path} missing — regenerate with the full benchmark")
        return 1
    committed = json.loads(path.read_text(encoding="utf-8")).get("backends")
    if committed is None:
        print(f"FAIL: {path} has no 'backends' section — regenerate with "
              "the full benchmark")
        return 1
    status = 0
    for backend in ("memory", "disk-json", "sqlite"):
        if "hit_us" not in committed.get(backend, {}):
            print(f"FAIL: {path} backends section lacks a {backend!r} hit latency")
            status = 1
    return status


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small backend re-measurement, assert the committed "
             "BENCH_cache.json carries the backend section",
    )
    args = parser.parse_args()
    if args.quick:
        sys.exit(_quick_smoke())
    test_cache_throughput()
    print("full cache benchmark written to", RESULTS)
