"""YDS-KERNEL -- vectorized YDS speedup over the retained scalar reference.

The vectorized ``yds_speeds`` finds each critical interval with one 2-D
prefix-sum/argmax over the release x deadline grid
(:func:`repro.core.kernels.max_density_interval`); the retained reference
``yds_speeds_reference`` (the oracle in ``tests/oracles/yds.py``)
re-enumerates every pair's member set, which is the seed implementation's
behaviour (~O(n^4) in practice).  This benchmark

* checks the two agree (speeds to 1e-9) on the measured instance,
* measures both at n in {100, 200, 500} (one reference run each -- the
  reference needs about a minute at n=500, which is the point),
* asserts the >= 10x acceptance bar at n=500,
* writes ``benchmarks/results/BENCH_yds_kernel.json`` plus a human-readable
  table.

``test_yds_batched_tier_speedup`` adds the orthogonal batched-tier axis:
whole chunks of small same-shape instances through the registry's
``run_batch`` (one structure-of-arrays plan pass) vs a loop of per-instance
``run`` calls, byte-identical by construction and >=5x faster on one CPU in
the small-n amortisation regime (>=4x floor at the n=64 boundary).

Running this file directly with ``--quick`` is the CI smoke: it re-measures
one n=64 chunk, asserts the batched path is never slower, and fails if the
committed ``BENCH_batch.json`` / ``BENCH_yds_kernel.json`` were not
regenerated with their batched-kernel sections.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from conftest import best_of as _best_of
from repro.analysis import format_table
from repro.online import yds_speeds
from repro.workloads import deadline_instance

_TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS not in sys.path:  # the scalar reference lives with the test oracles
    sys.path.insert(0, _TESTS)
from oracles.yds import yds_speeds_reference  # noqa: E402

RESULTS = Path(__file__).parent / "results"

SIZES = (100, 200, 500)

BATCHED_TIER_SIZES = (8, 16, 64)
BATCHED_TIER_COUNT = 96


def _merge_results(filename: str, update: dict) -> None:
    """Read-modify-write a results JSON so independent sections coexist."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / filename
    data: dict = {}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data.update(update)
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")


def _measure_batched_tier(n: int, count: int, repeats: int = 3) -> dict:
    """Per-instance ``run`` loop vs one ``run_batch`` call on one chunk."""
    from repro.api.registry import REGISTRY
    from repro.api.types import SolveRequest
    from repro.workloads import figure1_power

    power = figure1_power()
    requests = [
        SolveRequest(
            instance=deadline_instance(n, seed=9000 + 17 * n + i, laxity=3.0),
            power=power,
            solver="yds",
        )
        for i in range(count)
    ]
    t_loop, singles = _best_of(
        lambda: [REGISTRY.run(r) for r in requests], repeats=repeats
    )
    t_batch, batched = _best_of(lambda: REGISTRY.run_batch(requests), repeats=repeats)
    for a, b in zip(singles, batched):
        assert a.energy == b.energy
        assert a.speeds.tobytes() == b.speeds.tobytes()
    return {
        "n_jobs": n,
        "chunk_size": count,
        "per_instance_seconds": t_loop,
        "batched_seconds": t_batch,
        "speedup": t_loop / t_batch if t_batch > 0 else float("inf"),
    }


def test_yds_kernel_speedup():
    rows = []
    report: dict = {"benchmark": "yds_kernel", "sizes": {}}
    for n in SIZES:
        instance = deadline_instance(n, seed=7, laxity=3.0)
        t_fast, fast = _best_of(lambda inst=instance: yds_speeds(inst), repeats=3)
        t_ref, ref = _best_of(lambda inst=instance: yds_speeds_reference(inst), repeats=1)
        assert np.allclose(fast.speeds, ref.speeds, rtol=1e-9, atol=1e-9)
        speedup = t_ref / t_fast
        rows.append([n, t_ref, t_fast, speedup])
        report["sizes"][str(n)] = {
            "n_jobs": n,
            "reference_seconds": t_ref,
            "vectorized_seconds": t_fast,
            "speedup": speedup,
        }
        if n == 500:
            assert speedup >= 10.0, (
                f"vectorized YDS must be >= 10x the seed implementation at "
                f"n=500, got {speedup:.1f}x"
            )

    _merge_results("BENCH_yds_kernel.json", report)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "yds_kernel_speedup.txt").write_text(
        format_table(
            ["n_jobs", "reference_seconds", "vectorized_seconds", "speedup"],
            rows,
            title=(
                "vectorized YDS (prefix-sum critical-interval kernel) vs the "
                "retained scalar reference (Poisson deadline workload, laxity 3)"
            ),
        ),
        encoding="utf-8",
    )


def test_yds_batched_tier_speedup():
    tier: dict = {"solver": "yds", "chunk_size": BATCHED_TIER_COUNT, "sizes": {}}
    for n in BATCHED_TIER_SIZES:
        row = _measure_batched_tier(n, BATCHED_TIER_COUNT)
        tier["sizes"][str(n)] = row
        # same tiering as bench_batch_throughput: the amortised-dispatch win
        # shrinks with n, and at n=64 the registry-level ratio straddles 5x
        # (4.7-5.1x on this box) -- hold >=5x in the amortisation regime and
        # a >=4x floor at the boundary; the JSON records the exact number.
        bar = 5.0 if n <= 32 else 4.0
        assert row["speedup"] >= bar, (
            f"batched YDS tier should be >={bar:.0f}x the per-instance "
            f"registry loop on same-shape chunks, got {row['speedup']:.2f}x "
            f"at n={n}"
        )
    _merge_results("BENCH_yds_kernel.json", {"batched_tier": tier})


def _quick_smoke() -> int:
    """CI smoke: one n=64 chunk, batched must not lose; results must be fresh.

    "Fresh" means the committed ``BENCH_batch.json`` / ``BENCH_yds_kernel.json``
    carry the batched-kernel sections this file (and
    ``bench_batch_throughput.py``) write — a PR that touches the batched tier
    without regenerating the numbers fails here.
    """
    row = _measure_batched_tier(64, count=48, repeats=1)
    print(
        f"quick smoke: n=64 chunk of 48 — per-instance {row['per_instance_seconds']:.3f}s, "
        f"batched {row['batched_seconds']:.3f}s ({row['speedup']:.2f}x)"
    )
    if row["speedup"] < 1.0:
        print("FAIL: batched tier slower than per-instance dispatch")
        return 1
    required = {
        "BENCH_yds_kernel.json": "batched_tier",
        "BENCH_batch.json": "batch_kernel",
    }
    status = 0
    for filename, key in required.items():
        path = RESULTS / filename
        if not path.exists():
            print(f"FAIL: {path} missing — regenerate with the full benchmarks")
            status = 1
            continue
        data = json.loads(path.read_text(encoding="utf-8"))
        if key not in data:
            print(
                f"FAIL: {path} has no {key!r} section — regenerate with the "
                "full benchmarks"
            )
            status = 1
    return status


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small n=64 chunk, assert batched never slower and "
             "the committed BENCH_*.json files carry the batched sections",
    )
    args = parser.parse_args()
    if args.quick:
        sys.exit(_quick_smoke())
    test_yds_kernel_speedup()
    test_yds_batched_tier_speedup()
    print("full yds kernel benchmarks written to", RESULTS)
