"""EXT-ONLINE v2 -- competitive-ratio pipeline + online engine speedups.

Extension experiment (the paper's Section 6 lists online power-aware
scheduling as future work; Section 2 cites AVR, OA and BKP with their
competitive ratios).  Rebuilt on the online engine v2:

* the empirical energy ratios vs the offline optimum (YDS) now come from the
  :func:`repro.online.compete.competitive_sweep` pipeline — the full
  {algorithm x alpha x family x size x seed} grid through the batch engine,
  including the two adversarial workload families (staircase deadlines and
  nested intervals) where the ratios degrade toward their bounds,
* the incremental OA engine (:func:`repro.online.oa.oa_schedule_incremental`)
  is timed against the scalar replan-from-scratch reference at n = 500 on
  every deadline family; the adversarial families must show >= 10x,
* the vectorized AVR/BKP profile builders and the event-driven EDF executor
  are timed against their scalar references (the scalar OA, AVR, BKP and
  executor references are the oracles in ``tests/oracles/``).

Everything is recorded machine-readably in ``results/BENCH_online.json``
(plus the human-readable ``results/online_competitive.txt``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from conftest import best_of as _best_of
from repro.analysis import format_table
from repro.core import CUBE
from repro.online import (
    avr_speed_profile,
    bkp_speed_profile,
    competitive_sweep,
    execute_profile_edf,
    oa_schedule_incremental,
)
from repro.workloads import (
    deadline_instance,
    nested_interval_instance,
    staircase_deadline_instance,
)

_TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS not in sys.path:  # the scalar references live with the test oracles
    sys.path.insert(0, _TESTS)
from oracles.avr import avr_speed_profile_reference  # noqa: E402
from oracles.bkp import bkp_speed_profile_reference  # noqa: E402
from oracles.executor import execute_profile_edf_reference  # noqa: E402
from oracles.oa import oa_schedule  # noqa: E402

RESULTS = Path(__file__).parent / "results"

OA_BENCH_N = 500
OA_REQUIRED_SPEEDUP = 10.0

FAMILIES_AT_N = {
    "staircase": lambda n: staircase_deadline_instance(n, seed=0),
    "nested": lambda n: nested_interval_instance(n, seed=0),
    "deadline": lambda n: deadline_instance(n, seed=0, laxity=3.0),
}


def _write(name: str, text: str) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / name).write_text(text, encoding="utf-8")


def _oa_speedups() -> dict:
    rows = {}
    for family, make in FAMILIES_AT_N.items():
        instance = make(OA_BENCH_N)
        scalar_seconds, reference = _best_of(
            lambda: oa_schedule(instance, CUBE), repeats=1
        )
        incremental_seconds, incremental = _best_of(
            lambda: oa_schedule_incremental(instance, CUBE), repeats=3
        )
        rel_diff = abs(incremental.energy - reference.energy) / reference.energy
        rows[family] = {
            "n_jobs": OA_BENCH_N,
            "scalar_seconds": scalar_seconds,
            "incremental_seconds": incremental_seconds,
            "speedup": scalar_seconds / incremental_seconds,
            "energy_rel_diff": rel_diff,
        }
    return rows


def _profile_speedups() -> dict:
    out = {}
    instance = deadline_instance(240, seed=1, laxity=3.0)
    avr_ref, _ = _best_of(lambda: avr_speed_profile_reference(instance))
    avr_vec, _ = _best_of(lambda: avr_speed_profile(instance))
    out["avr_profile"] = {
        "n_jobs": 240,
        "reference_seconds": avr_ref,
        "vectorized_seconds": avr_vec,
        "speedup": avr_ref / avr_vec,
    }
    bkp_ref, _ = _best_of(
        lambda: bkp_speed_profile_reference(instance, steps_per_interval=16), repeats=1
    )
    bkp_vec, profile = _best_of(
        lambda: bkp_speed_profile(instance, steps_per_interval=16)
    )
    out["bkp_profile"] = {
        "n_jobs": 240,
        "steps_per_interval": 16,
        "reference_seconds": bkp_ref,
        "vectorized_seconds": bkp_vec,
        "speedup": bkp_ref / bkp_vec,
    }
    exec_ref, _ = _best_of(
        lambda: execute_profile_edf_reference(
            instance, CUBE, profile, work_tolerance=1e-3
        ),
        repeats=1,
    )
    exec_fast, _ = _best_of(
        lambda: execute_profile_edf(instance, CUBE, profile, work_tolerance=1e-3)
    )
    out["edf_executor"] = {
        "n_jobs": 240,
        "segments": len(profile),
        "reference_seconds": exec_ref,
        "event_driven_seconds": exec_fast,
        "speedup": exec_ref / exec_fast,
    }
    return out


def _experiment():
    competitive = competitive_sweep(
        algorithms=("avr", "oa", "bkp"),
        alphas=(2.0, 3.0),
        families=("deadline", "staircase", "nested"),
        sizes=(8, 16),
        seeds=4,
    )
    return {
        "kind": "bench-online",
        "competitive": competitive,
        "oa_speedup": {
            "required_speedup": OA_REQUIRED_SPEEDUP,
            "families": _oa_speedups(),
        },
        "profile_speedups": _profile_speedups(),
    }


def test_online_engine_v2(benchmark):
    payload = benchmark.pedantic(_experiment, rounds=1, iterations=1)

    # --- competitive ratios stay within their theoretical guarantees -------
    for row in payload["competitive"]["summary"]:
        assert row["min_ratio"] >= 1.0 - 1e-6, row
        if row["algorithm"] in ("avr", "oa"):
            assert row["max_ratio"] <= row["bound"] * (1.0 + 1e-9), row
    # the adversarial families must actually be adversarial for OA: worse
    # mean ratio than the benign Poisson-laxity family at alpha = 3
    oa3 = {
        row["family"]: row["mean_ratio"]
        for row in payload["competitive"]["summary"]
        if row["algorithm"] == "oa" and row["alpha"] == 3.0
    }
    assert oa3["staircase"] > oa3["deadline"]

    # --- incremental OA: equal energies, >= 10x on the adversarial families
    families = payload["oa_speedup"]["families"]
    for family, row in families.items():
        assert row["energy_rel_diff"] <= 1e-9, (family, row)
    assert families["staircase"]["speedup"] >= OA_REQUIRED_SPEEDUP, families
    assert families["nested"]["speedup"] >= OA_REQUIRED_SPEEDUP, families

    # --- vectorized profiles / event-driven executor beat their references -
    assert payload["profile_speedups"]["bkp_profile"]["speedup"] > 2.0
    assert payload["profile_speedups"]["edf_executor"]["speedup"] > 2.0

    _write("BENCH_online.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")

    table = [
        [r["algorithm"], r["alpha"], r["family"], r["mean_ratio"], r["max_ratio"], r["bound"]]
        for r in payload["competitive"]["summary"]
    ]
    speed_table = [
        [family, row["scalar_seconds"], row["incremental_seconds"], row["speedup"]]
        for family, row in families.items()
    ]
    text = (
        format_table(
            ["algorithm", "alpha", "family", "mean ratio", "max ratio", "bound"],
            table,
            title="Online speed scaling vs offline optimum (YDS), competitive-ratio pipeline",
        )
        + "\n"
        + format_table(
            ["family", "scalar OA (s)", "incremental OA (s)", "speedup"],
            speed_table,
            title=f"Incremental OA vs scalar replanning reference at n = {OA_BENCH_N}",
        )
    )
    _write("online_competitive.txt", text)
