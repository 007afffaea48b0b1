"""ALG-MAKESPAN (solution quality) -- optimal schedules vs baselines on synthetic workloads.

Paper context: the value of computing the true non-dominated schedules is
that naive policies waste energy or time.  This benchmark sweeps energy
budgets on Poisson and bursty workloads and reports the makespan of

* IncMerge (optimal),
* the convex-programming reference (must agree with IncMerge),
* the uniform-speed baseline (ignores the release structure),

plus the server-problem cross-check (frontier inversion vs the YDS
common-deadline oracle).  The expected *shape*: the optimum always wins, the
baseline's penalty grows with the budget (more energy means more opportunity
to waste by racing ahead of future releases), and the two server oracles
agree to numerical precision.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import format_table
from repro.makespan import (
    incmerge,
    minimum_energy_for_makespan,
    server_energy_via_yds,
    uniform_speed_schedule,
)
from repro.workloads import bursty_instance, figure1_power, poisson_instance

_TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS not in sys.path:  # the SLSQP program lives with the test oracles
    sys.path.insert(0, _TESTS)
from oracles.convex_ref import convex_laptop_makespan  # noqa: E402

RESULTS = Path(__file__).parent / "results"


def _write(name: str, text: str) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / name).write_text(text, encoding="utf-8")


def _experiment():
    power = figure1_power()
    workloads = [
        poisson_instance(12, seed=1, arrival_rate=1.0),
        bursty_instance(12, seed=2, burst_size=4, gap=6.0),
    ]
    rows = []
    for instance in workloads:
        for energy in (0.5 * instance.n_jobs, 1.5 * instance.n_jobs, 4.0 * instance.n_jobs):
            optimal = incmerge(instance, power, energy)
            reference = convex_laptop_makespan(instance, power, energy)
            baseline = uniform_speed_schedule(instance, power, energy)
            server_a = minimum_energy_for_makespan(instance, power, optimal.makespan)
            server_b = server_energy_via_yds(instance, power, optimal.makespan)
            rows.append(
                {
                    "workload": instance.name,
                    "energy": energy,
                    "optimal": optimal.makespan,
                    "convex_ref": reference.makespan,
                    "uniform": baseline.makespan,
                    "uniform_penalty": baseline.makespan / optimal.makespan,
                    "server_frontier": server_a,
                    "server_yds": server_b,
                }
            )
    return rows


def test_makespan_baselines(benchmark):
    rows = benchmark.pedantic(_experiment, rounds=1, iterations=1)

    for row in rows:
        assert row["convex_ref"] == pytest.approx(row["optimal"], rel=1e-4)
        assert row["uniform"] >= row["optimal"] - 1e-9
        assert row["server_frontier"] == pytest.approx(row["energy"], rel=1e-6)
        assert row["server_yds"] == pytest.approx(row["energy"], rel=1e-6)

    # the uniform baseline never wins, and loses strictly on every workload
    # for at least one budget (how much it loses depends on the release
    # pattern, so only the sign of the gap is asserted here)
    for name in {row["workload"] for row in rows}:
        penalties = [row["uniform_penalty"] for row in rows if row["workload"] == name]
        assert all(p >= 1.0 - 1e-9 for p in penalties)
        assert max(penalties) > 1.0 + 1e-6

    table = [
        [r["workload"], r["energy"], r["optimal"], r["convex_ref"], r["uniform"],
         r["uniform_penalty"], r["server_frontier"], r["server_yds"]]
        for r in rows
    ]
    text = format_table(
        ["workload", "energy", "incmerge", "convex_ref", "uniform_speed",
         "uniform/optimal", "server_energy_frontier", "server_energy_yds"],
        table,
        title="Uniprocessor makespan: optimal vs baselines, and server-problem cross-check",
    )
    _write("makespan_baselines.txt", text)
