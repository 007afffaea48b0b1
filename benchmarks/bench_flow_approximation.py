"""FLOW-APPROX -- the arbitrarily-good approximation for equal-work total flow.

Paper context (Sections 2 and 4): the optimal flow cannot be computed exactly
with radicals (Theorem 8), but an arbitrarily-good approximation exists.  This
benchmark measures, on equal-work workloads:

* agreement between the library's exact solver (the isotonic sweep, refined
  to closed form whenever the optimal configuration has no tight boundary)
  and a generic convex program, the SLSQP oracle in ``tests/oracles/flow.py``,
* the laptop/server round trip (flow target -> energy -> flow),
* the flow/energy trade-off series (the flow analogue of Figure 1), checking
  it is decreasing and convex in shape.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import format_table
from repro.flow import equal_work_flow_laptop, equal_work_flow_server
from repro.workloads import equal_work_instance, figure1_power

_TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS not in sys.path:  # the SLSQP program lives with the test oracles
    sys.path.insert(0, _TESTS)
from oracles.flow import convex_flow_laptop  # noqa: E402

RESULTS = Path(__file__).parent / "results"


def _write(name: str, text: str) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / name).write_text(text, encoding="utf-8")


def _experiment():
    power = figure1_power()
    instance = equal_work_instance(8, seed=4, arrival_rate=1.2)
    budgets = np.geomspace(0.8, 30.0, 10)
    rows = []
    for energy in budgets:
        refined = equal_work_flow_laptop(instance, power, float(energy))
        approx = convex_flow_laptop(instance, power, float(energy))
        server = equal_work_flow_server(instance, power, refined.flow * 1.000001)
        rows.append(
            {
                "energy": float(energy),
                "flow_refined": refined.flow,
                "flow_convex": approx.flow,
                "exact_closed_form": refined.exact,
                "server_energy": server.energy,
            }
        )
    return instance, rows


def test_flow_approximation(benchmark):
    instance, rows = benchmark.pedantic(_experiment, rounds=1, iterations=1)

    flows = [r["flow_refined"] for r in rows]
    assert all(b < a for a, b in zip(flows, flows[1:]))               # decreasing in energy
    for row in rows:
        # the exact solver never loses to the generic convex program
        assert row["flow_refined"] <= row["flow_convex"] * (1 + 1e-9)
        # the two agree to SLSQP's tolerance
        assert row["flow_refined"] == pytest.approx(row["flow_convex"], rel=1e-6)
        # server round trip recovers the budget
        assert row["server_energy"] == pytest.approx(row["energy"], rel=1e-5)

    table = [
        [r["energy"], r["flow_refined"], r["flow_convex"],
         "yes" if r["exact_closed_form"] else "no", r["server_energy"]]
        for r in rows
    ]
    text = format_table(
        ["energy", "flow_refined", "flow_convex", "closed_form", "server_energy_roundtrip"],
        table,
        title=f"Equal-work flow approximation sweep on {instance.name} (alpha=3)",
    )
    _write("flow_approximation.txt", text)
