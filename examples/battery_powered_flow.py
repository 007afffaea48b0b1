"""Minimising response time (total flow) on a battery budget.

Scenario from the paper's Section 4: a batch of equal-size requests arrives
over time on a battery-powered device.  We want the best average response
time for a given battery budget, and the full response-time/energy trade-off
to pick an operating point from.

Demonstrates:

* the equal-work flow solver (exact to rounding: Theorem 1's levels by one
  isotonic sweep and a root-find on the last job's speed, replaced by the
  closed form whenever Theorem 8's hard case does not occur),
* verifying the Theorem 1 speed relations on the computed optimum,
* the Theorem 8 hard instance itself (why exact closed forms cannot exist).

Run with:  python examples/battery_powered_flow.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import ascii_plot, format_table
from repro.core import PolynomialPower
from repro.flow import (
    equal_work_flow_laptop,
    equal_work_flow_server,
    solve_optimality_system,
    theorem8_polynomial,
    verify_theorem1,
)
from repro.workloads import equal_work_instance, theorem8_instance


def main() -> None:
    power = PolynomialPower(3.0)
    requests = equal_work_instance(12, seed=7, arrival_rate=1.5, work=1.0,
                                   name="request-batch")
    print(f"Workload: {requests}")
    print()

    # ------------------------------------------------------------------
    # Laptop problem for flow: best average response time per battery budget.
    # ------------------------------------------------------------------
    budgets = np.geomspace(1.0, 40.0, 12)
    rows = []
    for energy in budgets:
        result = equal_work_flow_laptop(requests, power, float(energy))
        holds = verify_theorem1(requests, power, result.speeds, rtol=1e-9)
        rows.append([
            float(energy),
            result.flow,
            result.flow / requests.n_jobs,
            "closed form" if result.exact else "root-find",
            "yes" if holds else "no",
        ])
    print(format_table(
        ["battery budget", "total flow", "avg response time", "solution type", "Theorem 1 holds"],
        rows,
        title="Response time vs battery budget",
    ))
    print(ascii_plot(budgets, [r[1] for r in rows], x_label="energy budget",
                     y_label="total flow", title="flow / energy trade-off"))

    # ------------------------------------------------------------------
    # Server problem: the SLA says average response time <= 1.2 time units.
    # ------------------------------------------------------------------
    sla_total_flow = 1.2 * requests.n_jobs
    server = equal_work_flow_server(requests, power, sla_total_flow)
    print(f"Minimum battery to keep average response time below 1.2: "
          f"{server.energy:.4f} energy units (achieved flow {server.flow:.4f})")
    print()

    # ------------------------------------------------------------------
    # The Theorem 8 hard instance: why there is no closed form in general.
    # ------------------------------------------------------------------
    hard = theorem8_instance()
    system = solve_optimality_system(energy_budget=9.0)
    print("Theorem 8 hard instance (three unit jobs released at 0, 0, 1; E = 9):")
    print(f"  the C2 = 1 branch requires sigma_2 = {system.sigma2:.12f},")
    print(f"  which is a root of the paper's degree-12 polynomial "
          f"(residual {theorem8_polynomial(system.sigma2):.2e}) with no rational roots --")
    print("  i.e. no formula built from +, -, *, / and k-th roots can output it exactly.")
    best = equal_work_flow_laptop(hard, power, 9.0)
    print(f"  our solver's optimum at E = 9: flow = {best.flow:.6f} "
          f"(completion of job 2 = {best.completion_times[1]:.4f}; README's "
          "\"Deviations from the paper\" records the discrepancy with the "
          "paper's stated window)")


if __name__ == "__main__":
    main()
