"""Quickstart: power-aware scheduling of a handful of jobs on one processor.

This walks through the paper's two central questions on a small instance:

* the *laptop problem* -- "given this much battery, how fast can I finish?"
  (solved exactly by IncMerge, Section 3.1 of the paper),
* the *server problem* -- "given this deadline, how little energy do I need?"
  (YDS with every deadline at the target, solved by reversing time: one
  upper hull over the jobs' windows),

and prints the resulting schedules, their block structure and the energy /
makespan trade-off curve.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import ascii_plot, format_table
from repro.core import Instance, PolynomialPower
from repro.makespan import incmerge, makespan_frontier, minimum_energy_for_makespan


def main() -> None:
    # Jobs: (release time, work).  Work is in "billions of cycles"; a speed of
    # 1.0 means one unit of work per unit of time.
    instance = Instance.from_arrays(
        releases=[0.0, 1.0, 4.0, 4.5, 9.0],
        works=[3.0, 1.0, 2.0, 1.5, 2.0],
        name="quickstart",
    )
    # The classic DVFS model: power = speed^3.
    power = PolynomialPower(3.0)

    print(f"Instance: {instance}")
    print()

    # ------------------------------------------------------------------
    # Laptop problem: fix the energy budget, minimise the makespan.
    # ------------------------------------------------------------------
    energy_budget = 15.0
    result = incmerge(instance, power, energy_budget)
    print(f"Laptop problem with energy budget {energy_budget:g}:")
    print(f"  optimal makespan = {result.makespan:.4f}")
    print(f"  energy used      = {result.energy:.4f} (the optimum always spends the budget)")
    rows = [
        [f"jobs {b.first}..{b.last}", b.start_time, b.end_time, b.speed]
        for b in result.blocks
    ]
    print(format_table(["block", "start", "end", "speed"], rows, title="  block structure:"))

    schedule = result.schedule()
    schedule.validate(energy_budget=energy_budget * (1 + 1e-9))
    print(f"  schedule check: feasible, total flow = {schedule.total_flow:.4f}")
    print()

    # ------------------------------------------------------------------
    # Server problem: fix the deadline, minimise the energy.
    # ------------------------------------------------------------------
    deadline = 12.0
    needed = minimum_energy_for_makespan(instance, power, deadline)
    print(f"Server problem with makespan target {deadline:g}:")
    print(f"  minimum energy = {needed:.4f}")
    roundtrip = incmerge(instance, power, needed).makespan
    print(f"  (check: spending exactly that energy gives makespan {roundtrip:.4f})")
    print()

    # ------------------------------------------------------------------
    # The whole trade-off curve (every non-dominated schedule).
    # ------------------------------------------------------------------
    curve = makespan_frontier(instance, power)
    print(f"Non-dominated frontier: {len(curve.segments)} block configurations, "
          f"configuration changes at E = {[round(b, 3) for b in curve.breakpoints]}")
    grid = np.linspace(6.0, 40.0, 60)
    print(ascii_plot(grid, curve.sample(grid), x_label="energy budget",
                     y_label="optimal makespan", title="energy vs makespan"))


if __name__ == "__main__":
    main()
