"""An online DVFS "governor" playground: AVR, OA and BKP against the offline optimum.

The paper's future-work section singles out online power-aware scheduling as
the key open problem and cites the deadline-based online algorithms AVR, OA
and BKP.  This example simulates those governors on a synthetic interactive
workload (jobs with deadlines derived from a latency target), measures their
energy against the offline optimum (YDS), and shows the effect of quantising
the offline plan onto a discrete frequency ladder (the paper's Athlon 64
levels) -- the two "more realistic model" directions Section 6 sketches.

Run with:  python examples/online_dvfs_governor.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.core import PolynomialPower
from repro.discrete import quantize_schedule, uniform_levels
from repro.online import avr_schedule, bkp_schedule, oa_schedule_incremental, yds_schedule
from repro.workloads import deadline_instance


def main() -> None:
    power = PolynomialPower(3.0)

    print("Online DVFS governors vs the offline optimum (per-seed energy ratios)")
    rows = []
    for seed in range(5):
        workload = deadline_instance(10, seed=seed, arrival_rate=1.2, laxity=2.5)
        optimal = yds_schedule(workload, power)
        avr = avr_schedule(workload, power)
        oa = oa_schedule_incremental(workload, power)
        bkp = bkp_schedule(workload, power, steps_per_interval=32)
        rows.append([
            seed,
            optimal.energy,
            avr.energy / optimal.energy,
            oa.energy / optimal.energy,
            bkp.energy / optimal.energy,
        ])
    print(format_table(
        ["seed", "optimal energy (YDS)", "AVR / OPT", "OA / OPT", "BKP / OPT"],
        rows,
        title="energy ratios (lower is better; 1.0 = offline optimal)",
    ))
    means = np.mean(np.array([[r[2], r[3], r[4]] for r in rows]), axis=0)
    print(f"mean ratios: AVR {means[0]:.3f}, OA {means[1]:.3f}, BKP {means[2]:.3f}")
    print("(theoretical worst cases for alpha=3: AVR 2^2*27=108, OA 27, BKP ~135 -- the")
    print(" synthetic workloads are far from adversarial, as expected)")
    print()

    # ------------------------------------------------------------------
    # discrete frequency ladders on top of the offline plan
    # ------------------------------------------------------------------
    workload = deadline_instance(10, seed=0, arrival_rate=1.2, laxity=2.5)
    plan = yds_schedule(workload, power)
    top = max(piece.speed for piece in plan.pieces) * 1.01
    rows = []
    for levels in (2, 3, 5, 10, 20):
        ladder = uniform_levels(levels, max_speed=top)
        quantised = quantize_schedule(plan, ladder)
        rows.append([levels, quantised.energy_overhead, len(quantised.clamped_jobs)])
    print(format_table(
        ["frequency levels", "energy overhead vs continuous", "clamped jobs"],
        rows,
        title="two-level emulation of the offline plan on discrete frequency ladders",
    ))


if __name__ == "__main__":
    main()
