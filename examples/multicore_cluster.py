"""Scheduling a shared-energy multicore node / small cluster (Section 5).

Scenario: a batch of jobs must run on an m-core node with a single energy
budget (a laptop package power limit, or a rack-level energy cap).  The
example covers both regimes the paper analyses:

* equal-work jobs -- the cyclic assignment of Theorem 10 is provably optimal;
  we solve makespan exactly and total flow exactly to rounding, and show
  the structural facts (all cores finish together; the last job on every core
  runs at the same speed),
* unequal-work jobs released together -- the NP-hard regime of Theorem 11; we
  compare the exact exponential search, the LPT heuristic and the PTAS-style
  scheme, and run the Partition reduction end to end.

Run with:  python examples/multicore_cluster.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.core import PolynomialPower
from repro.multi import (
    decide_partition_via_scheduling,
    exact_zero_release_makespan,
    has_perfect_partition_dp,
    heuristic_multiprocessor_makespan,
    last_job_speeds,
    multiprocessor_flow_equal_work,
    multiprocessor_makespan_equal_work,
    partition_to_scheduling,
    ptas_zero_release_makespan,
)
from repro.workloads import equal_work_instance, partition_elements, zero_release_instance


def equal_work_part(power: PolynomialPower) -> None:
    jobs = equal_work_instance(16, seed=11, arrival_rate=2.0, name="batch-16")
    energy = 20.0
    print(f"Equal-work batch on a shared energy budget of {energy:g}: {jobs}")
    rows = []
    for cores in (1, 2, 4, 8):
        makespan = multiprocessor_makespan_equal_work(jobs, power, cores, energy)
        flow = multiprocessor_flow_equal_work(jobs, power, cores, energy)
        sched = makespan.schedule(jobs, power)
        finishes = sched.processor_completion_times()
        rows.append([
            cores,
            makespan.makespan,
            float(np.ptp(finishes[finishes > 0])),
            flow.flow,
            float(np.ptp(last_job_speeds(flow))),
        ])
    print(format_table(
        ["cores", "optimal makespan", "finish-time spread", "optimal flow", "last-job speed spread"],
        rows,
        title="cyclic assignment (Theorem 10) on m cores",
    ))


def unequal_work_part(power: PolynomialPower) -> None:
    jobs = zero_release_instance(10, seed=13, mean_work=2.0, work_distribution="pareto")
    energy = 25.0
    exact = exact_zero_release_makespan(jobs, power, 3, energy)
    lpt = heuristic_multiprocessor_makespan(jobs, power, 3, energy, "lpt")
    ptas = ptas_zero_release_makespan(jobs, power, 3, energy, epsilon=0.25)
    print("Unequal-work batch (NP-hard regime, Theorem 11), 3 cores:")
    print(format_table(
        ["solver", "makespan", "vs exact"],
        [
            ["exact (exponential search)", exact.makespan, 1.0],
            ["LPT heuristic", lpt.makespan, lpt.makespan / exact.makespan],
            ["PTAS-style scheme (eps=0.25)", ptas.makespan, ptas.makespan / exact.makespan],
        ],
    ))

    print("Partition reduction demo:")
    for planted in (True, False):
        elements = partition_elements(8, seed=3, planted_yes=planted)
        reduction = partition_to_scheduling(elements, power)
        answer = decide_partition_via_scheduling(elements, power)
        truth = has_perfect_partition_dp(elements)
        print(f"  elements {elements} -> scheduler says perfect partition exists: {answer} "
              f"(DP ground truth: {truth}; makespan target B/2 = {reduction.makespan_target:g})")
    print()


def main() -> None:
    power = PolynomialPower(3.0)
    equal_work_part(power)
    print()
    unequal_work_part(power)


if __name__ == "__main__":
    main()
