"""Uniprocessor power-aware makespan (Section 3 of the paper).

* :func:`incmerge` -- the linear-time laptop-problem solver (Section 3.1).
* :func:`makespan_frontier` -- every non-dominated schedule (Section 3.2,
  Figures 1-3), returned as a :class:`TradeoffCurve`: one
  :class:`FrontierSegment` record per block configuration, with the makespan,
  its slope and its curvature in closed form.
* :func:`minimum_energy_for_makespan` -- the server problem, by reversing
  time: one upper-hull pass over the jobs' windows to the target
  (:func:`speeds_for_windows`).
* :mod:`~repro.makespan.oracle` -- brute-force and ``O(n^2)`` DP reference
  solvers used as correctness oracles (the independent SLSQP program is a
  test oracle, ``tests/oracles/convex_ref.py``).
* :mod:`~repro.makespan.baselines` -- quadratic-time and naive baselines used
  in the benchmarks.
"""

from .baselines import quadratic_laptop, server_energy_via_yds, uniform_speed_schedule
from .frontier import (
    FrontierSegment,
    TradeoffCurve,
    makespan_frontier,
    schedule_for_energy,
)
from .incmerge import IncMergeResult, incmerge, incmerge_speeds
from .oracle import OracleResult, brute_force_laptop, dp_laptop
from .server import (
    minimum_energy_for_makespan,
    schedule_for_makespan,
    server_speeds,
    speeds_for_windows,
)

__all__ = [
    "IncMergeResult",
    "incmerge",
    "incmerge_speeds",
    "FrontierSegment",
    "TradeoffCurve",
    "makespan_frontier",
    "schedule_for_energy",
    "minimum_energy_for_makespan",
    "schedule_for_makespan",
    "server_speeds",
    "speeds_for_windows",
    "OracleResult",
    "brute_force_laptop",
    "dp_laptop",
    "quadratic_laptop",
    "server_energy_via_yds",
    "uniform_speed_schedule",
]
