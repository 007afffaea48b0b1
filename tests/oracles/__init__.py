"""Oracles: the replaced implementations the library is pinned to.

The library keeps one implementation of each hot path; the code it
replaced lives here, unchanged, as the references the equivalence suites
(``tests/test_online_equivalence.py``, ``tests/test_sim_equivalence.py``,
``tests/test_flow_oracle.py``) and the benchmarks compare against:

* :mod:`oracles.bkp` -- the scalar :func:`~oracles.bkp.bkp_speed_at`
  evaluation, the one-call-per-slice :func:`~oracles.bkp.bkp_speed_profile_reference`
  and the per-interval grid profile
  :func:`~oracles.bkp.bkp_speed_profile_per_interval`;
* :mod:`oracles.executor` -- the heap EDF loop
  :func:`~oracles.executor.execute_profile_edf_heap`, the full-rescan
  :func:`~oracles.executor.execute_profile_edf_reference` and the
  ``Piece``-based :func:`~oracles.executor.conserve_work_pieces`;
* :mod:`oracles.quantize` -- the one-segment-at-a-time profile quantiser
  :func:`~oracles.quantize.quantize_profile_loop`;
* :mod:`oracles.edf` -- the rescanning per-job-speed EDF loop
  :func:`~oracles.edf.edf_schedule_at_speeds_scan` with its piece merge
  :func:`~oracles.edf.merge_adjacent`;
* :mod:`oracles.sim` -- the eager replay walk
  :func:`~oracles.sim.simulate_eager` (Python run merge
  :func:`~oracles.sim.merged_runs`, one ``SimEvent`` per event, key-sorted);
* :mod:`oracles.yds` -- the scalar member-set YDS loop
  :func:`~oracles.yds.yds_speeds_reference`;
* :mod:`oracles.avr` -- the one-scan-per-segment AVR profile
  :func:`~oracles.avr.avr_speed_profile_reference`;
* :mod:`oracles.oa` -- OA simulated literally with a full YDS plan per
  arrival, :func:`~oracles.oa.oa_schedule`, and the incremental engine's
  one-``Piece``-per-step loop
  :func:`~oracles.oa.oa_schedule_incremental_pieces`;
* :mod:`oracles.flow` -- the SLSQP programs for release-order flow
  (:func:`~oracles.flow.convex_flow_laptop`,
  :func:`~oracles.flow.convex_flow_server`,
  :func:`~oracles.flow.flow_for_assignment`), which the exact sweep must
  never lose to.
* :mod:`oracles.convex_ref` -- the SLSQP program for the laptop makespan
  problem, :func:`~oracles.convex_ref.convex_laptop_makespan`, an
  independent check on IncMerge.

Import them as ``from oracles.bkp import ...`` (``tests/`` is on
``sys.path`` under pytest; the benchmarks add it themselves).
"""
