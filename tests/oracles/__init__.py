"""Oracles: the replaced implementations the library is pinned to.

The library keeps one implementation of each hot path; the code it
replaced lives here, unchanged, as the references the equivalence suites
(``tests/test_online_equivalence.py``, ``tests/test_flow_oracle.py``) and
the benchmarks compare against:

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
* :mod:`oracles.flow` -- the SLSQP programs for release-order flow
  (:func:`~oracles.flow.convex_flow_laptop`,
  :func:`~oracles.flow.convex_flow_server`,
  :func:`~oracles.flow.flow_for_assignment`), which the exact sweep must
  never lose to.

Import them as ``from oracles.bkp import ...`` (``tests/`` is on
``sys.path`` under pytest; the benchmarks add it themselves).
"""
