"""Bitwise oracles for the array-native BKP path.

The library keeps one implementation of each hot path; the loops it
replaced live here, unchanged, as the references the equivalence suite
(``tests/test_online_equivalence.py``) and
``benchmarks/bench_online_competitive.py`` compare against:

* :mod:`oracles.bkp` -- the scalar :func:`~oracles.bkp.bkp_speed_at`
  evaluation, the one-call-per-slice :func:`~oracles.bkp.bkp_speed_profile_reference`
  and the per-interval grid profile
  :func:`~oracles.bkp.bkp_speed_profile_per_interval`;
* :mod:`oracles.executor` -- the heap EDF loop
  :func:`~oracles.executor.execute_profile_edf_heap`, the full-rescan
  :func:`~oracles.executor.execute_profile_edf_reference` and the
  ``Piece``-based :func:`~oracles.executor.conserve_work_pieces`;
* :mod:`oracles.quantize` -- the one-segment-at-a-time profile quantiser
  :func:`~oracles.quantize.quantize_profile_loop`.

Import them as ``from oracles.bkp import ...`` (``tests/`` is on
``sys.path`` under pytest; the benchmark adds it itself).
"""
