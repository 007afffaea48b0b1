"""Deadline-based speed scaling: the YDS substrate and the online algorithms.

The paper's primary results are offline; its related-work and future-work
sections lean on the deadline-feasibility model of Yao, Demers and Shenker.
This subpackage provides:

* :mod:`~repro.online.yds` -- the optimal offline algorithm (used as a
  baseline/oracle for the makespan server problem) and the event-driven EDF
  executor for per-job speeds (heap steps at releases and completions,
  columnar schedules) that realises its answers,
* :mod:`~repro.online.avr` -- Average Rate (vectorised event-grid profile),
* :mod:`~repro.online.oa` -- Optimal Available, as the incremental
  prefix-density engine :func:`~repro.online.oa.oa_schedule_incremental`,
* :mod:`~repro.online.bkp` -- the Bansal-Kimbrel-Pruhs algorithm
  (all intervals' slice grids in one blocked pass on the cumulative work
  grid, returned as an ``(S, 3)`` array),
* :mod:`~repro.online.executor` -- event-driven EDF execution of speed
  profiles (heap steps at events, vectorised runs of whole segments,
  columnar schedules),
* :mod:`~repro.online.compete` -- the competitive-ratio evaluation pipeline
  (grid sweeps through :func:`repro.batch.solve_many`, ``repro compete``).

The online algorithms are *extension* experiments: the paper lists online
power-aware scheduling as future work and cites these algorithms; the
benchmark ``bench_online_competitive`` measures their empirical energy ratios
against YDS and writes ``BENCH_online.json``.
"""

from .avr import avr_schedule, avr_speed_profile
from .bkp import bkp_schedule, bkp_speed_profile
from .executor import execute_profile_edf
from .oa import oa_schedule_incremental
from .yds import YDSResult, edf_schedule_at_speeds, yds_schedule, yds_speeds

#: The competitive pipeline's names, resolved on first access (PEP 562).
#: ``compete`` runs on the batch engine and reads ``ALGORITHMS`` off the
#: registry when imported; imported here, it would read it midway through
#: the registry bootstrap that imports ``repro.online.register``, as ``()``.
_COMPETE_EXPORTS = frozenset({"ALGORITHMS", "FAMILIES", "RATIO_BOUNDS", "competitive_sweep"})


def __getattr__(name: str):
    if name in _COMPETE_EXPORTS:
        from . import compete

        return getattr(compete, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "avr_schedule",
    "avr_speed_profile",
    "bkp_schedule",
    "bkp_speed_profile",
    "ALGORITHMS",
    "FAMILIES",
    "RATIO_BOUNDS",
    "competitive_sweep",
    "execute_profile_edf",
    "oa_schedule_incremental",
    "YDSResult",
    "edf_schedule_at_speeds",
    "yds_schedule",
    "yds_speeds",
]
