"""Core model: jobs, power functions, schedules, blocks, metrics.

Everything in this subpackage is algorithm-agnostic: it defines the problem
(Section 1 of the paper), the schedule objects the algorithms produce and
the block machinery of Section 3.  The non-dominated frontier of Section 3.2
is :class:`repro.makespan.TradeoffCurve`.
"""

from . import kernels
from .blocks import Block, BlockConfiguration, blocks_from_speeds, evaluate_configuration, fixed_block_speed
from .job import Instance, Job
from .metrics import (
    MAKESPAN,
    MAX_FLOW,
    METRICS,
    TOTAL_FLOW,
    TOTAL_WEIGHTED_FLOW,
    Metric,
    evaluate,
)
from .power import (
    CUBE,
    SQUARE,
    AffinePolynomialPower,
    PolynomialPower,
    PowerFunction,
    TabulatedConvexPower,
)
from .schedule import Piece, Schedule
from .speed_profile import SpeedProfile, SpeedSegment, profile_from_schedule

#: Lemma 2-6 structure checks now live in :mod:`repro.verify.structure`; the
#: re-exports below are resolved lazily (module ``__getattr__``) to keep
#: ``repro.core`` free of an eager core -> verify import edge.
_STRUCTURE_EXPORTS = (
    "StructureReport",
    "check_optimal_structure",
    "assert_optimal_structure",
)


def __getattr__(name: str):
    if name in _STRUCTURE_EXPORTS:
        from ..verify import structure

        return getattr(structure, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "kernels",
    "Block",
    "BlockConfiguration",
    "blocks_from_speeds",
    "evaluate_configuration",
    "fixed_block_speed",
    "Instance",
    "Job",
    "Metric",
    "METRICS",
    "MAKESPAN",
    "TOTAL_FLOW",
    "TOTAL_WEIGHTED_FLOW",
    "MAX_FLOW",
    "evaluate",
    "PowerFunction",
    "PolynomialPower",
    "AffinePolynomialPower",
    "TabulatedConvexPower",
    "CUBE",
    "SQUARE",
    "Piece",
    "Schedule",
    "SpeedProfile",
    "SpeedSegment",
    "profile_from_schedule",
    "StructureReport",
    "check_optimal_structure",
    "assert_optimal_structure",
]
