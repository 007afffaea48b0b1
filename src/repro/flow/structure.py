"""Structural characterisation of optimal equal-work flow schedules (Theorem 1).

Pruhs, Uthaisombut and Woeginger proved (and the paper reproduces as
Theorem 1) that in the optimal equal-work uniprocessor schedule for a given
energy budget with ``power = speed**alpha``:

* if ``C_i < r_{i+1}``  then ``sigma_i == sigma_n``,
* if ``C_i > r_{i+1}``  then ``sigma_i**alpha == sigma_{i+1}**alpha + sigma_n**alpha``,
* if ``C_i == r_{i+1}`` then ``sigma_n**alpha <= sigma_i**alpha <= sigma_{i+1}**alpha + sigma_n**alpha``.

This module provides:

* :class:`FlowConfiguration` -- the per-boundary classification
  (``EARLY`` / ``LATE`` / ``TIGHT``) extracted from a schedule,
* :func:`classify_boundaries` -- build the configuration from speeds,
* :func:`verify_theorem1` -- check a candidate optimal schedule against the
  three relations (the optimality certificate ``repro.verify`` checks the
  flow solvers' output against),
* :func:`closed_form_speeds` -- the closed-form speed vector implied by a
  configuration with no ``TIGHT`` boundaries, parameterised by the final
  job's speed ``sigma_n`` (this is what makes the exact trade-off computable
  when relation 3 does not occur, cf. Section 4's discussion).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ..core.job import Instance
from ..core.power import PowerFunction
from ..exceptions import InvalidInstanceError, UnsupportedPowerFunctionError

__all__ = [
    "Boundary",
    "FlowConfiguration",
    "classify_boundaries",
    "verify_theorem1",
    "closed_form_speeds",
    "completion_times_for_speeds",
]


class Boundary(enum.Enum):
    """Relationship between ``C_i`` and ``r_{i+1}`` at the boundary after job ``i``."""

    EARLY = "early"  #: job i finishes strictly before the next release (idle gap)
    LATE = "late"    #: job i finishes strictly after the next release (dense run continues)
    TIGHT = "tight"  #: job i finishes exactly at the next release (the hard case)


@dataclass(frozen=True)
class FlowConfiguration:
    """Boundary classification of a release-order schedule (``n - 1`` entries)."""

    boundaries: tuple[Boundary, ...]

    @property
    def has_tight_boundary(self) -> bool:
        """Whether relation 3 of Theorem 1 occurs (the configuration Theorem 8 exploits)."""
        return Boundary.TIGHT in self.boundaries

    def groups(self) -> list[tuple[int, int]]:
        """Maximal dense runs: consecutive jobs separated only by LATE/TIGHT boundaries.

        Returns inclusive ``(first, last)`` pairs covering all jobs; a new group
        starts after every EARLY boundary.
        """
        n = len(self.boundaries) + 1
        groups: list[tuple[int, int]] = []
        start = 0
        for i, boundary in enumerate(self.boundaries):
            if boundary is Boundary.EARLY:
                groups.append((start, i))
                start = i + 1
        groups.append((start, n - 1))
        return groups

    def __len__(self) -> int:
        return len(self.boundaries)


def completion_times_for_speeds(instance: Instance, speeds: np.ndarray) -> np.ndarray:
    """Completion times of the canonical release-order schedule at the given speeds."""
    releases = instance.releases
    works = instance.works
    completions = np.empty(instance.n_jobs)
    clock = -math.inf
    for i in range(instance.n_jobs):
        clock = max(clock, releases[i]) + works[i] / speeds[i]
        completions[i] = clock
    return completions


def classify_boundaries(
    instance: Instance,
    speeds: np.ndarray,
    atol: float = 1e-6,
) -> FlowConfiguration:
    """Classify every boundary of the canonical schedule built from ``speeds``.

    ``atol`` is the absolute tolerance within which ``C_i`` and ``r_{i+1}``
    are considered equal (the TIGHT case); it should reflect the accuracy of
    the solver that produced the speeds.
    """
    speeds = np.asarray(speeds, dtype=float)
    if speeds.shape != (instance.n_jobs,):
        raise InvalidInstanceError("need one speed per job")
    completions = completion_times_for_speeds(instance, speeds)
    releases = instance.releases
    boundaries = []
    for i in range(instance.n_jobs - 1):
        gap = completions[i] - releases[i + 1]
        if gap < -atol:
            boundaries.append(Boundary.EARLY)
        elif gap > atol:
            boundaries.append(Boundary.LATE)
        else:
            boundaries.append(Boundary.TIGHT)
    return FlowConfiguration(tuple(boundaries))


def verify_theorem1(
    instance: Instance,
    power: PowerFunction,
    speeds: np.ndarray,
    rtol: float = 1e-3,
    atol: float = 1e-6,
) -> bool:
    """Check the three Theorem 1 relations on a candidate optimal schedule.

    Returns ``True`` when every boundary satisfies its relation within the
    given tolerances.  Only meaningful for equal-work instances and
    polynomial power functions (the theorem is stated for ``power =
    speed**alpha``); other inputs raise.
    """
    if not instance.is_equal_work():
        raise InvalidInstanceError("Theorem 1 applies to equal-work instances only")
    if not power.is_polynomial:
        raise UnsupportedPowerFunctionError(
            "Theorem 1 is stated for power = speed**alpha"
        )
    alpha = power.alpha
    speeds = np.asarray(speeds, dtype=float)
    config = classify_boundaries(instance, speeds, atol=atol)
    sigma_n = speeds[-1]
    for i, boundary in enumerate(config.boundaries):
        lhs = speeds[i] ** alpha
        nxt = speeds[i + 1] ** alpha
        last = sigma_n ** alpha
        if boundary is Boundary.EARLY:
            ok = math.isclose(speeds[i], sigma_n, rel_tol=rtol)
        elif boundary is Boundary.LATE:
            ok = math.isclose(lhs, nxt + last, rel_tol=rtol)
        else:  # TIGHT
            ok = last * (1 - rtol) <= lhs <= (nxt + last) * (1 + rtol)
        if not ok:
            return False
    return True


def closed_form_speeds(
    instance: Instance,
    power: PowerFunction,
    config: FlowConfiguration,
    sigma_n: float,
) -> np.ndarray:
    """Speeds implied by Theorem 1 for a configuration with no TIGHT boundary.

    Within a dense group whose last job is ``b``, repeated application of
    relation 2 gives ``sigma_i**alpha = (b - i + 1) * sigma_n**alpha`` (the
    last job of a non-final group satisfies relation 1, i.e. runs at
    ``sigma_n``); hence every speed is a closed-form multiple of ``sigma_n``.

    Raises if the configuration contains a TIGHT boundary -- that is exactly
    the case Theorem 8 proves has no such closed form.
    """
    if config.has_tight_boundary:
        raise InvalidInstanceError(
            "closed-form speeds do not exist for configurations with a tight "
            "boundary (Theorem 8); use the convex solver instead"
        )
    if not power.is_polynomial:
        raise UnsupportedPowerFunctionError(
            "the closed form requires power = speed**alpha"
        )
    if sigma_n <= 0.0:
        raise InvalidInstanceError(f"sigma_n must be > 0, got {sigma_n}")
    alpha = power.alpha
    n = instance.n_jobs
    if len(config) != n - 1:
        raise InvalidInstanceError("configuration size does not match the instance")
    speeds = np.empty(n)
    for first, last in config.groups():
        for i in range(first, last + 1):
            multiplicity = last - i + 1
            speeds[i] = sigma_n * multiplicity ** (1.0 / alpha)
    return speeds
