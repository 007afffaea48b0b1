"""Competitive-ratio evaluation pipeline for the online algorithms.

The online algorithms (AVR, OA, BKP) carry worst-case competitive-ratio
guarantees against the offline optimum (YDS); this module measures the
*empirical* ratios on whole workload grids and makes that measurement a
first-class, batchable scenario:

* the sweep is the cartesian grid
  ``{algorithm} x {alpha} x {workload family} x {size} x {seed}``,
* every (family, size, seed) cell is materialised once as an
  :class:`~repro.core.job.Instance` and pushed through the batch engine
  (:func:`repro.batch.solve_many`), so the sweep inherits its chunked
  process-pool parallelism and deterministic result ordering,
* the output is a machine-readable payload (plain dicts/lists/floats) with
  one ``cell`` per grid point and one ``summary`` row per
  (algorithm, alpha, family) aggregate, ready to be dumped as JSON —
  reruns with equal parameters produce byte-identical dumps.

Exposed on the command line as ``repro compete`` (see :mod:`repro.cli`) and
measured by ``benchmarks/bench_online_competitive.py`` (which writes
``BENCH_online.json``).

The workload families deliberately include the two adversarial generators
(:func:`~repro.workloads.generators.staircase_deadline_instance` and
:func:`~repro.workloads.generators.nested_interval_instance`) — the regimes
where the AVR/OA ratios are known to degrade toward their theoretical
bounds — next to the benign Poisson-laxity family.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from ..api.registry import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import ResultCache
from ..core.job import Instance
from ..core.power import PolynomialPower
from ..exceptions import InvalidInstanceError
from ..workloads import (
    deadline_instance,
    nested_interval_instance,
    staircase_deadline_instance,
)

__all__ = [
    "ALGORITHMS",
    "FAMILIES",
    "RATIO_BOUNDS",
    "CompetitiveCell",
    "competitive_sweep",
]

#: Online algorithms the sweep knows about, enumerated from the central
#: registry (their registration order in :mod:`repro.online.register` fixes
#: the sweep's deterministic default order: avr, oa, bkp).
ALGORITHMS: tuple[str, ...] = REGISTRY.find(online=True)

#: Workload families: name -> (n_jobs, seed) -> deadline-carrying instance.
FAMILIES: Mapping[str, Callable[[int, int], Instance]] = {
    "deadline": lambda n, seed: deadline_instance(n, seed=seed, laxity=3.0),
    "staircase": lambda n, seed: staircase_deadline_instance(n, seed=seed),
    "nested": lambda n, seed: nested_interval_instance(n, seed=seed),
}

#: Theoretical worst-case energy ratios against YDS, as functions of alpha.
RATIO_BOUNDS: Mapping[str, Callable[[float], float]] = {
    "avr": lambda alpha: 2.0 ** (alpha - 1.0) * alpha**alpha,
    "oa": lambda alpha: alpha**alpha,
    "bkp": lambda alpha: 2.0 * (alpha / (alpha - 1.0)) ** alpha * math.e**alpha,
}


@dataclass(frozen=True)
class CompetitiveCell:
    """One grid point of the sweep: an algorithm's energy ratio vs YDS."""

    algorithm: str
    alpha: float
    family: str
    n_jobs: int
    seed: int
    energy: float
    optimal_energy: float
    ratio: float


def _aggregate(cells: list[CompetitiveCell]) -> list[dict[str, Any]]:
    """One summary row per (algorithm, alpha, family), in sweep order."""
    rows: list[dict[str, Any]] = []
    seen: dict[tuple[str, float, str], dict[str, Any]] = {}
    for cell in cells:
        key = (cell.algorithm, cell.alpha, cell.family)
        row = seen.get(key)
        if row is None:
            row = {
                "algorithm": cell.algorithm,
                "alpha": cell.alpha,
                "family": cell.family,
                "cells": 0,
                "mean_ratio": 0.0,
                "max_ratio": -math.inf,
                "min_ratio": math.inf,
                "bound": float(RATIO_BOUNDS[cell.algorithm](cell.alpha)),
            }
            seen[key] = row
            rows.append(row)
        row["cells"] += 1
        row["mean_ratio"] += cell.ratio  # finalised to a mean below
        row["max_ratio"] = max(row["max_ratio"], cell.ratio)
        row["min_ratio"] = min(row["min_ratio"], cell.ratio)
    for row in rows:
        row["mean_ratio"] = row["mean_ratio"] / row["cells"]
    return rows


def competitive_sweep(
    algorithms: Sequence[str] = ALGORITHMS,
    alphas: Sequence[float] = (2.0, 3.0),
    families: Sequence[str] = ("deadline", "staircase", "nested"),
    sizes: Sequence[int] = (8, 12),
    seeds: int = 3,
    workers: int = 1,
    cache: "ResultCache | None" = None,
    stride: int = 1,
) -> dict[str, Any]:
    """Run the full competitive-ratio grid and return the JSON-ready payload.

    Parameters
    ----------
    algorithms:
        Batch-solver names from :data:`ALGORITHMS`.
    alphas:
        Exponents of the polynomial power function ``speed ** alpha``.
    families:
        Keys of :data:`FAMILIES`.
    sizes:
        Instance sizes (number of jobs) per family.
    seeds:
        Number of seeds per (family, size) cell; seeds run ``0 .. seeds-1``.
    workers:
        Forwarded to :func:`repro.batch.solve_many` (process-pool fan-out).
    cache:
        Optional :class:`~repro.cache.ResultCache` forwarded to every
        :func:`~repro.batch.solve_many` pass.  The instance grid is shared
        across the alpha axis (and between the YDS baseline and the online
        algorithms), so overlapping sweeps — wider alpha grids over the same
        families, reruns after adding an algorithm — pay for each
        (instance, power, solver) cell once (``repro compete --cache-dir``
        on the command line).
    stride:
        Truncated sweep: keep every ``stride``-th (family, size, seed) grid
        cell (default 1 = the full grid).  A cheap smoke-level estimate of
        the same ratios — the truncation is recorded in the payload's
        ``parameters`` (both the stride and the surviving cell count), never
        applied silently, and a given ``(grid, stride)`` pair is
        deterministic, so truncated reruns are byte-identical too.

    Returns
    -------
    dict
        ``{"parameters": ..., "cells": [...], "summary": [...]}`` with plain
        JSON types throughout; equal parameters give byte-identical dumps.
    """
    for algorithm in algorithms:
        # one dispatch surface: an algorithm is valid iff the registry knows
        # it as an online solver
        if algorithm not in ALGORITHMS:
            raise InvalidInstanceError(
                f"unknown online algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}"
            )
    for family in families:
        if family not in FAMILIES:
            raise InvalidInstanceError(
                f"unknown workload family {family!r}; known: {sorted(FAMILIES)}"
            )
    if seeds <= 0:
        raise InvalidInstanceError("seeds must be positive")
    for size in sizes:
        if int(size) <= 0:
            raise InvalidInstanceError("sizes must be positive")
    if not algorithms or not alphas or not families or not sizes:
        raise InvalidInstanceError(
            "the sweep grid needs at least one algorithm, alpha, family and size"
        )
    stride = int(stride)
    if stride < 1:
        raise InvalidInstanceError(f"stride must be >= 1, got {stride}")

    # materialise the instance grid once; every solver run reuses it so the
    # batch engine's deterministic ordering aligns results across solvers
    grid: list[tuple[str, int, int]] = [
        (family, int(size), seed)
        for family in families
        for size in sizes
        for seed in range(int(seeds))
    ]
    full_cells = len(grid)
    if stride > 1:
        # truncated sweep: deterministic subsample, declared in the payload
        grid = grid[::stride]
    instances = [FAMILIES[family](size, seed) for family, size, seed in grid]

    # the batch engine (multiprocessing, sqlite3) loads only for a sweep, not
    # for the verifier's RATIO_BOUNDS lookup
    from ..batch import solve_many

    cells: list[CompetitiveCell] = []
    # One solve_many pass per (alpha, algorithm).  The produced schedules are
    # actually alpha-independent (YDS speeds and the online policies are pure
    # geometry; only the energy evaluation uses the power function), so this
    # does N_alphas x the necessary solver work — deliberately: the batch
    # solvers return energies, not schedules, and routing every grid cell
    # through the same solve_many contract keeps the sweep on the engine's
    # deterministic, process-pool-parallel path.  Revisit if alpha grids grow.
    for alpha in alphas:
        power = PolynomialPower(float(alpha))
        optima = solve_many(
            instances, power, 0.0, solver="yds", workers=workers, cache=cache
        )
        for algorithm in algorithms:
            results = solve_many(
                instances, power, 0.0, solver=algorithm, workers=workers, cache=cache
            )
            for (family, size, seed), opt, res in zip(grid, optima, results):
                cells.append(
                    CompetitiveCell(
                        algorithm=algorithm,
                        alpha=float(alpha),
                        family=family,
                        n_jobs=size,
                        seed=seed,
                        energy=res.energy,
                        optimal_energy=opt.energy,
                        ratio=res.energy / opt.energy,
                    )
                )

    return {
        "kind": "competitive-sweep",
        "parameters": {
            "algorithms": list(algorithms),
            "alphas": [float(a) for a in alphas],
            "families": list(families),
            "sizes": [int(s) for s in sizes],
            "seeds": int(seeds),
            # recorded only when truncation actually happened, so full-grid
            # payloads (and their byte-pinned goldens) are unchanged
            **(
                {
                    "stride": stride,
                    "grid_cells": len(grid),
                    "full_grid_cells": full_cells,
                }
                if stride > 1
                else {}
            ),
        },
        "cells": [asdict(cell) for cell in cells],
        "summary": _aggregate(cells),
    }
