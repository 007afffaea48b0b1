"""repro -- reproduction of Bunde, "Power-aware scheduling for makespan and flow" (SPAA 2006).

Subpackage map (see README.md for the full tour):

* :mod:`repro.core` -- jobs, power functions, schedules, blocks, metrics,
  trade-off curves.
* :mod:`repro.makespan` -- uniprocessor makespan: IncMerge, the non-dominated
  frontier (Figures 1-3), the server problem, reference oracles and baselines.
* :mod:`repro.flow` -- uniprocessor total flow: convex and structural solvers,
  the Theorem 8 hard instance.
* :mod:`repro.multi` -- multiprocessor scheduling: cyclic assignment
  (Theorem 10), equal-work exact/approximate solvers, the Partition reduction
  (Theorem 11), exact search, heuristics and the PTAS-style scheme.
* :mod:`repro.online` -- the YDS substrate and the online algorithms
  (AVR, OA, BKP) used for the extension experiments.
* :mod:`repro.api` -- the unified solver surface: the central
  :class:`~repro.api.SolverRegistry` plus the typed
  :class:`~repro.api.SolveRequest` / :class:`~repro.api.SolveResult`
  envelopes served by :func:`repro.solve` (``repro solve`` on the command
  line).
* :mod:`repro.batch` -- the streaming batch engine: many instances through
  one solver, optionally across worker processes, with content-addressed
  caching and resumable runs (``repro batch`` on the command line).
* :mod:`repro.cache` -- the content-addressed result cache
  (:class:`~repro.cache.ResultCache`): canonical SHA-256 request keys, an
  in-process LRU front over an optional on-disk store.
* :mod:`repro.service` -- the ``repro serve`` request loop
  (:class:`~repro.service.AsyncServeLoop`): JSON-lines solve-request
  envelopes in, result envelopes plus cache/latency metadata out, over
  stdin/stdout or TCP, with deadlines, load shedding and graceful drain.
* :mod:`repro.faults` -- deterministic fault injection
  (:class:`~repro.faults.FaultPlan`): seeded, scoped chaos threaded through
  the batch engine, cache and serve loop for reproducible robustness tests.
* :mod:`repro.verify` -- certificate-based verification of solve results:
  structural feasibility/accounting checks plus the per-solver optimality
  certificates declared in the registry (``repro verify`` on the command
  line, :func:`repro.api.verify` in the library).
* :mod:`repro.discrete` -- discrete speed levels: named DVFS ladders and the
  two-level / nearest quantization of continuous plans and speed profiles.
* :mod:`repro.sim` -- trace-driven discrete-event simulation: arrival traces
  (CSV/JSON-lines), machine models (static power, sleep states, discrete
  levels), the deterministic replay engine and the
  {trace x machine x algorithm} scenario matrix (``repro sim`` /
  ``repro compete --machines`` on the command line).
* :mod:`repro.workloads` -- the paper's instances and synthetic generators.
* :mod:`repro.analysis` -- derivatives, breakpoints, tables, ASCII plots.
"""

from importlib import import_module

#: Subpackages and modules, imported on first attribute access (PEP 562), so
#: ``import repro`` costs nothing and a caller pays only for what it uses.
_SUBMODULES = frozenset({
    "analysis",
    "api",
    "batch",
    "cache",
    "core",
    "discrete",
    "faults",
    "flow",
    "io",
    "makespan",
    "multi",
    "online",
    "service",
    "sim",
    "verify",
    "workloads",
})

#: Re-exported name -> the submodule that defines it, resolved the same way.
_EXPORTS = {
    "REGISTRY": "api",
    "ProblemSpec": "api",
    "SolveRequest": "api",
    "SolveResult": "api",
    "SolverCapabilities": "api",
    "SolverRegistry": "api",
    "list_solvers": "api",
    "solve": "api",
    "BatchResult": "batch",
    "solve_many": "batch",
    "solve_stream": "batch",
    "ResultCache": "cache",
    "FaultPlan": "faults",
    "CUBE": "core",
    "SQUARE": "core",
    "Instance": "core",
    "Job": "core",
    "PolynomialPower": "core",
    "PowerFunction": "core",
    "Schedule": "core",
    "TradeoffCurve": "makespan",
}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "1.1.0"

__all__ = [
    "analysis",
    "api",
    "batch",
    "BatchResult",
    "solve_many",
    "solve_stream",
    "cache",
    "ResultCache",
    "core",
    "discrete",
    "faults",
    "FaultPlan",
    "flow",
    "io",
    "makespan",
    "multi",
    "online",
    "service",
    "sim",
    "verify",
    "workloads",
    "ProblemSpec",
    "SolveRequest",
    "SolveResult",
    "SolverCapabilities",
    "SolverRegistry",
    "REGISTRY",
    "solve",
    "list_solvers",
    "Instance",
    "Job",
    "PowerFunction",
    "PolynomialPower",
    "CUBE",
    "SQUARE",
    "Schedule",
    "TradeoffCurve",
    "__version__",
]
