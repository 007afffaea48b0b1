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

from . import (
    analysis,
    api,
    batch,
    cache,
    core,
    discrete,
    faults,
    flow,
    io,
    makespan,
    multi,
    online,
    service,
    sim,
    verify,
    workloads,
)
from .api import (
    REGISTRY,
    ProblemSpec,
    SolveRequest,
    SolveResult,
    SolverCapabilities,
    SolverRegistry,
    list_solvers,
    solve,
)
from .batch import BatchResult, solve_many, solve_stream
from .cache import ResultCache
from .faults import FaultPlan
from .core import (
    CUBE,
    SQUARE,
    Instance,
    Job,
    PolynomialPower,
    PowerFunction,
    Schedule,
    TradeoffCurve,
)

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
