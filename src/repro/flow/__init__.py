"""Power-aware total flow on a uniprocessor (Sections 2 and 4 of the paper).

* :mod:`~repro.flow.convex` -- the exact release-order solver: Theorem 1's
  levels found by one isotonic sweep, and a Newton iteration on the last
  job's marginal energy whose slope the levels give (the paper's
  arbitrarily-good algorithm, exact to rounding).
* :mod:`~repro.flow.structure` -- Theorem 1 machinery: boundary
  classification, optimality certificates and the closed-form speeds for
  tight-free configurations.
* :mod:`~repro.flow.puw` -- the laptop and server solvers for equal-work
  jobs, refined to closed form whenever Theorem 8's hard case does not occur.
* :mod:`~repro.flow.impossibility` -- the Theorem 8 hard instance, its
  degree-12 polynomial and the numeric reproduction of the argument.
"""

from .convex import ConvexFlowResult, convex_flow_laptop, convex_flow_server
from .impossibility import (
    THEOREM8_COEFFICIENTS,
    Theorem8Solution,
    hard_instance,
    rational_roots,
    solve_optimality_system,
    theorem8_polynomial,
    tight_configuration_energy_window,
)
from .puw import (
    FlowResult,
    equal_work_flow_laptop,
    equal_work_flow_server,
    flow_energy_frontier_samples,
)
from .structure import (
    Boundary,
    FlowConfiguration,
    classify_boundaries,
    closed_form_speeds,
    completion_times_for_speeds,
    verify_theorem1,
)

__all__ = [
    "ConvexFlowResult",
    "convex_flow_laptop",
    "convex_flow_server",
    "FlowResult",
    "equal_work_flow_laptop",
    "equal_work_flow_server",
    "flow_energy_frontier_samples",
    "Boundary",
    "FlowConfiguration",
    "classify_boundaries",
    "closed_form_speeds",
    "completion_times_for_speeds",
    "verify_theorem1",
    "THEOREM8_COEFFICIENTS",
    "Theorem8Solution",
    "hard_instance",
    "rational_roots",
    "solve_optimality_system",
    "theorem8_polynomial",
    "tight_configuration_energy_window",
]
