"""Certificate-based verification of solve results (`repro verify`).

Every result in this repository is *certifiable*: the paper's optimality
arguments come with structural witnesses (critical-interval densities for
YDS, Lemmas 2-6 for makespan blocks, Theorem 1 boundary relations for flow,
Theorem 10's cyclic assignment, competitive-ratio bounds for the online
algorithms).  This subsystem checks any ``(SolveRequest, SolveResult)`` pair
against those witnesses, treating the pair purely as data:

* :func:`verify` -- run the structural checks (envelope well-formedness,
  schedule feasibility, energy/value accounting) plus the semantic
  certificate checks the solver declared in its
  :class:`~repro.api.types.SolverCapabilities`, returning a
  :class:`VerificationReport` of structured :class:`Finding` objects;
* :data:`~repro.verify.certificates.CHECKERS` -- the certificate-kind ->
  checker registry the capability metadata points into;
* :mod:`repro.verify.structure` -- the Lemma 2-6 structure oracle (also
  re-exported lazily by :mod:`repro.core`).

Entry points: :func:`repro.api.verify` (library), ``repro verify`` (CLI,
consuming the JSON envelopes of ``repro solve`` / ``repro batch``),
``solve_many(..., verify=True)`` (batch engine, which also gates the result
cache's write-behind on a passing report), and ``repro serve --verify``
(per-response certificate checks in the request loop — cache *hits* are
verifiable too, since cached envelopes are byte-identical to fresh
solves).  The registry-driven
conformance suite (``tests/test_conformance.py``) runs solve -> verify end
to end for every registered solver, so a newly registered solver is born
with invariant coverage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..exceptions import ReproError
from .certificates import CHECKERS, checker
from .report import SEVERITIES, Finding, VerificationReport
from .structural import (
    VerificationContext,
    check_accounting,
    check_envelope,
    check_feasibility,
    check_schedule,
    reconstruct_schedule,
)
from .structure import StructureReport, assert_optimal_structure, check_optimal_structure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.registry import SolverRegistry
    from ..api.types import SolveRequest, SolveResult

__all__ = [
    "SEVERITIES",
    "Finding",
    "VerificationReport",
    "VerificationContext",
    "CHECKERS",
    "checker",
    "verify",
    "check_schedule",
    "reconstruct_schedule",
    "StructureReport",
    "check_optimal_structure",
    "assert_optimal_structure",
]

#: The structural checks every verification runs, before any certificate.
_STRUCTURAL_CHECKS = ("envelope", "feasibility", "accounting")


def verify(
    request: "SolveRequest",
    result: "SolveResult",
    registry: "SolverRegistry | None" = None,
    rtol: float = 1e-6,
) -> VerificationReport:
    """Verify a solve result against its request; never raises a library error.

    Runs the structural checks for every solver, then the semantic
    certificate checks declared in the solver's registered capabilities.
    Problems come back as structured findings in the report (including a
    failing ``unknown-solver`` finding when the result names a solver the
    registry does not know); only programming errors propagate.
    """
    from ..api.registry import REGISTRY

    reg = REGISTRY if registry is None else registry
    name = result.solver
    if name not in reg:
        return VerificationReport(
            solver=name,
            checks=("envelope",),
            findings=(
                Finding(
                    code="unknown-solver",
                    check="envelope",
                    message=(
                        f"result names solver {name!r}, which is not registered; "
                        f"known solvers: {sorted(reg.names())}"
                    ),
                    data={"solver": name},
                ),
            ),
        )
    expected = request.solver
    if expected is None and request.spec is not None:
        try:
            expected = reg.resolve(request.spec)
        except ReproError:
            expected = None
    if expected is not None and expected != name and expected in reg:
        # a routed result may legitimately come from any member of the
        # requested solver's variant family (same problem cell, certified
        # approximation): variant for primary, primary for variant, or a
        # sibling variant
        produced_root = reg.capabilities(name).variant_of or name
        expected_root = reg.capabilities(expected).variant_of or expected
        if produced_root == expected_root:
            expected = name
    if expected is not None and expected != name:
        return VerificationReport(
            solver=name,
            checks=("envelope",),
            findings=(
                Finding(
                    code="solver-mismatch",
                    check="envelope",
                    message=(
                        f"request asks for solver {expected!r} but the result "
                        f"was produced by {name!r}"
                    ),
                    data={"requested": expected, "result_solver": name},
                ),
            ),
        )
    capabilities = reg.capabilities(name)
    ctx = VerificationContext(
        request=request, result=result, capabilities=capabilities, rtol=rtol
    )

    findings = list(check_envelope(ctx))
    if findings:
        # a malformed envelope (error result, bad speeds, ...) makes every
        # downstream re-derivation meaningless; report it alone
        return VerificationReport(
            solver=name, checks=("envelope",), findings=tuple(findings)
        )

    findings.extend(check_feasibility(ctx))
    findings.extend(check_accounting(ctx))

    checks = list(_STRUCTURAL_CHECKS)
    for kind in capabilities.certificates:
        checks.append(kind)
        check_fn = CHECKERS.get(kind)
        if check_fn is None:
            findings.append(
                Finding(
                    code="unknown-certificate",
                    check=kind,
                    message=(
                        f"solver {name!r} declares certificate kind {kind!r} "
                        "but no checker is registered for it"
                    ),
                )
            )
            continue
        try:
            findings.extend(check_fn(ctx))
        except (ReproError, KeyError, TypeError, ValueError, IndexError) as exc:
            # a checker tripping over malformed payload data is a failed
            # verification, not a crash; only genuine programming errors
            # (anything outside these types) propagate
            findings.append(
                Finding(
                    code="certificate-error",
                    check=kind,
                    message=(
                        f"certificate checker failed: {type(exc).__name__}: {exc}"
                    ),
                )
            )
    return VerificationReport(
        solver=name, checks=tuple(checks), findings=tuple(findings)
    )
