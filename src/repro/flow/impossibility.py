"""The Theorem 8 hard instance: no exact algorithm for flow with radicals.

Section 4 of the paper proves that, for ``power = speed**3``, no algorithm
using ``+, -, *, /`` and k-th roots can exactly minimise total flow for a
given energy budget, even for equal-work jobs on one processor.  The proof
analyses the instance

    three unit-work jobs, releases (0, 0, 1), energy budget 9,

for which the optimal schedule finishes job 2 exactly at time 1 (this holds
for budgets between roughly 8.43 and 11.54), and shows that the speed of job 2
is a root of a degree-12 integer polynomial whose Galois group is not
solvable.

GAP (the computer-algebra system the paper uses for the Galois-group
computation) is not available offline, so this module reproduces everything
*around* that final step (README, "Deviations from the paper"):

* the exact polynomial coefficients from the paper,
* a solver for the optimality system (equations (1)-(3) of the paper) by
  one-dimensional root finding, which yields the optimal speeds and flow,
* verification that the optimality system's solution is a root of the
  paper's polynomial (i.e. the polynomial was derived correctly),
* a rational-root test showing the polynomial has no rational roots (a
  necessary condition for the hardness argument; the unsolvability of the
  Galois group itself is cited from the paper),
* the energy window over which the ``C_2 = 1`` configuration is optimal,
  bisected on the exact flow solver (paper: approximately ``(8.43, 11.54)``;
  measured: ``(10.3214557, 11.5419663)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import optimize

from ..core.job import Instance
from ..core.power import PolynomialPower, PowerFunction
from ..exceptions import InvalidInstanceError

__all__ = [
    "THEOREM8_COEFFICIENTS",
    "Theorem8Solution",
    "hard_instance",
    "theorem8_polynomial",
    "solve_optimality_system",
    "rational_roots",
    "tight_configuration_energy_window",
]

#: Coefficients of the paper's degree-12 polynomial in ``sigma_2``
#: (descending powers, as printed in the proof of Theorem 8).
THEOREM8_COEFFICIENTS: tuple[int, ...] = (
    2,        # sigma_2^12
    -12,      # sigma_2^11
    6,        # sigma_2^10
    108,      # sigma_2^9
    -159,     # sigma_2^8
    -738,     # sigma_2^7
    2415,     # sigma_2^6
    -1026,    # sigma_2^5
    -5940,    # sigma_2^4
    12150,    # sigma_2^3
    -10449,   # sigma_2^2
    4374,     # sigma_2^1
    -729,     # constant
)


def hard_instance() -> Instance:
    """The Theorem 8 instance: unit-work jobs released at times 0, 0, 1."""
    return Instance.from_arrays([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], name="theorem8")


def theorem8_polynomial(x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the paper's degree-12 polynomial at ``x`` (Horner's scheme)."""
    result = np.zeros_like(np.asarray(x, dtype=float))
    for coeff in THEOREM8_COEFFICIENTS:
        result = result * x + coeff
    if np.isscalar(x):
        return float(result)
    return result


@dataclass(frozen=True)
class Theorem8Solution:
    """Solution of the optimality system (1)-(3) for the hard instance."""

    sigma1: float
    sigma2: float
    sigma3: float
    energy: float
    flow: float
    polynomial_residual: float

    @property
    def completion_times(self) -> tuple[float, float, float]:
        c1 = 1.0 / self.sigma1
        c2 = c1 + 1.0 / self.sigma2
        c3 = max(c2, 1.0) + 1.0 / self.sigma3
        return (c1, c2, c3)


def solve_optimality_system(energy_budget: float = 9.0) -> Theorem8Solution:
    """Solve equations (1)-(3) of the paper for the hard instance.

    The system (for the configuration where job 2 finishes exactly at time 1):

    * (1) ``sigma1**2 + sigma2**2 + sigma3**2 = energy_budget``  (energy, with
      unit work and ``alpha = 3`` the per-job energy is ``sigma**2``),
    * (2) ``1/sigma1 + 1/sigma2 = 1``  (job 2 completes exactly at time 1),
    * (3) ``sigma1**3 = sigma2**3 + sigma3**3``  (Theorem 1's dense relation
      between jobs 1 and 2, with ``sigma3`` being the final job's speed).

    Substituting (2) and (3) into (1) leaves a single equation in ``sigma2``
    solved by bracketed root finding.  Validity of the configuration requires
    ``sigma1 > 1`` and ``sigma2 > 1`` (both of the first two jobs run faster
    than one unit of work per unit time since together they finish by time 1),
    and ``sigma3 > 0``.
    """
    if energy_budget <= 0.0:
        raise InvalidInstanceError("energy budget must be positive")

    def sigma1_of(sigma2: float) -> float:
        return sigma2 / (sigma2 - 1.0)

    def sigma3_of(sigma2: float) -> float:
        s1 = sigma1_of(sigma2)
        cube = s1**3 - sigma2**3
        if cube <= 0.0:
            return math.nan
        return cube ** (1.0 / 3.0)

    def residual(sigma2: float) -> float:
        s1 = sigma1_of(sigma2)
        s3 = sigma3_of(sigma2)
        if math.isnan(s3):
            return math.inf
        return s1**2 + sigma2**2 + s3**2 - energy_budget

    # sigma2 ranges in (1, 2]: above 2, sigma1 = sigma2/(sigma2-1) < 2 < sigma2
    # would violate sigma1 >= sigma2 (job 1 must be at least as fast as job 2
    # by relation 2 of Theorem 1 since sigma1^3 = sigma2^3 + sigma3^3 > sigma2^3).
    lo, hi = 1.0 + 1e-9, 2.0
    # the residual decreases from +inf (sigma1 blows up near sigma2 -> 1) and
    # increases for large budgets; bracket by scanning.
    grid = np.linspace(lo, hi, 2048)
    values = np.array([residual(float(g)) for g in grid])
    sign_change = np.where(np.diff(np.sign(values)) != 0)[0]
    if len(sign_change) == 0:
        raise InvalidInstanceError(
            f"no solution of the optimality system for energy budget {energy_budget:g}; "
            "the C_2 = 1 configuration is not optimal at this budget"
        )
    i = int(sign_change[0])
    sigma2 = float(optimize.brentq(residual, float(grid[i]), float(grid[i + 1]), xtol=1e-15, rtol=1e-15))
    sigma1 = sigma1_of(sigma2)
    sigma3 = sigma3_of(sigma2)
    flow = 1.0 / sigma1 + 1.0 + 1.0 / sigma3  # C1 + C2 + (C3 - r3) with C2 = 1, r3 = 1
    poly_residual = float(theorem8_polynomial(sigma2)) if energy_budget == 9.0 else math.nan
    return Theorem8Solution(
        sigma1=sigma1,
        sigma2=sigma2,
        sigma3=sigma3,
        energy=sigma1**2 + sigma2**2 + sigma3**2,
        flow=flow,
        polynomial_residual=poly_residual,
    )


def rational_roots(coefficients: tuple[int, ...] = THEOREM8_COEFFICIENTS) -> list[Fraction]:
    """All rational roots of an integer polynomial (rational root theorem).

    The hardness argument requires the relevant root to be irrational; this
    returns the (empty, for the paper's polynomial) list of rational roots,
    found by testing every ``p/q`` with ``p`` dividing the constant term and
    ``q`` dividing the leading coefficient.
    """
    if not coefficients or coefficients[0] == 0:
        raise InvalidInstanceError("leading coefficient must be non-zero")
    constant = coefficients[-1]
    leading = coefficients[0]
    if constant == 0:
        roots = [Fraction(0)]
        reduced = list(coefficients)
        while reduced[-1] == 0:
            reduced.pop()
        return roots + [r for r in rational_roots(tuple(reduced)) if r != 0]

    def divisors(value: int) -> list[int]:
        value = abs(value)
        out = [d for d in range(1, int(math.isqrt(value)) + 1) if value % d == 0]
        return sorted(set(out + [value // d for d in out]))

    candidates = {
        Fraction(sign * p, q)
        for p in divisors(constant)
        for q in divisors(leading)
        for sign in (1, -1)
    }
    roots = []
    for cand in sorted(candidates):
        acc = Fraction(0)
        for coeff in coefficients:
            acc = acc * cand + coeff
        if acc == 0:
            roots.append(cand)
    return roots


def tight_configuration_energy_window(
    power: PowerFunction | None = None,
    resolution: float = 1e-3,
) -> tuple[float, float]:
    """The energy window where the optimum finishes job 2 exactly at time 1.

    The paper states the window is approximately ``(8.43, 11.54)``.  Budgets
    ``7, 7.25, ..., 13`` are solved with the exact flow solver, which
    finishes job 2 at time 1 to rounding (``|C_2 - 1| <= 1e-12``) exactly when
    that boundary is tight; each edge of the run of such budgets is then
    bisected until it is known to within ``resolution``, and the midpoint of
    its last bracket is returned.
    """
    from .convex import convex_flow_laptop  # local import to avoid a cycle

    power = power if power is not None else PolynomialPower(3.0)
    instance = hard_instance()

    def tight(energy: float) -> bool:
        result = convex_flow_laptop(instance, power, energy)
        return abs(result.completion_times[1] - 1.0) <= 1e-12

    def edge(outside: float, inside: float) -> float:
        for _ in range(200):
            if abs(inside - outside) <= resolution:
                break
            middle = 0.5 * (outside + inside)
            if tight(middle):
                inside = middle
            else:
                outside = middle
        return 0.5 * (outside + inside)

    budgets = [7.0 + 0.25 * i for i in range(25)]
    inside = [i for i, energy in enumerate(budgets) if tight(energy)]
    if not inside or inside[0] == 0 or inside[-1] == len(budgets) - 1:
        raise InvalidInstanceError(
            "failed to locate the tight-configuration window; widen the scan range"
        )
    first, last = inside[0], inside[-1]
    return (
        edge(budgets[first - 1], budgets[first]),
        edge(budgets[last + 1], budgets[last]),
    )
