"""The in-house Brent root-finder is ``scipy.optimize.brentq``, bit for bit.

:func:`repro.core.roots.brentq` replaces scipy's at every root the library
takes, so that the runtime needs numpy alone.  Its roots must be scipy's
exactly, not merely close: the goldens and the cached results were computed
with scipy.  So every comparison here is ``==`` (and the sign of a zero
root), never a tolerance:

* a Hypothesis suite over polynomials, exp, tanh, atan and sign-changing
  products; brackets in both orientations, with the root inside, at an
  endpoint or one ulp from it; function values scaled down to where their
  products underflow; every ``xtol`` and ``rtol`` a call site passes;
* the error contract: the same exception type as scipy for a same-sign
  bracket, a NaN value, non-convergence and a bad tolerance;
* each of the seven call sites, run once on the port and once with the
  module's ``brentq`` swapped for scipy's.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

from _strategies import hypothesis_settings
from repro.core import CUBE, AffinePolynomialPower, Instance, TabulatedConvexPower, pareto
from repro.core import power as power_module
from repro.core.roots import brentq
from repro.flow import impossibility
from repro.makespan import makespan_frontier
from repro.multi import assigned, exact
from repro.workloads import figure1_instance

#: The tolerances the call sites pass, plus scipy's defaults.
XTOLS = (1e-300, 1e-15, 1e-14, 1e-12, 2e-12)
RTOLS = (4 * sys.float_info.epsilon, 1e-15, 1e-14, 1e-12)

#: Scales from ordinary down to values whose pairwise products underflow
#: (where a sign test by product and one by sign bit part ways), both signs.
SCALES = (1.0, -1.0, 1e-3, -1e150, 1e-170, -1e-170, 1e-300)

FUNCTIONS = {
    "cubic": lambda r: lambda x: (x - r) ** 3 + 0.5 * (x - r),
    "quintic": lambda r: lambda x: (x - r) * (1.0 + (x - r) ** 4),
    "pure-cube": lambda r: lambda x: (x - r) ** 3,
    "exp": lambda r: lambda x: math.exp(x - r) - 1.0,
    "tanh": lambda r: lambda x: math.tanh(3.0 * (x - r)),
    "atan": lambda r: lambda x: math.atan(x - r) + 0.1 * (x - r) ** 3,
    "product": lambda r: lambda x: (x - r) * (x + r + 7.0) * (x * x + 1.0),
}


def _solve(solver, f, a, b, xtol, rtol):
    """The root, or the type of the exception the solver raised."""
    try:
        return solver(f, a, b, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _assert_same(port, reference):
    if isinstance(reference, type):
        assert port is reference
    else:
        assert port == reference
        assert math.copysign(1.0, port) == math.copysign(1.0, reference)


def _endpoint(root: float, offset, direction: float) -> float:
    """``root`` itself (offset 0), one ulp past it (None) or 10**offset away."""
    if offset == 0:
        return root
    if offset is None:
        return math.nextafter(root, direction * math.inf)
    return root + direction * 10.0**offset


_OFFSETS = st.one_of(
    st.just(0), st.none(), st.floats(min_value=-14.0, max_value=1.0)
)


@hypothesis_settings(max_examples=400)
@given(
    kind=st.sampled_from(sorted(FUNCTIONS)),
    root=st.floats(min_value=-5.0, max_value=5.0),
    scale=st.sampled_from(SCALES),
    below=_OFFSETS,
    above=_OFFSETS,
    flip=st.booleans(),
    xtol=st.sampled_from(XTOLS),
    rtol=st.sampled_from(RTOLS),
)
def test_bracketed_roots_match_scipy(kind, root, scale, below, above, flip, xtol, rtol):
    shape = FUNCTIONS[kind](root)

    def f(x):
        return scale * shape(x)

    a, b = _endpoint(root, below, -1.0), _endpoint(root, above, 1.0)
    if flip:
        a, b = b, a
    _assert_same(
        _solve(brentq, f, a, b, xtol, rtol),
        _solve(scipy.optimize.brentq, f, a, b, xtol, rtol),
    )


@hypothesis_settings(max_examples=200)
@given(
    kind=st.sampled_from(sorted(FUNCTIONS)),
    root=st.floats(min_value=-5.0, max_value=5.0),
    a=st.floats(min_value=-10.0, max_value=10.0),
    b=st.floats(min_value=-10.0, max_value=10.0),
    xtol=st.sampled_from(XTOLS),
    rtol=st.sampled_from(RTOLS),
)
def test_arbitrary_brackets_match_scipy(kind, root, a, b, xtol, rtol):
    # many of these brackets hold no sign change: both sides must refuse them
    f = FUNCTIONS[kind](root)
    _assert_same(
        _solve(brentq, f, a, b, xtol, rtol),
        _solve(scipy.optimize.brentq, f, a, b, xtol, rtol),
    )


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (-0.0, 1.0), (1.0, -0.0)])
def test_zero_at_an_endpoint_returns_that_endpoint(zero, a, b):
    for f in (lambda x: zero if x == a else 1.0, lambda x: -1.0 if x == a else zero):
        _assert_same(
            _solve(brentq, f, a, b, 1e-12, RTOLS[0]),
            _solve(scipy.optimize.brentq, f, a, b, 1e-12, RTOLS[0]),
        )


@pytest.mark.parametrize(
    "f, a, b, xtol, rtol",
    [
        pytest.param(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, RTOLS[0], id="same-sign"),
        pytest.param(lambda x: 1e-200, 0.0, 1.0, 1e-12, RTOLS[0], id="same-sign-tiny"),
        pytest.param(lambda x: math.nan, 0.0, 1.0, 1e-12, RTOLS[0], id="nan-at-a"),
        pytest.param(
            lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan, 0.0, 1.0, 1e-12, RTOLS[0],
            id="nan-mid-iteration",
        ),
        # a jump at 0 with xtol far below any 100 halvings: no convergence
        pytest.param(
            lambda x: 1.0 if x > 0.0 else -1.0, -1.0, 3.0, 1e-300, RTOLS[0], id="no-convergence"
        ),
        pytest.param(lambda x: x - 0.5, 0.0, 1.0, 0.0, RTOLS[0], id="xtol-zero"),
        pytest.param(lambda x: x - 0.5, 0.0, 1.0, 1e-12, 1e-16, id="rtol-below-4eps"),
    ],
)
def test_error_contract_matches_scipy(f, a, b, xtol, rtol):
    reference = _solve(scipy.optimize.brentq, f, a, b, xtol, rtol)
    assert isinstance(reference, type)
    assert _solve(brentq, f, a, b, xtol, rtol) is reference


# -- the call sites -----------------------------------------------------------

_TABULATED = TabulatedConvexPower(lambda s: s**3 + 0.5 * s * s, name="cube-plus-square")
_AFFINE = AffinePolynomialPower(exponent=2.5, coefficient=1.5, static=0.2)
_EQ = Instance.from_arrays([0.0, 1.0, 2.0], [2.0, 2.0, 2.0])


def _fields(result, names):
    return [np.asarray(getattr(result, name)).tolist() for name in names]


CALL_SITES = {
    "power-default-marginal-inversion": (
        power_module, lambda: _TABULATED.speed_for_marginal_energy(3.7)
    ),
    "power-affine-energy-per-work": (
        power_module, lambda: _AFFINE.speed_for_energy_per_work(2.9)
    ),
    "power-tabulated-energy-per-work": (
        power_module, lambda: _TABULATED.speed_for_energy_per_work(4.2)
    ),
    "pareto-energy-for-value": (
        pareto, lambda: makespan_frontier(figure1_instance(), CUBE).energy_for_value(9.3)
    ),
    "assigned-makespan": (
        assigned,
        lambda: _fields(
            assigned.makespan_for_assignment(_EQ, CUBE, {0: [0, 2], 1: [1]}, 8.0),
            ("makespan", "energy", "speeds"),
        ),
    ),
    "exact-common-finish-time": (
        exact, lambda: exact.makespan_for_loads([3.0, 2.0, 4.5], _TABULATED, 11.0)
    ),
    "theorem8-tight-configuration": (
        impossibility,
        lambda: _fields(
            impossibility.solve_optimality_system(9.0),
            ("sigma1", "sigma2", "sigma3", "energy", "flow"),
        ),
    ),
}


@pytest.mark.parametrize("site", sorted(CALL_SITES))
def test_call_site_matches_scipy(site, monkeypatch):
    module, run = CALL_SITES[site]
    port = run()
    calls = []

    def reference(*args, **kwargs):
        calls.append(args)
        return scipy.optimize.brentq(*args, **kwargs)

    monkeypatch.setattr(module, "brentq", reference)
    assert run() == port
    assert calls, f"{site} never reached the root-finder"
