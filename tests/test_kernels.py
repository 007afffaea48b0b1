"""Equivalence suite for the vectorized kernel layer (:mod:`repro.core.kernels`).

Every vectorized hot path introduced by the kernel layer is pinned to a
retained scalar reference implementation on randomized (Hypothesis)
instances:

* ``yds_speeds`` (prefix-sum critical-interval kernel) vs
  ``oracles.yds.yds_speeds_reference`` (the classic member-set
  re-enumeration),
* ``incmerge`` (bulk-precomputed block energies) vs ``quadratic_laptop``
  and ``brute_force_laptop`` (structurally independent solvers),
* ``TradeoffCurve.sample*`` / ``segment_at`` (searchsorted + grouped array
  evaluation) vs the per-point scalar entry points,
* ``Schedule.from_speeds`` / aggregation (prefix-max timing recurrence,
  bincount energy) vs a direct piece-by-piece replay,
* the low-level kernels themselves against their obvious NumPy/Python
  counterparts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given

from _strategies import (
    alpha_strategy,
    deadline_instance_from as _deadline_instance,
    energy_strategy,
    hypothesis_settings,
    laxities_strategy,
    plain_instance_from as _plain_instance,
    releases_strategy,
    works_strategy,
)
from repro.core import CUBE, Instance, PolynomialPower
from repro.core.kernels import (
    chain_start_times,
    energy_eval,
    max_density_interval,
    power_eval,
    prefix_sums,
)
from repro.core.power import AffinePolynomialPower
from repro.makespan import brute_force_laptop, incmerge, makespan_frontier, quadratic_laptop
from oracles.yds import yds_speeds_reference
from repro.online import yds_speeds

TOL = 1e-9

common_settings = hypothesis_settings(max_examples=40)


# ----------------------------------------------------------------------
# low-level kernels
# ----------------------------------------------------------------------


@common_settings
@given(works=works_strategy)
def test_prefix_sums_matches_python(works):
    out = prefix_sums(np.array(works))
    assert out[0] == 0.0
    for i in range(len(works) + 1):
        assert out[i] == pytest.approx(sum(works[:i]), rel=1e-12, abs=1e-12)


@common_settings
@given(works=works_strategy, alpha=alpha_strategy)
def test_power_and_energy_eval_match_scalar_methods(works, alpha):
    power = PolynomialPower(alpha)
    speeds = np.array(works)  # any positive array works as speeds
    expect_power = [power.power(float(s)) for s in speeds]
    assert np.allclose(power_eval(power, speeds), expect_power, rtol=1e-12)
    expect_energy = [power.energy(float(w), float(s)) for w, s in zip(works, speeds)]
    assert np.allclose(energy_eval(power, np.array(works), speeds), expect_energy, rtol=1e-12)


def test_energy_eval_general_power_accepts_2d_regression():
    """Pinned falsifying input for the non-polynomial 2-D ``energy_eval`` bug.

    The general-power fallback zipped the raw arrays, so 2-D input paired
    whole *rows* and ``float(row)`` raised ``TypeError``.  The batched tier
    evaluates padded ``(batch, n)`` arrays through this exact branch, so the
    fallback must flatten (and broadcast) before the scalar loop.
    """
    power = AffinePolynomialPower(exponent=3.0, coefficient=1.0, static=0.5)
    assert not power.is_polynomial  # must exercise the fallback branch
    # all speeds above the affine model's critical speed (~0.63)
    works = np.array([[1.0, 2.0, 0.5], [0.25, 3.0, 1.5]])
    speeds = np.array([[2.0, 1.0, 4.0], [1.0, 1.5, 2.0]])
    out = energy_eval(power, works, speeds)
    assert out.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert out[i, j] == pytest.approx(
                power.energy(float(works[i, j]), float(speeds[i, j])), rel=1e-12
            )
    # broadcasting (one speed row against a 2-D work grid) follows numpy rules
    broad = energy_eval(power, works, speeds[0])
    assert broad.shape == (2, 3)
    assert broad[1, 2] == pytest.approx(
        power.energy(float(works[1, 2]), float(speeds[0, 2])), rel=1e-12
    )


def test_chain_start_times_empty_input_regression():
    """Pinned falsifying input for the empty-chain ``IndexError`` bug.

    ``chain_start_times([], [], t0)`` indexed ``adjusted[0]`` unconditionally;
    an empty chain (e.g. a processor that was assigned no jobs) must come
    back as an empty ``(starts, ends)`` pair instead of raising.
    """
    starts, ends = chain_start_times(np.empty(0), np.empty(0), 3.5)
    assert starts.shape == (0,)
    assert ends.shape == (0,)
    assert starts is not ends  # callers may mutate one without the other
    # the downstream Schedule.from_speeds path over the same recurrence is
    # unchanged for the smallest real chain
    from repro.core.schedule import Schedule

    inst = Instance.from_arrays([1.0], [2.0])
    sched = Schedule.from_speeds(inst, CUBE, np.array([4.0]))
    assert sched.pieces[0].start == pytest.approx(1.0, rel=1e-12)
    assert sched.pieces[0].end == pytest.approx(1.5, rel=1e-12)


@common_settings
@given(releases=releases_strategy, works=works_strategy)
def test_chain_start_times_matches_sequential_replay(releases, works):
    inst = _plain_instance(releases, works)
    durations = inst.works  # pretend speed 1
    starts, ends = chain_start_times(inst.releases, durations, inst.first_release)
    clock = inst.first_release
    for i in range(inst.n_jobs):
        begin = max(clock, inst.releases[i])
        assert starts[i] == pytest.approx(begin, rel=1e-12, abs=1e-12)
        clock = begin + durations[i]
        assert ends[i] == pytest.approx(clock, rel=1e-12, abs=1e-12)


@common_settings
@given(releases=releases_strategy, works=works_strategy, laxities=laxities_strategy)
def test_max_density_interval_matches_pairwise_scan(releases, works, laxities):
    inst = _deadline_instance(releases, works, laxities)
    r, d, w = inst.releases, inst.deadlines, inst.works
    found = max_density_interval(r, d, w)
    assert found is not None
    t1, t2, density, members = found
    # brute-force the best density over the critical grid
    best = -1.0
    for a in sorted(set(r)):
        for b in sorted(set(d)):
            if b <= a:
                continue
            mask = (r >= a) & (d <= b)
            if not mask.any():
                continue
            best = max(best, float(w[mask].sum()) / (b - a))
    assert density == pytest.approx(best, rel=TOL)
    assert np.array_equal(members, (r >= t1) & (d <= t2))


# ----------------------------------------------------------------------
# YDS: vectorized vs retained reference
# ----------------------------------------------------------------------


@common_settings
@given(releases=releases_strategy, works=works_strategy, laxities=laxities_strategy)
def test_yds_vectorized_matches_reference(releases, works, laxities):
    inst = _deadline_instance(releases, works, laxities)
    fast = yds_speeds(inst)
    slow = yds_speeds_reference(inst)
    assert np.allclose(fast.speeds, slow.speeds, rtol=TOL, atol=TOL)
    assert len(fast.critical_intervals) == len(slow.critical_intervals)
    # exact interval endpoints may legitimately differ between the two when
    # several intervals are critical at (numerically) the same density, so
    # compare the density sequences, which are the quantities that define the
    # speeds.
    fast_densities = sorted(i for _, _, i in fast.critical_intervals)
    slow_densities = sorted(i for _, _, i in slow.critical_intervals)
    assert np.allclose(fast_densities, slow_densities, rtol=TOL, atol=TOL)


def test_yds_vectorized_matches_reference_midsize():
    from repro.workloads import deadline_instance

    for seed in range(3):
        inst = deadline_instance(60, seed=seed, laxity=3.0)
        fast = yds_speeds(inst)
        slow = yds_speeds_reference(inst)
        assert np.allclose(fast.speeds, slow.speeds, rtol=TOL, atol=TOL)


# ----------------------------------------------------------------------
# IncMerge on the kernel layer vs independent solvers
# ----------------------------------------------------------------------


@common_settings
@given(
    releases=releases_strategy,
    works=works_strategy,
    energy=energy_strategy,
    alpha=alpha_strategy,
)
def test_incmerge_matches_quadratic_solver(releases, works, energy, alpha):
    inst = _plain_instance(releases, works)
    power = PolynomialPower(alpha)
    fast = incmerge(inst, power, energy)
    slow = quadratic_laptop(inst, power, energy)
    assert fast.makespan == pytest.approx(slow.makespan, rel=TOL)
    assert np.allclose(fast.speeds, slow.speeds, rtol=TOL)
    assert fast.energy == pytest.approx(energy, rel=1e-8)


@common_settings
@given(releases=releases_strategy, works=works_strategy, energy=energy_strategy)
def test_incmerge_matches_brute_force(releases, works, energy):
    inst = _plain_instance(releases, works)
    assume(inst.n_jobs <= 6)
    fast = incmerge(inst, CUBE, energy)
    slow = brute_force_laptop(inst, CUBE, energy)
    assert fast.makespan == pytest.approx(slow.makespan, rel=TOL)


# ----------------------------------------------------------------------
# TradeoffCurve vectorized sampling vs scalar evaluation
# ----------------------------------------------------------------------


@common_settings
@given(
    releases=releases_strategy,
    works=works_strategy,
    alpha=alpha_strategy,
)
def test_curve_sampling_matches_scalar_path(releases, works, alpha):
    inst = _plain_instance(releases, works)
    power = PolynomialPower(alpha)
    curve = makespan_frontier(inst, power)
    grid = curve.energy_grid(64)
    sampled = curve.sample(grid)
    scalar = np.array([curve.segment_at(float(e)).value(float(e)) for e in grid])
    assert np.allclose(sampled, scalar, rtol=TOL)
    d1 = curve.sample_derivative(grid)
    scalar_d1 = np.array([curve.segment_at(float(e)).derivative_at(float(e)) for e in grid])
    assert np.allclose(d1, scalar_d1, rtol=TOL)
    d2 = curve.sample_second_derivative(grid)
    scalar_d2 = np.array(
        [curve.segment_at(float(e)).second_derivative_at(float(e)) for e in grid]
    )
    assert np.allclose(d2, scalar_d2, rtol=TOL)


def test_segment_at_endpoint_noise_regression():
    """Pinned hypothesis falsifying example for the endpoint-noise bug.

    Cascading ``fixed_energy`` by repeated subtraction left a ~6e-12
    cancellation residual once every fixed block was popped, so the cheapest
    configuration rejected budgets between 0 and the residual; the curve's
    own ``energy_grid`` starts inside that band and construction raised
    ``BudgetError`` from ``_check_monotone``.
    """
    inst = _plain_instance([0.0, 3.0, 2.984375], [0.109375, 3.0, 1.0])
    curve = makespan_frontier(inst, CUBE)
    # the empty fixed prefix must contribute exactly zero energy
    assert curve.segments[0].payload.fixed_energy == 0.0
    for e in curve.energy_grid(32):
        fast = curve.segment_at(float(e))
        assert math.isfinite(fast.value(float(e)))
        assert math.isfinite(curve.value(float(e)))


def test_segment_at_clamps_endpoint_noise():
    """Energies within 1e-9 relative noise of either endpoint are clamped in."""
    inst = _plain_instance([0.0, 5.0, 6.0], [5.0, 2.0, 1.0])
    curve = makespan_frontier(inst, CUBE)
    lo = curve.min_energy
    below = lo - 1e-10 * max(1.0, lo)
    assert curve.segment_at(below) is curve.segments[0]
    sampled = curve.sample([below + 1.0])  # vectorised path shares the clamp
    assert np.isfinite(sampled).all()
    from repro.exceptions import BudgetError

    with pytest.raises(BudgetError):
        curve.segment_at(lo - 1.0)


@common_settings
@given(releases=releases_strategy, works=works_strategy)
def test_segment_at_matches_linear_scan(releases, works):
    inst = _plain_instance(releases, works)
    curve = makespan_frontier(inst, CUBE)
    for e in curve.energy_grid(32):
        fast = curve.segment_at(float(e))
        slow = next(
            seg for seg in curve.segments if float(e) <= seg.energy_hi + 1e-12
        )
        assert fast is slow


# ----------------------------------------------------------------------
# Schedule construction/aggregation vs piece-by-piece replay
# ----------------------------------------------------------------------


@common_settings
@given(releases=releases_strategy, works=works_strategy, energy=energy_strategy)
def test_schedule_aggregation_matches_replay(releases, works, energy):
    inst = _plain_instance(releases, works)
    sched = incmerge(inst, CUBE, energy).schedule()
    # energy: replay every piece through the scalar power function
    replay_energy = sum(CUBE.power(p.speed) * p.duration for p in sched.pieces)
    assert sched.energy == pytest.approx(replay_energy, rel=1e-12)
    # completion times: last piece end per job
    for j in range(inst.n_jobs):
        ends = [p.end for p in sched.pieces if p.job == j]
        starts = [p.start for p in sched.pieces if p.job == j]
        assert sched.completion_times[j] == pytest.approx(max(ends), rel=1e-12)
        assert sched.start_times[j] == pytest.approx(min(starts), rel=1e-12)
    # per-job speeds: work-weighted average
    for j, s in enumerate(sched.speeds):
        pieces = [p for p in sched.pieces if p.job == j]
        expect = sum(p.work for p in pieces) / sum(p.duration for p in pieces)
        assert s == pytest.approx(expect, rel=1e-12)
    assert sched.energy_by_processor().sum() == pytest.approx(sched.energy, rel=1e-12)
    assert sched.processor_completion_times()[0] == pytest.approx(
        sched.makespan, rel=1e-12
    )
