"""Equivalence suite for the online engine (incremental / array-native paths).

Every fast path of the online engine is pinned to an oracle --

* ``oa_schedule_incremental`` (prefix-density planner, in-place residual
  updates, columnar pieces) vs ``oracles.oa.oa_schedule`` (re-plans with
  full YDS per event) at 1e-9, and vs
  ``oracles.oa.oa_schedule_incremental_pieces`` (one ``Piece`` per step)
  bit for bit,
* ``avr_speed_profile`` (event-grid scatter-add kernel) vs
  ``oracles.avr.avr_speed_profile_reference`` (one scan per segment), at
  1e-9,
* ``bkp_speed_profile`` (all intervals in one blocked pass) vs
  ``oracles.bkp.bkp_speed_profile_reference`` (one ``bkp_speed_at`` per
  slice) at 1e-9, and vs ``oracles.bkp.bkp_speed_profile_per_interval``
  bit for bit,
* ``execute_profile_edf`` (event-driven, columnar) vs
  ``oracles.executor.execute_profile_edf_reference`` (full-array rescans) at
  1e-9, and vs ``oracles.executor.execute_profile_edf_heap`` (one heap step
  per piece, ``Piece``-based work conservation) bit for bit,
* ``quantize_profile`` (masked array code) vs
  ``oracles.quantize.quantize_profile_loop`` bit for bit,
* ``edf_schedule_at_speeds`` (event-driven, columnar) vs
  ``oracles.edf.edf_schedule_at_speeds_scan`` (one ``np.where`` scan and one
  ``Piece`` per step, merged afterwards) bit for bit,

across all deadline-carrying generator families, including the two
adversarial ones, the benchmark's 64-job traces, plus randomized
(Hypothesis) instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _strategies import (
    deadline_instance_from as _deadline_instance,
    hypothesis_settings,
    laxities_strategy,
    releases_strategy,
    works_strategy,
)
from oracles.avr import avr_speed_profile_reference
from oracles.bkp import bkp_speed_profile_per_interval, bkp_speed_profile_reference
from oracles.edf import edf_schedule_at_speeds_scan
from oracles.executor import execute_profile_edf_heap, execute_profile_edf_reference
from oracles.oa import oa_schedule, oa_schedule_incremental_pieces
from oracles.quantize import quantize_profile_loop
from repro.core import CUBE, Instance, PolynomialPower
from repro.discrete import quantize_profile
from repro.exceptions import InfeasibleError, InvalidInstanceError
from repro.online import (
    avr_speed_profile,
    bkp_schedule,
    bkp_speed_profile,
    edf_schedule_at_speeds,
    execute_profile_edf,
    oa_schedule_incremental,
    yds_schedule,
    yds_speeds,
)
from repro.sim import generate_trace, machine_model
from repro.workloads import (
    deadline_instance,
    nested_interval_instance,
    staircase_deadline_instance,
)

TOL = 1e-9

#: name -> (n_jobs, seed) -> instance, every deadline-carrying family
FAMILIES = {
    "deadline": lambda n, seed: deadline_instance(n, seed=seed, laxity=2.5),
    "staircase": lambda n, seed: staircase_deadline_instance(n, seed=seed),
    "nested": lambda n, seed: nested_interval_instance(n, seed=seed),
}

common_settings = hypothesis_settings(max_examples=30)


def _assert_profiles_equal(fast, slow):
    assert len(fast) == len(slow)
    for (a1, b1, s1), (a2, b2, s2) in zip(fast, slow):
        assert a1 == pytest.approx(a2, rel=1e-12, abs=1e-12)
        assert b1 == pytest.approx(b2, rel=1e-12, abs=1e-12)
        assert s1 == pytest.approx(s2, rel=TOL, abs=TOL)


# ----------------------------------------------------------------------
# incremental OA vs the scalar replanning reference
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n_jobs", [1, 2, 5, 11, 20])
def test_incremental_oa_matches_reference_on_families(family, n_jobs):
    for seed in range(4):
        inst = FAMILIES[family](n_jobs, seed)
        for alpha in (2.0, 3.0):
            power = PolynomialPower(alpha)
            reference = oa_schedule(inst, power)
            incremental = oa_schedule_incremental(inst, power)
            assert incremental.energy == pytest.approx(reference.energy, rel=TOL)
            incremental.validate(require_deadlines=True)


def test_incremental_oa_same_event_batch_regression():
    """Pinned hypothesis falsifying example: two jobs in one release event.

    The arriving batch must be deadline-sorted before the binary merge —
    searchsorted positions only interleave against the existing order, so an
    unsorted batch corrupted the prefix-density staircase (speeds 2, 2
    instead of 1, 1 here).
    """
    inst = _deadline_instance([0.0, 0.0], [1.0, 1.0], [2.0, 1.0])
    incremental = oa_schedule_incremental(inst, CUBE)
    assert incremental.energy == pytest.approx(oa_schedule(inst, CUBE).energy, rel=TOL)
    assert incremental.energy == pytest.approx(2.0, rel=TOL)


@pytest.mark.slow
@common_settings
@given(releases=releases_strategy, works=works_strategy, laxities=laxities_strategy)
def test_incremental_oa_matches_reference_hypothesis(releases, works, laxities):
    inst = _deadline_instance(releases, works, laxities)
    reference = oa_schedule(inst, CUBE)
    incremental = oa_schedule_incremental(inst, CUBE)
    assert incremental.energy == pytest.approx(reference.energy, rel=TOL)
    # the executed work per job must match the instance exactly either way
    executed = np.zeros(inst.n_jobs)
    for piece in incremental.pieces:
        executed[piece.job] += piece.work
    assert np.allclose(executed, inst.works, rtol=1e-6)


# ----------------------------------------------------------------------
# vectorized AVR / BKP profiles vs scalar references
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n_jobs", [1, 3, 9, 16])
def test_avr_profile_matches_reference_on_families(family, n_jobs):
    for seed in range(4):
        inst = FAMILIES[family](n_jobs, seed)
        _assert_profiles_equal(
            avr_speed_profile(inst), avr_speed_profile_reference(inst)
        )


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n_jobs", [1, 3, 9])
def test_bkp_profile_matches_reference_on_families(family, n_jobs):
    for seed in range(2):
        inst = FAMILIES[family](n_jobs, seed)
        _assert_profiles_equal(
            bkp_speed_profile(inst, steps_per_interval=8),
            bkp_speed_profile_reference(inst, steps_per_interval=8),
        )


@pytest.mark.slow
@common_settings
@given(releases=releases_strategy, works=works_strategy, laxities=laxities_strategy)
def test_avr_and_bkp_profiles_match_reference_hypothesis(releases, works, laxities):
    inst = _deadline_instance(releases, works, laxities)
    _assert_profiles_equal(avr_speed_profile(inst), avr_speed_profile_reference(inst))
    _assert_profiles_equal(
        bkp_speed_profile(inst, steps_per_interval=4),
        bkp_speed_profile_reference(inst, steps_per_interval=4),
    )


# ----------------------------------------------------------------------
# heap-based executor vs full-rescan reference
# ----------------------------------------------------------------------


def _assert_schedules_equal(fast, slow):
    assert fast.energy == pytest.approx(slow.energy, rel=TOL)
    assert len(fast.pieces) == len(slow.pieces)
    for p, q in zip(fast.pieces, slow.pieces):
        assert p.job == q.job
        assert p.start == pytest.approx(q.start, rel=1e-12, abs=1e-12)
        assert p.end == pytest.approx(q.end, rel=1e-12, abs=1e-12)
        assert p.speed == pytest.approx(q.speed, rel=TOL)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n_jobs", [1, 4, 10, 18])
def test_executor_matches_reference_on_avr_profiles(family, n_jobs):
    for seed in range(3):
        inst = FAMILIES[family](n_jobs, seed)
        profile = avr_speed_profile(inst)
        _assert_schedules_equal(
            execute_profile_edf(inst, CUBE, profile),
            execute_profile_edf_reference(inst, CUBE, profile),
        )


@pytest.mark.slow
@common_settings
@given(releases=releases_strategy, works=works_strategy, laxities=laxities_strategy)
def test_executor_matches_reference_hypothesis(releases, works, laxities):
    inst = _deadline_instance(releases, works, laxities)
    profile = bkp_speed_profile(inst, steps_per_interval=4)
    _assert_schedules_equal(
        execute_profile_edf(inst, CUBE, profile, work_tolerance=1e-3),
        execute_profile_edf_reference(inst, CUBE, profile, work_tolerance=1e-3),
    )


# ----------------------------------------------------------------------
# bitwise pins: array-native profile, quantiser and executor vs oracles
# ----------------------------------------------------------------------

#: The sim-replay benchmark's traces: 64 jobs, seed 7000.
TRACE_FAMILIES = ("day-night", "heavy-tail", "mmpp")


def _trace_instance(family: str) -> Instance:
    return generate_trace(family, 64, seed=7000).to_instance()


def _assert_schedules_identical(fast, slow):
    """Same pieces, same columns, same derived figures -- compared with ``==``."""
    assert fast.pieces == slow.pieces
    for got, want in zip(fast.columns, slow.columns):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert fast.energy == slow.energy
    assert np.array_equal(fast.speeds, slow.speeds, equal_nan=True)
    assert np.array_equal(fast.completion_times, slow.completion_times)


def _assert_bkp_path_identical(inst, steps=64):
    profile = bkp_speed_profile(inst, steps_per_interval=steps)
    oracle = bkp_speed_profile_per_interval(inst, steps_per_interval=steps)
    assert profile.shape == (len(oracle), 3)
    assert np.array_equal(profile, np.array(oracle))
    _assert_schedules_identical(
        execute_profile_edf(inst, CUBE, profile, work_tolerance=1e-3),
        execute_profile_edf_heap(inst, CUBE, oracle, work_tolerance=1e-3),
    )
    return profile


@pytest.mark.parametrize("family", TRACE_FAMILIES)
def test_bkp_path_bitwise_on_benchmark_traces(family):
    profile = _assert_bkp_path_identical(_trace_instance(family))
    assert len(profile) > 4000


@pytest.mark.parametrize("n_jobs", [16, 32, 64])
def test_bkp_path_bitwise_on_deadline_instances(n_jobs):
    for seed in range(2):
        _assert_bkp_path_identical(deadline_instance(n_jobs, seed=seed, laxity=2.5))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bkp_path_bitwise_at_coarse_grids(family):
    for steps in (1, 3, 8):
        for seed in range(2):
            _assert_bkp_path_identical(FAMILIES[family](9, seed), steps=steps)


def test_executor_bitwise_on_avr_profiles_with_negative_idle_speeds():
    instances = [deadline_instance(n, seed=s, laxity=2.5) for n in (16, 32, 64) for s in range(2)]
    instances += [_trace_instance(family) for family in TRACE_FAMILIES]
    negative = 0
    for inst in instances:
        profile = avr_speed_profile(inst)
        negative += sum(-1e-15 < speed < 0.0 for _, _, speed in profile)
        _assert_schedules_identical(
            execute_profile_edf(inst, CUBE, profile),
            execute_profile_edf_heap(inst, CUBE, profile),
        )
    # AVR's density sums leave -1e-16-sized idle speeds; they must be covered
    assert negative > 0


def _quantised_with_tail(profile, machine_name):
    """The sim engine's profile on a ladder machine: quantised, plus a tail."""
    machine = machine_model(machine_name)
    pq = quantize_profile(profile, machine.levels, machine.quantization)
    segments, clamped, slowed, deficit = quantize_profile_loop(
        [tuple(row) for row in np.asarray(profile).tolist()],
        machine.levels,
        machine.quantization,
    )
    assert pq.segments == segments
    assert np.array_equal(pq.profile, np.array(segments).reshape(-1, 3))
    assert (pq.clamped_segments, pq.slowed_segments) == (clamped, slowed)
    assert pq.deficit_work == deficit
    rows = list(segments)
    if deficit > 0:
        last_end = max(end for _, end, _ in rows)
        rows.append((last_end, last_end + deficit / machine.levels.max_speed * 1.001 + 1e-9,
                     machine.levels.max_speed))
    return rows


@pytest.mark.parametrize("machine_name", ["athlon64", "athlon64-nearest"])
@pytest.mark.parametrize("family", TRACE_FAMILIES)
def test_quantised_bkp_profiles_bitwise(machine_name, family):
    inst = _trace_instance(family)
    rows = _quantised_with_tail(bkp_speed_profile(inst), machine_name)
    speeds = np.array(rows)[:, 2]
    assert np.any(speeds == 0.0)  # idle remainders of sub-minimum slices
    table = np.array(rows)
    _assert_schedules_identical(
        execute_profile_edf(inst, CUBE, table, work_tolerance=1e-3),
        execute_profile_edf_heap(inst, CUBE, rows, work_tolerance=1e-3),
    )


def test_quantised_profiles_exercise_the_max_speed_tail():
    tails = 0
    for family in TRACE_FAMILIES:
        inst = _trace_instance(family)
        for machine_name in ("athlon64", "athlon64-nearest"):
            for profile in (bkp_speed_profile(inst), avr_speed_profile(inst)):
                rows = _quantised_with_tail(profile, machine_name)
                tails += rows[-1][2] == machine_model(machine_name).levels.max_speed
                _assert_schedules_identical(
                    execute_profile_edf(inst, CUBE, np.array(rows), work_tolerance=1e-3),
                    execute_profile_edf_heap(inst, CUBE, rows, work_tolerance=1e-3),
                )
    assert tails > 0


def _irregular(profile, rng):
    """Shuffled rows, dropped rows (gaps) and sub-1e-15 slivers split off."""
    rows = [tuple(row) for row in np.asarray(profile).tolist()]
    out = []
    for k, (a, b, s) in enumerate(rows):
        if k % 11 == 5:
            continue  # a gap
        if k % 7 == 3:
            sliver = float(np.nextafter(a, np.inf))
            out.append((a, sliver, s))
            out.append((sliver, b, s))
            continue
        out.append((a, b, s))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


@pytest.mark.parametrize("family", TRACE_FAMILIES)
def test_executor_bitwise_on_unsorted_gapped_sliver_profiles(family):
    rng = np.random.default_rng(3)
    inst = _trace_instance(family)
    profile = bkp_speed_profile(inst)
    # stretch the speeds so the gaps still leave a feasible profile
    profile[:, 2] *= 4.0
    rows = _irregular(profile, rng)
    assert any(0.0 < b - a < 1e-15 for a, b, _ in rows)
    _assert_schedules_identical(
        execute_profile_edf(inst, CUBE, np.array(rows), work_tolerance=1e-3),
        execute_profile_edf_heap(inst, CUBE, rows, work_tolerance=1e-3),
    )
    _assert_schedules_identical(
        execute_profile_edf(inst, CUBE, rows, work_tolerance=1e-3),
        execute_profile_edf_heap(inst, CUBE, rows, work_tolerance=1e-3),
    )


def test_executor_overlap_error_matches_oracle():
    inst = _trace_instance("mmpp")
    rows = [tuple(row) for row in bkp_speed_profile(inst).tolist()]
    a, b, s = rows[40]
    rows[40] = (a, b + 0.5 * (rows[41][1] - rows[41][0]), s)
    with pytest.raises(InvalidInstanceError, match="overlap"):
        execute_profile_edf_heap(inst, CUBE, rows, work_tolerance=1e-3)
    with pytest.raises(InvalidInstanceError, match="overlap"):
        execute_profile_edf(inst, CUBE, np.array(rows), work_tolerance=1e-3)


def test_executor_unfinished_work_names_the_oracles_jobs():
    inst = _trace_instance("day-night")
    profile = bkp_speed_profile(inst)
    profile[:, 2] *= 0.1  # BKP's e-fold headroom survives halving
    with pytest.raises(InfeasibleError) as oracle:
        execute_profile_edf_heap(inst, CUBE, [tuple(r) for r in profile.tolist()],
                                 work_tolerance=1e-3)
    with pytest.raises(InfeasibleError) as fast:
        execute_profile_edf(inst, CUBE, profile, work_tolerance=1e-3)
    assert str(fast.value) == str(oracle.value)
    assert "jobs [" in str(fast.value)


# ----------------------------------------------------------------------
# bitwise pins: per-job-speed EDF executor and columnar OA vs oracles
# ----------------------------------------------------------------------


@st.composite
def _deadline_instances(draw):
    """Deadline instances with n = 1-64, tied releases and deadlines, and
    release gaps below 1e-12."""
    n = draw(st.integers(min_value=1, max_value=64))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    tie_share = draw(st.sampled_from([0.0, 0.3, 0.7]))
    sliver_share = draw(st.sampled_from([0.0, 0.3]))
    releases = np.sort(rng.uniform(0.0, 10.0, n))
    draws = rng.random(n)
    for i in range(1, n):
        if draws[i] < tie_share:
            releases[i] = releases[i - 1]
        elif draws[i] < tie_share + sliver_share:
            # log-uniform below 1e-12: from a few ulps (or a tie, rounded)
            # up to the 1e-12 release threshold
            releases[i] = releases[i - 1] + 10.0 ** rng.uniform(-17.0, -12.0)
    deadlines = releases + rng.uniform(0.3, 5.0, n)
    if draw(st.booleans()):
        deadlines = np.ceil(deadlines)  # tied deadlines
    return Instance.from_arrays(releases, rng.uniform(0.1, 3.0, n), deadlines=deadlines)


def _assert_edf_identical(inst, seed=0):
    """YDS speeds, and the same speeds scaled per job by factors in [1, 1.5]."""
    speeds = yds_speeds(inst).speeds
    scaled = speeds * np.random.default_rng(seed).uniform(1.0, 1.5, inst.n_jobs)
    for planned in (speeds, scaled):
        _assert_schedules_identical(
            edf_schedule_at_speeds(inst, CUBE, planned),
            edf_schedule_at_speeds_scan(inst, CUBE, planned),
        )


@pytest.mark.parametrize("family", TRACE_FAMILIES)
def test_per_job_speed_executor_bitwise_on_benchmark_traces(family):
    _assert_edf_identical(_trace_instance(family))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n_jobs", [1, 2, 16, 32, 64])
def test_per_job_speed_executor_bitwise_on_families(family, n_jobs):
    for seed in range(2):
        _assert_edf_identical(FAMILIES[family](n_jobs, seed), seed)


@pytest.mark.slow
@common_settings
@given(inst=_deadline_instances(), seed=st.integers(min_value=0, max_value=2**16))
def test_per_job_speed_executor_bitwise_hypothesis(inst, seed):
    _assert_edf_identical(inst, seed)


@pytest.mark.parametrize("family", TRACE_FAMILIES)
def test_columnar_oa_bitwise_on_benchmark_traces(family):
    inst = _trace_instance(family)
    _assert_schedules_identical(
        oa_schedule_incremental(inst, CUBE), oa_schedule_incremental_pieces(inst, CUBE)
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_columnar_oa_bitwise_on_families(family):
    for n_jobs in (1, 5, 20):
        for seed in range(2):
            inst = FAMILIES[family](n_jobs, seed)
            _assert_schedules_identical(
                oa_schedule_incremental(inst, CUBE),
                oa_schedule_incremental_pieces(inst, CUBE),
            )


@pytest.mark.slow
@common_settings
@given(inst=_deadline_instances())
def test_columnar_oa_bitwise_hypothesis(inst):
    _assert_schedules_identical(
        oa_schedule_incremental(inst, CUBE), oa_schedule_incremental_pieces(inst, CUBE)
    )


@pytest.mark.parametrize(
    "inst",
    [
        # the arrivals tie the residual job's deadline: they go before it
        Instance.from_arrays([0, 1, 1], [1, 1, 1], deadlines=[3, 3, 3]),
        # tied arrivals that tie no residual job keep their release order
        Instance.from_arrays([0, 1, 1, 1], [1, 2, 1, 1], deadlines=[2, 4, 4, 5]),
    ],
    ids=["arrivals-tie-a-residual-job", "tied-arrivals-only"],
)
def test_columnar_oa_insertion_order_bitwise(inst):
    """Where OA inserts arrivals with equal deadlines, pinned outside the
    slow split: the residual order decides which tied job runs first."""
    _assert_schedules_identical(
        oa_schedule_incremental(inst, CUBE), oa_schedule_incremental_pieces(inst, CUBE)
    )


def test_per_job_speed_executor_finishes_residuals_below_the_clock_resolution():
    """Near t = 1e4 a residual just above 1e-12 runs for less than half the
    float spacing at t; the rescanning loop then cannot advance and raises,
    while the executor counts the residual as done."""
    inst = Instance.from_arrays(
        [10001.8, 10002.5], [2.2, 1.2], deadlines=[10003.3, 10003.8]
    )
    speeds = yds_speeds(inst).speeds
    with pytest.raises(InfeasibleError, match="did not terminate"):
        edf_schedule_at_speeds_scan(inst, CUBE, speeds)
    schedule = edf_schedule_at_speeds(inst, CUBE, speeds)
    schedule.validate(require_deadlines=True)
    unshifted = Instance.from_arrays([1.8, 2.5], [2.2, 1.2], deadlines=[3.3, 3.8])
    assert schedule.energy == pytest.approx(yds_schedule(unshifted, CUBE).energy, rel=1e-9)


def test_profile_executor_finishes_residuals_below_the_clock_resolution():
    """BKP on (release, work, deadline) = (0, 1, 1) and (1e4, 1, 1e4 + 1):
    the heap loop stops with "did not advance", the executor completes."""
    inst = Instance.from_arrays([0.0, 1e4], [1.0, 1.0], deadlines=[1.0, 1e4 + 1.0])
    rows = [tuple(row) for row in bkp_speed_profile(inst).tolist()]
    with pytest.raises(InfeasibleError, match="did not advance"):
        execute_profile_edf_heap(inst, CUBE, rows, work_tolerance=1e-3)
    schedule = bkp_schedule(inst, CUBE)
    schedule.validate()
    # the two jobs never overlap, so each costs what it costs alone
    alone = bkp_schedule(Instance.from_arrays([0.0], [1.0], deadlines=[1.0]), CUBE)
    assert schedule.energy == pytest.approx(2.0 * alone.energy, rel=1e-9)
