"""Equivalence suite for the structure-of-arrays batched kernel tier.

Every batched kernel in :mod:`repro.core.kernels` is pinned to a loop of its
per-instance counterpart on randomized (Hypothesis) *chunks* of instances —
padded same-shape chunks, mixed job counts via the mask, single-job rows and
degenerate all-equal-deadline chunks.  The pins are bitwise (``==`` on the
float arrays), not approximate: the batched tier is advertised as
byte-identical to the reference path, and the registry / batch-engine tests
below hold the end-to-end dispatch (``SolverRegistry.run_batch``,
``solve_stream(batch_kernel=...)``) to the same standard.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _strategies import (
    deadline_instance_from,
    hypothesis_settings,
    laxities_strategy,
    releases_strategy,
    works_strategy,
)
from repro.api.registry import REGISTRY, SolverRegistry
from repro.api.types import ProblemSpec, SolveRequest, SolverCapabilities
from repro.batch import solve_many
from repro.core import CUBE, Instance, PolynomialPower
from repro.core.kernels import (
    BatchWorkspace,
    max_density_interval,
    max_density_interval_batched,
    pack_instances,
)
from repro.exceptions import InvalidInstanceError
from repro.online.avr import avr_speed_profile, avr_speed_profiles_batch
from oracles.edf import edf_schedule_at_speeds_scan
from repro.online.yds import edf_schedule_at_speeds, yds_speeds, yds_speeds_batch

common_settings = hypothesis_settings(max_examples=25)

POWER = PolynomialPower(3.0)


@st.composite
def instance_chunks(draw):
    """A chunk of 1-5 feasible deadline instances with mixed job counts."""
    count = draw(st.integers(min_value=1, max_value=5))
    return [
        deadline_instance_from(
            draw(releases_strategy), draw(works_strategy), draw(laxities_strategy)
        )
        for _ in range(count)
    ]


def _degenerate_chunks() -> list[list[Instance]]:
    """Hand-picked edge chunks: n=1 rows, equal deadlines, equal releases."""
    single = Instance.from_arrays([0.0], [2.0], deadlines=[1.0])
    equal_deadline = Instance.from_arrays(
        [0.0, 0.0, 0.0], [1.0, 2.0, 0.5], deadlines=[4.0, 4.0, 4.0]
    )
    staggered = Instance.from_arrays(
        [0.0, 1.0, 1.0, 3.0], [1.0, 0.5, 2.0, 1.0], deadlines=[2.0, 2.0, 5.0, 4.0]
    )
    return [
        [single],
        [single, single, single],
        [equal_deadline, equal_deadline],
        [single, equal_deadline, staggered],
        [staggered] * 4,
    ]


# ----------------------------------------------------------------------
# packing + low-level batched kernels vs per-instance loops
# ----------------------------------------------------------------------


@common_settings
@given(instances=instance_chunks())
def test_pack_instances_layout(instances):
    batch = pack_instances(instances)
    assert batch.batch_size == len(instances)
    assert batch.width == max(inst.n_jobs for inst in instances)
    for b, inst in enumerate(instances):
        n = inst.n_jobs
        assert np.array_equal(batch.releases[b, :n], inst.releases)
        assert np.array_equal(batch.deadlines[b, :n], inst.deadlines)
        assert np.array_equal(batch.works[b, :n], inst.works)
        assert batch.mask[b, :n].all()
        assert not batch.mask[b, n:].any()
        assert np.isinf(batch.releases[b, n:]).all()
        assert (batch.works[b, n:] == 0.0).all()


@common_settings
@given(instances=instance_chunks())
def test_max_density_interval_batched_bitwise(instances):
    batch = pack_instances(instances)
    t1, t2, density = max_density_interval_batched(
        batch.releases, batch.deadlines, batch.works
    )
    for b, inst in enumerate(instances):
        found = max_density_interval(inst.releases, inst.deadlines, inst.works)
        assert found is not None
        assert t1[b] == found[0]
        assert t2[b] == found[1]
        assert density[b] == found[2]


def test_max_density_interval_batched_workspace_reuse():
    """A preallocated workspace gives identical answers across repeated calls."""
    instances = _degenerate_chunks()[3] * 8  # mixed shapes, 24 rows
    batch = pack_instances(instances)
    rows, width = batch.releases.shape
    workspace = BatchWorkspace(rows, width)
    plain = max_density_interval_batched(batch.releases, batch.deadlines, batch.works)
    for _ in range(3):  # reuse must not leak state between calls
        with_ws = max_density_interval_batched(
            batch.releases, batch.deadlines, batch.works, workspace=workspace
        )
        for a, c in zip(plain, with_ws):
            assert np.array_equal(a, c)


# ----------------------------------------------------------------------
# solver-layer batched entry points
# ----------------------------------------------------------------------


@common_settings
@given(instances=instance_chunks())
def test_yds_speeds_batch_bitwise(instances):
    planned = yds_speeds_batch(instances)
    for b, inst in enumerate(instances):
        ref = yds_speeds(inst).speeds
        assert np.array_equal(planned[b, : inst.n_jobs], ref)
        assert (planned[b, inst.n_jobs :] == 0.0).all()


def test_yds_speeds_batch_degenerate_chunks_bitwise():
    for instances in _degenerate_chunks():
        planned = yds_speeds_batch(instances)
        for b, inst in enumerate(instances):
            assert np.array_equal(planned[b, : inst.n_jobs], yds_speeds(inst).speeds)


@common_settings
@given(instances=instance_chunks())
def test_edf_energy_speeds_matches_schedule_bitwise(instances):
    """The energy and realised speeds the batched yds tier reports (read off
    the event-driven EDF schedule) equal the rescanning loop's, bitwise."""
    for inst in instances:
        speeds = yds_speeds(inst).speeds
        sched = edf_schedule_at_speeds(inst, POWER, speeds)
        oracle = edf_schedule_at_speeds_scan(inst, POWER, speeds)
        assert sched.energy == oracle.energy
        assert np.array_equal(sched.speeds, oracle.speeds)


@common_settings
@given(instances=instance_chunks())
def test_avr_profiles_batch_exact(instances):
    profiles = avr_speed_profiles_batch(instances)
    for inst, profile in zip(instances, profiles):
        assert profile == avr_speed_profile(inst)


# ----------------------------------------------------------------------
# registry dispatch: run_batch vs per-request run
# ----------------------------------------------------------------------


def _result_key(result):
    return (
        result.solver,
        result.status,
        result.value,
        result.energy,
        result.speeds.tobytes(),
        dict(result.extras),
    )


@pytest.mark.parametrize("solver", ["yds", "avr"])
def test_run_batch_byte_identical_to_run(solver):
    rng = np.random.default_rng(5)
    instances = []
    for n in (1, 3, 8, 8, 16, 5):
        rel = np.sort(rng.uniform(0.0, 10.0, n))
        wk = rng.uniform(0.1, 4.0, n)
        dl = rel + rng.uniform(0.5, 6.0, n)
        instances.append(Instance.from_arrays(rel, wk, deadlines=dl))
    requests = [
        SolveRequest(instance=inst, power=POWER, solver=solver) for inst in instances
    ]
    single = [_result_key(REGISTRY.run(r)) for r in requests]
    batched = [_result_key(r) for r in REGISTRY.run_batch(requests)]
    assert batched == single


def test_run_batch_rejects_mixed_solvers():
    inst = Instance.from_arrays([0.0], [1.0], deadlines=[1.0])
    with pytest.raises(InvalidInstanceError, match="homogeneous"):
        REGISTRY.run_batch(
            [
                SolveRequest(instance=inst, power=POWER, solver="yds"),
                SolveRequest(instance=inst, power=POWER, solver="avr"),
            ]
        )


def test_run_batch_rejects_solver_without_kernel():
    inst = Instance.from_arrays([0.0], [1.0], deadlines=[1.0])
    with pytest.raises(InvalidInstanceError, match="batched kernel"):
        REGISTRY.run_batch([SolveRequest(instance=inst, power=POWER, solver="oa")])


def test_run_batch_empty_chunk():
    assert REGISTRY.run_batch([]) == []


def test_run_batch_validates_each_request():
    # yds needs deadlines on every request of the chunk, not just the first
    good = Instance.from_arrays([0.0], [1.0], deadlines=[1.0])
    bad = Instance.from_arrays([0.0], [1.0])
    with pytest.raises(InvalidInstanceError, match="deadline"):
        REGISTRY.run_batch(
            [
                SolveRequest(instance=good, power=POWER, solver="yds"),
                SolveRequest(instance=bad, power=POWER, solver="yds"),
            ]
        )


def _toy_caps(name, batch_kernel=False):
    return SolverCapabilities(
        name=name,
        spec=ProblemSpec(objective="energy", mode="server"),
        summary="toy",
        budget_kind="none",
        batch_kernel=batch_kernel,
    )


def test_register_requires_flag_and_kernel_to_agree():
    registry = SolverRegistry()
    with pytest.raises(InvalidInstanceError, match="batch_kernel"):
        registry.register(_toy_caps("flagged", batch_kernel=True), lambda req: None)
    with pytest.raises(InvalidInstanceError, match="batch_kernel"):
        registry.register(
            _toy_caps("unflagged"),
            lambda req: None,
            batch_fn=lambda reqs: [],
        )


def test_run_batch_length_mismatch_is_rejected():
    registry = SolverRegistry()
    registry.register(
        _toy_caps("short", batch_kernel=True),
        lambda req: (1.0, 1.0, np.ones(1), {}),
        batch_fn=lambda reqs: [(1.0, 1.0, np.ones(1), {})] * (len(reqs) - 1),
    )
    inst = Instance.from_arrays([0.0], [1.0], deadlines=[1.0])
    requests = [
        SolveRequest(instance=inst, power=POWER, solver="short") for _ in range(3)
    ]
    with pytest.raises(InvalidInstanceError, match="returned 2 results"):
        registry.run_batch(requests)


# ----------------------------------------------------------------------
# batch engine dispatch: solve_stream batch_kernel modes
# ----------------------------------------------------------------------


def _fleet(seed=9, sizes=(8,) * 6 + (1, 3, 8, 16)):
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        rel = np.sort(rng.uniform(0.0, 10.0, n))
        wk = rng.uniform(0.1, 4.0, n)
        dl = rel + rng.uniform(0.5, 6.0, n)
        out.append(Instance.from_arrays(rel, wk, deadlines=dl))
    return out


def _batch_key(results):
    return [
        (r.index, r.solver, r.n_jobs, r.value, r.energy, r.speeds.tobytes())
        for r in results
    ]


@pytest.mark.parametrize("solver", ["yds", "avr"])
def test_solve_stream_batch_kernel_modes_byte_identical(solver):
    instances = _fleet()
    baseline = _batch_key(
        solve_many(instances, POWER, 0.0, solver=solver, batch_kernel="off")
    )
    for mode in ("auto", "on"):
        got = _batch_key(
            solve_many(instances, POWER, 0.0, solver=solver, batch_kernel=mode)
        )
        assert got == baseline


def test_solve_stream_batch_kernel_verify_path():
    instances = _fleet(sizes=(4, 4, 4, 4))
    results = solve_many(
        instances, POWER, 0.0, solver="yds", batch_kernel="on", verify=True
    )
    assert all(r.ok for r in results)


def test_solve_stream_batch_kernel_on_needs_capability():
    instances = _fleet(sizes=(4, 4))
    with pytest.raises(InvalidInstanceError, match="registers no batched kernel"):
        list(solve_many(instances, POWER, 100.0, solver="laptop", batch_kernel="on"))


def test_bkp_runs_per_instance_like_any_solver_without_a_kernel():
    # the array-native BKP path made the shared-grid batch kernel pointless:
    # "auto" runs bkp per instance and "on" refuses it like laptop above
    assert not REGISTRY.capabilities("bkp").batch_kernel
    instances = _fleet(sizes=(4, 4, 4))
    assert all(r.ok for r in solve_many(instances, POWER, 0.0, solver="bkp"))
    with pytest.raises(InvalidInstanceError, match="registers no batched kernel"):
        list(solve_many(instances, POWER, 0.0, solver="bkp", batch_kernel="on"))


def test_solve_stream_batch_kernel_rejects_unknown_mode():
    instances = _fleet(sizes=(4,))
    with pytest.raises(InvalidInstanceError, match="batch_kernel"):
        list(solve_many(instances, POWER, 0.0, solver="yds", batch_kernel="sometimes"))


def test_solve_stream_batch_kernel_auto_falls_back_without_kernel():
    # laptop registers no batched kernel; "auto" must quietly use the
    # per-instance path instead of raising
    instances = _fleet(sizes=(4, 4, 4))
    results = solve_many(instances, POWER, 100.0, solver="laptop", batch_kernel="auto")
    assert all(r.ok for r in results)
