"""Hypothesis property suite for the online speed-scaling stack.

Three families of invariants, each checked on randomized feasible
deadline instances:

* **feasibility** -- every AVR / OA (scalar and incremental) / BKP schedule
  meets all deadlines (BKP up to its documented discretisation tolerance),
* **energy sandwich** -- ``energy(YDS) <= energy(OA) <= alpha**alpha *
  energy(YDS)``: YDS is offline-optimal and OA is ``alpha**alpha``
  competitive (per instance, not just in the worst case),
* **scaling invariance** -- stretching time by ``c`` divides all profile
  speeds by ``c`` (and shifts events), scaling work by ``c`` multiplies
  them by ``c``; the incremental OA energy scales accordingly.

Hypothesis-heavy tests carry the ``slow`` marker so ``pytest -m "not slow"``
stays a quick smoke run.
"""

from __future__ import annotations

import math

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
from oracles.oa import oa_schedule
from repro.core import CUBE, Instance, PolynomialPower
from repro.online import (
    avr_schedule,
    avr_speed_profile,
    bkp_schedule,
    oa_schedule_incremental,
    yds_schedule,
)

pytestmark = pytest.mark.slow

common_settings = hypothesis_settings(max_examples=30)

alpha_strategy = st.floats(min_value=1.5, max_value=4.0, allow_nan=False)
scale_strategy = st.floats(min_value=0.25, max_value=4.0, allow_nan=False)


# ----------------------------------------------------------------------
# deadline feasibility
# ----------------------------------------------------------------------


@common_settings
@given(releases=releases_strategy, works=works_strategy, laxities=laxities_strategy)
def test_avr_and_oa_schedules_meet_deadlines(releases, works, laxities):
    inst = _deadline_instance(releases, works, laxities)
    avr_schedule(inst, CUBE).validate(require_deadlines=True)
    oa_schedule(inst, CUBE).validate(require_deadlines=True)
    oa_schedule_incremental(inst, CUBE).validate(require_deadlines=True)


@common_settings
@given(releases=releases_strategy, works=works_strategy, laxities=laxities_strategy)
def test_bkp_schedule_feasible_up_to_discretisation(releases, works, laxities):
    inst = _deadline_instance(releases, works, laxities)
    schedule = bkp_schedule(inst, CUBE, steps_per_interval=32)
    # the discretised simulation may overrun a deadline by a sliver that
    # vanishes with the step count; the work itself is always completed
    completions = schedule.completion_times
    slack = 1e-2 * np.maximum(1.0, np.abs(inst.deadlines))
    assert np.all(completions <= inst.deadlines + slack)
    executed = np.zeros(inst.n_jobs)
    for piece in schedule.pieces:
        executed[piece.job] += piece.work
    assert np.allclose(executed, inst.works, rtol=1e-9)


# ----------------------------------------------------------------------
# energy ordering: optimal <= OA <= alpha^alpha * optimal
# ----------------------------------------------------------------------


@common_settings
@given(
    releases=releases_strategy,
    works=works_strategy,
    laxities=laxities_strategy,
    alpha=alpha_strategy,
)
def test_energy_sandwich_yds_oa(releases, works, laxities, alpha):
    inst = _deadline_instance(releases, works, laxities)
    power = PolynomialPower(alpha)
    optimal = yds_schedule(inst, power).energy
    online = oa_schedule_incremental(inst, power).energy
    assert online >= optimal * (1.0 - 1e-9)
    assert online <= alpha**alpha * optimal * (1.0 + 1e-9)


@common_settings
@given(releases=releases_strategy, works=works_strategy, laxities=laxities_strategy)
def test_avr_within_its_bound(releases, works, laxities):
    inst = _deadline_instance(releases, works, laxities)
    alpha = CUBE.alpha
    optimal = yds_schedule(inst, CUBE).energy
    online = avr_schedule(inst, CUBE).energy
    assert online >= optimal * (1.0 - 1e-9)
    assert online <= 2 ** (alpha - 1.0) * alpha**alpha * optimal * (1.0 + 1e-9)


# ----------------------------------------------------------------------
# scaling invariance of the profiles
# ----------------------------------------------------------------------


def _scaled_instance(inst: Instance, time_scale: float, work_scale: float) -> Instance:
    return Instance.from_arrays(
        inst.releases * time_scale,
        inst.works * work_scale,
        deadlines=inst.deadlines * time_scale,
    )


@common_settings
@given(
    releases=releases_strategy,
    works=works_strategy,
    laxities=laxities_strategy,
    scale=scale_strategy,
)
def test_avr_profile_time_scaling(releases, works, laxities, scale):
    inst = _deadline_instance(releases, works, laxities)
    base = avr_speed_profile(inst)
    scaled = avr_speed_profile(_scaled_instance(inst, scale, 1.0))
    assert len(base) == len(scaled)
    for (a, b, s), (a2, b2, s2) in zip(base, scaled, strict=True):
        assert a2 == pytest.approx(a * scale, rel=1e-9, abs=1e-12)
        assert b2 == pytest.approx(b * scale, rel=1e-9, abs=1e-12)
        assert s2 == pytest.approx(s / scale, rel=1e-9, abs=1e-12)


@common_settings
@given(
    releases=releases_strategy,
    works=works_strategy,
    laxities=laxities_strategy,
    scale=scale_strategy,
)
def test_avr_profile_work_scaling(releases, works, laxities, scale):
    inst = _deadline_instance(releases, works, laxities)
    base = avr_speed_profile(inst)
    scaled = avr_speed_profile(_scaled_instance(inst, 1.0, scale))
    for (a, b, s), (a2, b2, s2) in zip(base, scaled, strict=True):
        assert (a2, b2) == (a, b)
        assert s2 == pytest.approx(s * scale, rel=1e-9, abs=1e-12)


@common_settings
@given(
    releases=releases_strategy,
    works=works_strategy,
    laxities=laxities_strategy,
    scale=scale_strategy,
    alpha=alpha_strategy,
)
def test_oa_energy_scaling(releases, works, laxities, scale, alpha):
    """Work scaling by c multiplies all OA speeds (hence energy rates) by c."""
    inst = _deadline_instance(releases, works, laxities)
    power = PolynomialPower(alpha)
    base = oa_schedule_incremental(inst, power).energy
    scaled = oa_schedule_incremental(
        _scaled_instance(inst, 1.0, scale), power
    ).energy
    # energy = sum w * s^(alpha-1); w and s both scale by c => c^alpha
    assert scaled == pytest.approx(base * scale**alpha, rel=1e-6)


@common_settings
@given(
    releases=releases_strategy,
    works=works_strategy,
    laxities=laxities_strategy,
    scale=scale_strategy,
)
def test_oa_energy_time_scaling(releases, works, laxities, scale):
    """Time scaling by c divides speeds by c: energy scales by c^(1-alpha)."""
    inst = _deadline_instance(releases, works, laxities)
    alpha = CUBE.alpha
    base = oa_schedule_incremental(inst, CUBE).energy
    scaled = oa_schedule_incremental(_scaled_instance(inst, scale, 1.0), CUBE).energy
    # same works at speeds s/c => energy = sum w * (s/c)^(alpha-1)
    assert scaled == pytest.approx(base * scale ** (1.0 - alpha), rel=1e-6)
