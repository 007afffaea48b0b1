"""Tests for the metric registry and its structural properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CUBE,
    Instance,
    MAKESPAN,
    MAX_FLOW,
    METRICS,
    Schedule,
    TOTAL_FLOW,
    TOTAL_WEIGHTED_FLOW,
    evaluate,
)
from repro.core.metrics import makespan, max_flow, total_flow, total_weighted_flow
from repro.exceptions import InvalidInstanceError


@pytest.fixture
def inst():
    return Instance.from_arrays([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], weights=[1.0, 2.0, 3.0])


class TestMetricValues:
    def test_makespan(self, inst):
        assert makespan(np.array([3.0, 4.0, 5.0]), inst) == 5.0

    def test_total_flow(self, inst):
        assert total_flow(np.array([1.0, 3.0, 6.0]), inst) == pytest.approx(1 + 2 + 4)

    def test_weighted_flow(self, inst):
        value = total_weighted_flow(np.array([1.0, 3.0, 6.0]), inst)
        assert value == pytest.approx(1 * 1 + 2 * 2 + 3 * 4)

    def test_max_flow(self, inst):
        assert max_flow(np.array([1.0, 3.0, 6.0]), inst) == pytest.approx(4.0)

    def test_shape_check(self, inst):
        with pytest.raises(InvalidInstanceError):
            makespan(np.array([1.0, 2.0]), inst)


class TestMetricProperties:
    def test_cyclic_theorem_preconditions(self):
        assert MAKESPAN.supports_cyclic_theorem()
        assert TOTAL_FLOW.supports_cyclic_theorem()
        assert not TOTAL_WEIGHTED_FLOW.supports_cyclic_theorem()
        assert not MAX_FLOW.supports_cyclic_theorem()

    def test_symmetry_of_makespan_and_flow(self, inst):
        completions = np.array([2.0, 4.0, 7.0])
        permuted = np.array([7.0, 2.0, 4.0])
        assert makespan(completions, inst) == makespan(permuted, inst)
        assert total_flow(completions, inst) == pytest.approx(total_flow(permuted, inst))

    def test_weighted_flow_not_symmetric(self, inst):
        completions = np.array([2.0, 4.0, 7.0])
        permuted = np.array([7.0, 2.0, 4.0])
        assert total_weighted_flow(completions, inst) != pytest.approx(
            total_weighted_flow(permuted, inst)
        )

    def test_non_decreasing(self, inst):
        completions = np.array([2.0, 4.0, 7.0])
        for metric in METRICS.values():
            bumped = completions.copy()
            bumped[1] += 1.0
            assert metric.from_completions(bumped, inst) >= metric.from_completions(
                completions, inst
            )

    def test_registry_contains_all(self):
        assert set(METRICS) == {"makespan", "total_flow", "total_weighted_flow", "max_flow"}


class TestEvaluate:
    def test_evaluate_by_name_and_object(self, inst):
        sched = Schedule.from_speeds(inst, CUBE, [1.0, 1.0, 1.0])
        assert evaluate("makespan", sched) == pytest.approx(sched.makespan)
        assert evaluate(TOTAL_FLOW, sched) == pytest.approx(sched.total_flow)

    def test_unknown_metric(self, inst):
        sched = Schedule.from_speeds(inst, CUBE, [1.0, 1.0, 1.0])
        with pytest.raises(InvalidInstanceError):
            evaluate("no-such-metric", sched)
