"""Tests for the unified solver registry and typed request/response API."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.api import (
    BUDGET_KINDS,
    MACHINES,
    MODES,
    OBJECTIVES,
    REGISTRY,
    ProblemSpec,
    SolveRequest,
    SolveResult,
    SolverCapabilities,
    SolverRegistry,
    list_solvers,
    solve,
)
from repro.batch import solve_many
from repro.core import CUBE, Instance, PolynomialPower, TabulatedConvexPower
from repro.exceptions import (
    InvalidInstanceError,
    ReproError,
    UnknownSolverError,
    error_code,
)
from repro.io import request_from_dict, request_to_dict, result_from_dict, result_to_dict
from repro.workloads import deadline_instance, equal_work_instance, figure1_instance


def request_for(name: str) -> SolveRequest:
    """A valid request for any registered solver, driven by its metadata."""
    caps = REGISTRY.capabilities(name)
    if caps.needs_deadlines:
        instance = deadline_instance(5, seed=1, laxity=3.0)
    elif caps.needs_zero_release:
        instance = Instance.from_arrays(
            releases=[0.0] * 5, works=[5.0, 3.0, 2.0, 2.0, 1.0]
        )
    elif caps.needs_equal_work:
        instance = equal_work_instance(4, seed=1)
    else:
        instance = figure1_instance()
    budget = None
    if caps.budget_kind == "energy":
        budget = 12.0
    elif caps.budget_kind == "metric":
        # a loose target every server-mode solver can meet
        budget = 50.0
    options = {}
    if name == "frontier":
        options = {"min_energy": 8.0, "max_energy": 17.0, "points": 3}
    return SolveRequest(
        instance=instance,
        power=CUBE,
        solver=name,
        budget=budget,
        processors=2 if caps.multiprocessor else 1,
        options=options,
    )


class TestRegistryCompleteness:
    """Every registered solver carries full, valid capability metadata."""

    def test_registry_is_populated(self):
        assert len(REGISTRY) >= 11

    @pytest.mark.parametrize("name", list(REGISTRY.names()))
    def test_full_capability_metadata(self, name):
        caps = REGISTRY.capabilities(name)
        assert caps.name == name
        assert caps.spec.objective in OBJECTIVES
        assert caps.spec.mode in MODES
        assert caps.spec.machine in MACHINES
        assert isinstance(caps.spec.online, bool)
        assert caps.budget_kind in BUDGET_KINDS
        assert isinstance(caps.batchable, bool)
        assert caps.summary.strip()

    @pytest.mark.parametrize("name", list(REGISTRY.names()))
    def test_every_solver_listed_by_cli(self, name, capsys):
        from repro.cli import main

        assert main(["solve", "--list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "solver-list"
        assert name in {s["name"] for s in payload["solvers"]}

    @pytest.mark.parametrize("name", list(REGISTRY.names()))
    def test_request_roundtrips_through_json_and_solves(self, name):
        request = request_for(name)
        rebuilt = request_from_dict(json.loads(json.dumps(request_to_dict(request))))
        assert rebuilt.solver == name
        assert np.allclose(rebuilt.instance.releases, request.instance.releases)
        result = solve(rebuilt)
        assert result.ok, (name, result.error_code, result.error_message)
        back = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert back.ok and back.solver == name
        if result.speeds is not None:
            assert np.allclose(back.speeds, result.speeds)
        else:
            assert back.extras == dict(result.extras)

    def test_list_solvers_matches_registry(self):
        assert [caps.name for caps in list_solvers()] == list(REGISTRY.names())


class TestUnknownSolverUnification:
    """One registry error (with the known-solver list) from every entry point."""

    def test_registry_get(self):
        with pytest.raises(UnknownSolverError) as err:
            REGISTRY.get("nope")
        assert err.value.name == "nope"
        assert "laptop" in err.value.known

    def test_solve_many(self):
        with pytest.raises(UnknownSolverError) as err:
            solve_many([figure1_instance()], CUBE, 10.0, solver="nope")
        assert "known solvers" in str(err.value)

    def test_is_invalid_instance_and_value_error(self):
        # pre-registry call sites caught these; keep them working
        with pytest.raises(InvalidInstanceError):
            REGISTRY.get("nope")
        with pytest.raises(ValueError):
            solve_many([figure1_instance()], CUBE, 10.0, solver="nope")

    def test_solve_envelope(self):
        result = solve(SolveRequest(instance=figure1_instance(), power=CUBE, solver="nope"))
        assert not result.ok
        assert result.error_code == "unknown-solver"

    def test_non_batchable_solver_rejected_by_batch(self):
        with pytest.raises(InvalidInstanceError, match="not batchable"):
            solve_many([figure1_instance()], CUBE, 10.0, solver="frontier")


class TestErrorEnvelopes:
    def test_missing_budget(self):
        result = solve(SolveRequest(instance=figure1_instance(), power=CUBE, solver="laptop"))
        assert result.error_code == "invalid-budget"

    def test_missing_deadlines(self):
        result = solve(
            SolveRequest(instance=figure1_instance(), power=CUBE, solver="yds")
        )
        assert result.error_code == "invalid-instance"
        assert "deadline" in result.error_message

    def test_unsupported_power_gate(self):
        # no built-in solver needs power = s^alpha (they all keep numeric
        # fallbacks), so exercise the registry gate with a custom solver
        registry = SolverRegistry()
        registry.register(
            SolverCapabilities(
                name="poly-only",
                spec=ProblemSpec(objective="makespan", mode="laptop"),
                summary="requires power = s^alpha",
                needs_polynomial_power=True,
            ),
            lambda request: (request.power.alpha, None, None, {}),
        )
        tabulated = TabulatedConvexPower(lambda s: s**3)
        result = solve(
            SolveRequest(
                instance=figure1_instance(), power=tabulated,
                solver="poly-only", budget=1.0,
            ),
            registry=registry,
        )
        assert result.error_code == "unsupported-power"
        ok = solve(
            SolveRequest(
                instance=figure1_instance(), power=CUBE,
                solver="poly-only", budget=1.0,
            ),
            registry=registry,
        )
        assert ok.ok and ok.value == pytest.approx(3.0)

    def test_flow_accepts_non_polynomial_power(self):
        # regression: the flow solvers fall back to the convex approximation
        # for non-polynomial power, so the registry must not gate them
        from repro.core import AffinePolynomialPower

        affine = AffinePolynomialPower(exponent=3.0, coefficient=1.0, static=0.5)
        result = solve(
            SolveRequest(
                instance=equal_work_instance(4, seed=0),
                power=affine,
                solver="flow",
                budget=10.0,
            )
        )
        assert result.ok, (result.error_code, result.error_message)
        assert result.extras["exact_closed_form"] is False

    def test_infeasible_maps_to_code(self):
        # a flow target below the infinite-speed lower bound is infeasible
        result = solve(
            SolveRequest(
                instance=equal_work_instance(4, seed=0),
                power=CUBE,
                solver="flow-server",
                budget=1e-9,
            )
        )
        assert not result.ok
        assert result.error_code == "infeasible"

    def test_uniprocessor_solver_rejects_processors(self):
        result = solve(
            SolveRequest(
                instance=figure1_instance(), power=CUBE, solver="laptop",
                budget=17.0, processors=4,
            )
        )
        assert result.error_code == "invalid-instance"

    def test_raise_if_error(self):
        result = solve(SolveRequest(instance=figure1_instance(), power=CUBE, solver="nope"))
        with pytest.raises(ReproError, match="unknown-solver"):
            result.raise_if_error()
        ok = solve(request_for("laptop"))
        assert ok.raise_if_error() is ok

    def test_error_code_helper(self):
        assert error_code(UnknownSolverError("x")) == "unknown-solver"
        assert error_code(RuntimeError("x")) == "internal"


class TestSpecResolution:
    def test_unique_cell_resolves(self):
        spec = ProblemSpec(objective="makespan", mode="laptop")
        assert REGISTRY.resolve(spec) == "laptop"
        result = solve(
            SolveRequest(instance=figure1_instance(), power=CUBE, spec=spec, budget=17.0)
        )
        assert result.ok and result.solver == "laptop"
        assert result.value == pytest.approx(6.5)

    def test_spec_failure_envelope_names_resolved_solver(self):
        # resolution succeeded, validation failed: the envelope must say
        # which solver rejected the request, not "<spec>"
        spec = ProblemSpec(objective="makespan", mode="laptop")
        result = solve(SolveRequest(instance=figure1_instance(), power=CUBE, spec=spec))
        assert not result.ok
        assert result.solver == "laptop"
        assert result.error_code == "invalid-budget"

    def test_spec_failure_envelope_without_resolution(self):
        spec = ProblemSpec(objective="flow", mode="frontier")
        result = solve(SolveRequest(instance=figure1_instance(), power=CUBE, spec=spec))
        assert not result.ok and result.solver == "<spec>"
        assert result.error_code == "unknown-solver"

    def test_ambiguous_cell_requires_explicit_name(self):
        spec = ProblemSpec(objective="energy", mode="server", online=True)
        with pytest.raises(InvalidInstanceError, match="several solvers"):
            REGISTRY.resolve(spec)

    def test_unmatched_cell_is_unknown_solver(self):
        with pytest.raises(UnknownSolverError):
            REGISTRY.resolve(ProblemSpec(objective="flow", mode="frontier"))

    def test_invalid_spec_fields_rejected(self):
        with pytest.raises(InvalidInstanceError):
            ProblemSpec(objective="latency", mode="laptop")
        with pytest.raises(InvalidInstanceError):
            ProblemSpec(objective="makespan", mode="hybrid")

    def test_request_needs_solver_or_spec(self):
        with pytest.raises(InvalidInstanceError):
            SolveRequest(instance=figure1_instance(), power=CUBE)


class TestRegistryMechanics:
    def test_duplicate_registration_rejected(self):
        registry = SolverRegistry()
        caps = SolverCapabilities(
            name="demo",
            spec=ProblemSpec(objective="makespan", mode="laptop"),
            summary="demo",
        )
        registry.register(caps, lambda request: (1.0, 1.0, None, {}))
        with pytest.raises(InvalidInstanceError, match="already registered"):
            registry.register(caps, lambda request: (1.0, 1.0, None, {}))

    def test_find_filters(self):
        online = REGISTRY.find(online=True)
        assert online == ("avr", "oa", "bkp")
        assert set(REGISTRY.find(objective="makespan", machine="multi")) == {
            "multi-makespan",
            "multi-makespan-exact",
            "multi-makespan-ptas",
        }
        assert set(REGISTRY.find(variant_of="multi-makespan")) == {
            "multi-makespan-exact",
            "multi-makespan-ptas",
        }
        assert set(REGISTRY.find(approximate=True)) == {
            "multi-makespan-ptas",
            "frontier-coarse",
            "yds-anytime",
        }
        with pytest.raises(InvalidInstanceError, match="capability filter"):
            REGISTRY.find(bogus=True)

    def test_custom_registry_dispatch(self):
        registry = SolverRegistry()
        registry.register(
            SolverCapabilities(
                name="demo",
                spec=ProblemSpec(objective="makespan", mode="laptop"),
                summary="doubles the budget",
            ),
            lambda request: (2.0 * request.budget, request.budget, None, {"tag": "demo"}),
        )
        result = solve(
            SolveRequest(instance=figure1_instance(), power=CUBE, solver="demo", budget=3.0),
            registry=registry,
        )
        assert result.ok and result.value == 6.0 and result.extras["tag"] == "demo"


class TestBatchRegistryEquivalence:
    def test_solve_many_matches_registry_run(self):
        instances = [equal_work_instance(4, seed=s) for s in range(3)]
        batch = solve_many(instances, CUBE, 6.0, solver="flow")
        for res, inst in zip(batch, instances):
            direct = REGISTRY.run(
                SolveRequest(instance=inst, power=CUBE, solver="flow", budget=6.0)
            )
            assert res.value == float(direct.value)
            assert res.energy == float(direct.energy)
            assert np.array_equal(res.speeds, direct.speeds)

    def test_top_level_exports(self):
        assert repro.solve is solve
        assert repro.REGISTRY is REGISTRY
        assert isinstance(repro.REGISTRY, SolverRegistry)
        result = repro.solve(request_for("oa"))
        assert isinstance(result, SolveResult) and result.ok
