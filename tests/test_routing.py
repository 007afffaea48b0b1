"""SLA-aware routing: cost models, the route() policy, and the serve wiring.

Covers the pieces the conformance suite exercises only end to end:

* :class:`repro.api.CostModel` prediction semantics and the unfitted priors
  (approximate variants priced cheaper by construction);
* the committed ``cost_models.json`` fit staying in sync with the committed
  bench trajectories (the ``tools/fit_cost_models.py --check`` contract);
* every branch of :meth:`repro.api.SolverRegistry.route` — exact-required,
  exact-fits, latency, overload, no-candidate, and the ``min_accuracy``
  floor;
* the PTAS epsilon boundary (structured :class:`InvalidInstanceError`) and
  the smallest-epsilon regression: with the accuracy knob tight enough that
  every job lands in the exhaustive phase, the PTAS must agree with the
  exact solver to machine precision;
* the serve loop's ``routing`` modes: ``off`` dispatches verbatim, ``sla``
  stamps ``routed_solver`` / ``epsilon`` / ``certificate`` into the serve
  metadata and counts reroutes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

from repro.api import REGISTRY, CostModel, SolveRequest
from repro.api import verify as api_verify
from repro.core import CUBE, Instance
from repro.exceptions import InvalidInstanceError
from repro.io import request_to_dict
from repro.multi.exact import exact_zero_release_makespan
from repro.multi.ptas import ptas_zero_release_makespan
from repro.service import ROUTING_MODES, AsyncServeLoop

_FIT_SCRIPT = Path(__file__).parent.parent / "tools" / "fit_cost_models.py"


def _zero_release(n: int = 10) -> Instance:
    works = [5.0, 3.0, 2.0, 2.0, 1.0, 4.0, 2.5, 1.5, 3.5, 1.0]
    return Instance.from_arrays([0.0] * n, works[:n], name="routing-test")


def _request(accuracy=None, latency_budget_ms=None, n=10,
             solver="multi-makespan-exact") -> SolveRequest:
    return SolveRequest(
        instance=_zero_release(n), power=CUBE, solver=solver, budget=80.0,
        processors=3, accuracy=accuracy, latency_budget_ms=latency_budget_ms,
    )


# ----------------------------------------------------------------------
# cost models
# ----------------------------------------------------------------------

def test_cost_model_predicts_the_power_law():
    model = CostModel(solver="x", log_a=math.log(1e-4), exponent=1.5)
    assert model.predict_ms(1) == pytest.approx(0.1)
    assert model.predict_ms(100) == pytest.approx(1e-4 * 1000 * 1e3)
    # degenerate sizes clamp to n=1 instead of predicting zero/negative work
    assert model.predict_ms(0) == model.predict_ms(1)


def test_unfitted_prior_prices_approximate_variants_cheaper():
    # solvers without a committed fit fall back to the prior; the approximate
    # prior must be strictly cheaper than the exact one at every size
    exact = CostModel(solver="e", log_a=math.log(1e-4), exponent=1.5)
    fresh = REGISTRY.cost_model("multi-flow")  # no trajectory committed
    assert fresh.source == "default"
    assert fresh.predict_ms(10) == pytest.approx(exact.predict_ms(10))


def test_fitted_models_load_from_the_committed_file():
    model = REGISTRY.cost_model("multi-makespan-exact")
    assert model.source != "default", (
        "src/repro/api/cost_models.json should carry a fitted row for "
        "multi-makespan-exact (run benchmarks/bench_routing.py then "
        "tools/fit_cost_models.py)"
    )
    # the exhaustive solver's fitted cost must dwarf the PTAS's at n=10 —
    # this gap is what makes the router shed to the variant under pressure
    ptas = REGISTRY.cost_model("multi-makespan-ptas")
    assert model.predict_ms(10) > 5 * ptas.predict_ms(10)


def test_committed_cost_models_match_the_committed_trajectories():
    """tools/fit_cost_models.py --check: the fit cannot silently drift."""
    spec = importlib.util.spec_from_file_location("fit_cost_models", _FIT_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--check"]) == 0


def test_fit_power_law_recovers_a_planted_law():
    spec = importlib.util.spec_from_file_location("fit_cost_models", _FIT_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # t = 2e-4 * n^2 seconds, expressed in the ms cells the bench writes
    cells = [(n, 2e-4 * n**2 * 1e3, "BENCH_test.json") for n in (4, 8, 16, 32)]
    fit = module.fit_power_law(cells)
    assert fit["exponent"] == pytest.approx(2.0, abs=1e-6)
    assert math.exp(fit["log_a"]) == pytest.approx(2e-4, rel=1e-6)
    # single-cell fallback anchors the default exponent through the point
    single = module.fit_power_law(cells[:1])
    assert single["exponent"] == module.DEFAULT_EXPONENT
    t4 = math.exp(single["log_a"]) * 4**single["exponent"]
    assert t4 == pytest.approx(2e-4 * 16, rel=1e-6)


# ----------------------------------------------------------------------
# route() policy
# ----------------------------------------------------------------------

def test_route_without_accuracy_is_exact_required():
    decision = REGISTRY.route(_request())
    assert decision.solver == "multi-makespan-exact"
    assert decision.reason == "exact-required"
    assert decision.exact


def test_route_prefers_exact_when_it_fits_the_budget():
    generous = REGISTRY.cost_model("multi-makespan-exact").predict_ms(10) * 10
    decision = REGISTRY.route(_request(accuracy=0.5, latency_budget_ms=generous))
    assert decision.solver == "multi-makespan-exact"
    assert decision.reason == "exact-fits"


def test_route_degrades_to_the_variant_under_a_tight_budget():
    exact_ms = REGISTRY.cost_model("multi-makespan-exact").predict_ms(10)
    ptas_ms = REGISTRY.cost_model("multi-makespan-ptas").predict_ms(10)
    assert ptas_ms < exact_ms
    budget = (ptas_ms + exact_ms) / 2  # fits the ptas, not the exact
    decision = REGISTRY.route(_request(accuracy=0.5, latency_budget_ms=budget))
    assert decision.solver == "multi-makespan-ptas"
    assert decision.reason == "latency"
    assert not decision.exact


def test_route_overload_picks_the_cheapest_candidate():
    decision = REGISTRY.route(_request(accuracy=0.5, latency_budget_ms=1e-9))
    assert decision.reason == "overload"
    assert decision.solver == "multi-makespan-ptas"


def test_route_respects_the_min_accuracy_floor():
    floor = REGISTRY.capabilities("multi-makespan-ptas").min_accuracy
    decision = REGISTRY.route(
        _request(accuracy=floor / 2, latency_budget_ms=1e-9)
    )
    # the only variant is filtered out; the exact solver survives as the
    # lone candidate even though nothing fits the budget
    assert decision.solver == "multi-makespan-exact"
    assert decision.exact


def test_route_budget_argument_overrides_the_request_field():
    request = _request(accuracy=0.5, latency_budget_ms=1e6)
    decision = REGISTRY.route(request, latency_budget_ms=1e-9)
    assert decision.reason == "overload"
    assert decision.solver == "multi-makespan-ptas"


def test_routed_answer_verifies_against_the_original_request():
    request = _request(accuracy=0.5, latency_budget_ms=1e-9)
    decision = REGISTRY.route(request)
    result = REGISTRY.run(dataclasses.replace(request, solver=decision.solver))
    assert result.approximation is not None
    assert result.approximation["epsilon"] <= 0.5
    report = api_verify(request, result)
    assert report.ok, [f"{f.check}:{f.code}" for f in report.errors]


# ----------------------------------------------------------------------
# PTAS epsilon boundary + smallest-epsilon regression (satellite b)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5, float("nan"), float("inf")])
def test_ptas_rejects_out_of_range_epsilon(epsilon):
    with pytest.raises(InvalidInstanceError):
        ptas_zero_release_makespan(
            _zero_release(5), CUBE, n_processors=2, energy_budget=20.0,
            epsilon=epsilon,
        )


def test_ptas_at_smallest_epsilon_agrees_with_the_exact_solver():
    """Accuracy so tight every job is assigned exhaustively -> exact answer.

    ``k = min(n, max_exact_jobs, ceil(m / epsilon))``: epsilon small enough
    pushes k to n, phase 2 places nothing greedily, and the PTAS value must
    match ``exact_zero_release_makespan`` to machine precision — pinning the
    smallest-epsilon boundary against regression.
    """
    instance = _zero_release(7)
    exact = exact_zero_release_makespan(
        instance, CUBE, n_processors=3, energy_budget=60.0
    )
    approx = ptas_zero_release_makespan(
        instance, CUBE, n_processors=3, energy_budget=60.0,
        epsilon=1e-6, max_exact_jobs=instance.n_jobs,
    )
    assert approx.n_exact_jobs == instance.n_jobs
    assert approx.makespan == pytest.approx(exact.makespan, rel=1e-12)


# ----------------------------------------------------------------------
# serve wiring
# ----------------------------------------------------------------------

def _line(request: SolveRequest, request_id: str = "t1") -> str:
    return json.dumps({**request_to_dict(request), "id": request_id})


def _serve(lines: list[str], **kwargs):
    """Responses and stats of one stdio serve run over ``lines``."""
    out = io.StringIO()
    loop = AsyncServeLoop(timing=False, **kwargs)
    stats = asyncio.run(loop.run_stream(iter(line + "\n" for line in lines), out))
    return [json.loads(line) for line in out.getvalue().splitlines()], stats


def test_unknown_routing_mode_is_rejected():
    with pytest.raises(InvalidInstanceError):
        AsyncServeLoop(routing="bogus")
    assert ROUTING_MODES == ("off", "sla")


def test_off_mode_never_routes_and_stamps_no_routing_metadata():
    [response], stats = _serve(
        [_line(_request(accuracy=0.5, latency_budget_ms=1e-9))], routing="off",
    )
    assert response["result"]["solver"] == "multi-makespan-exact"
    assert "routed_solver" not in response["serve"]
    assert stats.routed == 0


def test_sla_mode_routes_and_stamps_certificate_metadata():
    [response], stats = _serve(
        [_line(_request(accuracy=0.5, latency_budget_ms=1e-9))], routing="sla",
    )
    assert response["result"]["solver"] == "multi-makespan-ptas"
    serve = response["serve"]
    assert serve["routed_solver"] == "multi-makespan-ptas"
    assert serve["certificate"] == "error-bound"
    assert 0.0 <= serve["epsilon"] <= 0.5
    assert stats.routed == 1
    assert "1 routed" in stats.summary()


def test_sla_mode_leaves_accuracy_free_requests_alone():
    [response], stats = _serve([_line(_request())], routing="sla")
    assert response["result"]["solver"] == "multi-makespan-exact"
    assert "routed_solver" not in response["serve"]
    assert stats.routed == 0


def test_sla_mode_verifies_and_caches_under_the_routed_request():
    from repro.cache import ResultCache

    line = _line(_request(accuracy=0.5, latency_budget_ms=1e-9))
    [first, second], _ = _serve(
        [line, line], cache=ResultCache(), verify=True, routing="sla",
    )
    assert first["serve"]["verified"] is True
    assert first["serve"]["cache"] == "miss"
    assert second["serve"]["cache"] == "hit"
    # a cache hit is still a routed response: the metadata survives
    assert second["serve"]["routed_solver"] == "multi-makespan-ptas"
    assert second["result"] == first["result"]


def test_run_stream_matches_the_routed_golden():
    golden = Path(__file__).parent / "golden" / "serve_routed_transcript.txt"
    instance = Instance.from_arrays(
        [0.0] * 10,
        [5.0, 3.0, 2.0, 2.0, 1.0, 4.0, 2.5, 1.5, 3.5, 1.0],
        name="routed-golden",
    )
    routed = json.dumps(request_to_dict(SolveRequest(
        instance=instance, power=CUBE, solver="multi-makespan-exact",
        budget=80.0, processors=3, accuracy=0.5, latency_budget_ms=1.0,
    )))
    exact = json.dumps(request_to_dict(SolveRequest(
        instance=instance, power=CUBE, solver="multi-makespan-exact",
        budget=80.0, processors=3,
    )))
    from repro.cache import ResultCache

    loop = AsyncServeLoop(cache=ResultCache(), timing=False, routing="sla")
    out = io.StringIO()
    asyncio.run(loop.run_stream(iter([routed + "\n", exact + "\n", "{not json\n"]), out))
    assert out.getvalue() == golden.read_text(encoding="utf-8")


def test_async_loop_routes_under_queue_pressure():
    loop = AsyncServeLoop(cache=None, timing=False, routing="sla")
    lines = [
        _line(_request(accuracy=0.5, latency_budget_ms=1e-9), f"q{i}") + "\n"
        for i in range(3)
    ]
    out = io.StringIO()
    asyncio.run(loop.run_stream(iter(lines), out))
    responses = [json.loads(l) for l in out.getvalue().splitlines()]
    assert [r["result"]["solver"] for r in responses] == ["multi-makespan-ptas"] * 3
    assert all(r["serve"]["certificate"] == "error-bound" for r in responses)
    snap = loop.stats_snapshot()
    assert snap["routed"] == 3


def test_truncated_compete_sweep_declares_its_stride():
    from repro.online.compete import competitive_sweep

    kwargs = dict(
        algorithms=["avr"], alphas=[2.0], families=["deadline"],
        sizes=[5], seeds=4,
    )
    full = competitive_sweep(**kwargs)
    trunc = competitive_sweep(**kwargs, stride=2)
    # the full grid's payload shape is untouched (byte-pinned goldens)
    assert "stride" not in full["parameters"]
    # truncation keeps every stride-th cell and says so, never silently
    assert trunc["parameters"]["stride"] == 2
    assert trunc["parameters"]["grid_cells"] == 2
    assert trunc["parameters"]["full_grid_cells"] == 4
    assert [c["seed"] for c in trunc["cells"]] == [0, 2]
    # surviving cells are bitwise the full sweep's: same instances, same math
    full_by_seed = {c["seed"]: c for c in full["cells"]}
    for cell in trunc["cells"]:
        assert cell == full_by_seed[cell["seed"]]
    with pytest.raises(InvalidInstanceError):
        competitive_sweep(**kwargs, stride=0)


def test_async_loop_snapshot_hides_routed_in_off_mode():
    loop = AsyncServeLoop(cache=None, timing=False, routing="off")
    out = io.StringIO()
    asyncio.run(loop.run_stream(iter([_line(_request()) + "\n"]), out))
    assert "routed" not in loop.stats_snapshot()
