"""Verify's array certificates, pinned to the recomputations they stand in for.

The deadline family (``yds``, ``yds-anytime``, ``avr``, ``oa``, ``bkp``) is
verified first by certificates: Hall's condition instead of an EDF rebuild,
the constant-speed energy instead of the rebuilt schedule's, the level sets
of the speeds instead of a YDS re-solve, and bounds on ``OPT`` instead of
``OPT``.  The makespan family's checks read schedule columns instead of
``Piece`` objects.  This suite pins each building block to its reference:

* the largest Hall excess is the EDF rebuild's largest lateness;
* the level-set test accepts the YDS speeds, and whatever it accepts has the
  YDS optimum's energy to ``1e-9``;
* the grid Jensen bound matches the double loop and never exceeds ``OPT``;
* the columnar ``check_schedule`` / ``check_optimal_structure`` equal their
  ``Piece``-loop oracles with ``==``;
* every report equals the report of the recompute path (the certificate
  predicates patched to "cannot decide"), on correct and mutated answers;
* correct serve-mix answers verify with no YDS re-solve, no EDF rebuild and
  no ``Piece``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _strategies import hypothesis_settings
from oracles.anytime import jensen_energy_lower_bound_loop
from oracles.verify import check_optimal_structure_pieces, check_schedule_pieces
from repro.api import REGISTRY, SolveRequest, SolveResult, solve, verify
from repro.core import CUBE, AffinePolynomialPower, Instance, PolynomialPower
from repro.core.kernels import energy_eval
from repro.core.schedule import Piece, Schedule
from repro.exceptions import InvalidScheduleError
from repro.online.anytime import jensen_energy_lower_bound
from repro.online.yds import edf_schedule_at_speeds, yds_speeds
from repro.verify import certificates, check_optimal_structure, check_schedule, structural
from repro.verify.structural import _TIME_EPS, VerificationContext
from repro.workloads import deadline_instance, equal_work_instance, poisson_instance

#: The serve-mix cells of perfbench: every solver at n = 8, 16, 32, bkp at 8.
SERVE_MIX_CELLS = tuple(
    (solver, n)
    for solver in ("laptop", "server", "frontier", "yds", "avr", "oa", "bkp")
    for n in (8, 16, 32)
    if solver != "bkp" or n == 8
)


@st.composite
def tied_deadline_instances(draw, max_n: int = 40) -> Instance:
    """Deadline instances with tied releases and deadlines, window length >= 1."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    step = draw(st.sampled_from([1.0, 0.5, 0.1]))
    releases = sorted(
        step * r for r in draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    )
    works = draw(
        st.lists(
            st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.floats(0.1, 3.0),
            min_size=n, max_size=n,
        )
    )
    windows = draw(
        st.lists(
            st.sampled_from([1.0, 1.5, 2.0, 3.0]) | st.floats(1.0, 6.0),
            min_size=n, max_size=n,
        )
    )
    deadlines = [r + w for r, w in zip(releases, windows)]
    return Instance.from_arrays(releases, works, deadlines=deadlines)


def _context(instance, speeds, solver="yds", power=CUBE) -> VerificationContext:
    request = SolveRequest(instance=instance, power=power, solver=solver)
    speeds = np.asarray(speeds, dtype=float)
    energy = float(np.sum(energy_eval(power, instance.works, speeds)))
    result = SolveResult(solver=solver, status="ok", value=energy, energy=energy, speeds=speeds)
    return VerificationContext(
        request=request, result=result, capabilities=REGISTRY.capabilities(solver)
    )


def _yds_optimum(instance, power=CUBE) -> float:
    return float(np.sum(energy_eval(power, instance.works, yds_speeds(instance).speeds)))


# ----------------------------------------------------------------------
# Hall's condition against the EDF rebuild
# ----------------------------------------------------------------------

@given(
    instance=tied_deadline_instances(),
    factors=st.lists(st.floats(0.5, 1.5), min_size=40, max_size=40),
)
@hypothesis_settings(max_examples=60)
def test_largest_hall_excess_is_the_edf_rebuilds_largest_lateness(instance, factors):
    speeds = yds_speeds(instance).speeds * np.array(factors[: instance.n_jobs])
    witness = _context(instance, speeds).witness
    assert witness is not None
    edf = edf_schedule_at_speeds(instance, CUBE, speeds)
    lateness = float(np.max(edf.completion_times - instance.deadlines))
    assert witness.excess == pytest.approx(
        lateness, rel=0.0, abs=1e-9 * (1.0 + float(instance.deadlines.max()))
    )
    if lateness > _TIME_EPS:
        assert not structural._hall_certified(_context(instance, speeds))


# ----------------------------------------------------------------------
# level sets
# ----------------------------------------------------------------------

def _level_sets_accept(instance, speeds) -> bool:
    ctx = _context(instance, speeds)
    return structural._hall_certified(ctx) and certificates._yds_certified(ctx)


@given(
    instance=tied_deadline_instances(),
    factors=st.lists(
        st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-9, 1.0 - 1e-9, 1.001, 0.999])
        | st.floats(0.9, 1.1),
        min_size=40, max_size=40,
    ),
)
@hypothesis_settings(max_examples=60)
def test_level_sets_accept_yds_and_only_the_optimum(instance, factors):
    optimal = yds_speeds(instance).speeds
    assert _level_sets_accept(instance, optimal)
    speeds = optimal * np.array(factors[: instance.n_jobs])
    if _level_sets_accept(instance, speeds):
        energy = float(np.sum(energy_eval(CUBE, instance.works, speeds)))
        assert energy == pytest.approx(_yds_optimum(instance), rel=1e-9, abs=0.0)


def test_rising_level_rates_give_no_bound():
    # the faster job leaves its window half idle and the slower one fills the
    # rest: the greedy layer rates rise (0.5 then 1.8), so their sum is no
    # lower bound on OPT (here it would be 6.08 against OPT 2.44)
    instance = Instance.from_arrays([0.0, 0.0], [1.0, 1.8], deadlines=[2.0, 3.0])
    speeds = np.array([1.0, 0.9])
    assert certificates._level_set_bound(
        instance.releases, instance.deadlines, instance.works, speeds, 3.0
    ) is None
    assert not _level_sets_accept(instance, speeds)


def test_a_tiny_fast_job_sped_up_fails_the_density_check_either_way():
    # job 0 is the peak but holds 2e-5 of the energy: speeding it up by 1e-5
    # moves the energy by 3e-10, inside the level-set tolerance, but the
    # peak speed leaves the maximum density by 1e-5
    instance = Instance.from_arrays([0.0, 0.0], [0.012, 1000.0], deadlines=[0.01, 1000.0])
    request = SolveRequest(instance=instance, power=CUBE, solver="yds")
    result = solve(request)
    faster = result.speeds.copy()
    faster[0] *= 1.0 + 1e-5
    answer = dataclasses.replace(result, speeds=faster)
    report = verify(request, answer)
    assert report == _recomputed(request, answer)
    assert "density-certificate-violated" in {f.code for f in report.findings}


@pytest.mark.parametrize("n", [8, 16, 32])
def test_level_sets_reject_one_job_off_by_a_thousandth(n):
    for seed in range(3):
        instance = deadline_instance(n, seed=seed)
        optimal = yds_speeds(instance).speeds
        assert _level_sets_accept(instance, optimal)
        for job in range(n):
            for factor in (1.001, 0.999):
                speeds = optimal.copy()
                speeds[job] *= factor
                assert not _level_sets_accept(instance, speeds), (seed, job, factor)


# ----------------------------------------------------------------------
# the Jensen window bound
# ----------------------------------------------------------------------

@given(
    instance=tied_deadline_instances(),
    alpha=st.floats(1.3, 4.0),
)
@hypothesis_settings(max_examples=60)
def test_grid_jensen_bound_matches_the_loop_and_stays_below_opt(instance, alpha):
    power = PolynomialPower(alpha)
    bound = jensen_energy_lower_bound(instance, power)
    assert bound == pytest.approx(
        jensen_energy_lower_bound_loop(instance, power), rel=1e-12, abs=0.0
    )
    assert bound <= _yds_optimum(instance, power) * (1.0 + 1e-12)


# ----------------------------------------------------------------------
# columnar checks against the Piece loops
# ----------------------------------------------------------------------

@st.composite
def piece_schedules(draw) -> tuple[Schedule, bool]:
    """Arbitrary schedules: multi-piece, out of order, gapped, overlapping, multiprocessor."""
    n = draw(st.integers(1, 8))
    releases = sorted(draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)))
    works = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
    deadlines = None
    if draw(st.booleans()):
        deadlines = [r + draw(st.floats(0.5, 6.0)) for r in releases]
    instance = Instance.from_arrays(releases, works, deadlines=deadlines)
    processors = draw(st.integers(1, 3))
    pieces = []
    for _ in range(draw(st.integers(1, 14))):
        start = draw(st.floats(0.0, 10.0))
        pieces.append(
            Piece(
                job=draw(st.integers(0, n - 1)),
                processor=draw(st.integers(0, processors - 1)),
                start=start,
                end=start + draw(st.floats(0.05, 3.0)),
                speed=draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 4.0)),
            )
        )
    return Schedule(instance, CUBE, pieces), processors == 1


def _assert_same_structure(schedule: Schedule) -> None:
    try:
        expected = check_optimal_structure_pieces(schedule)
    except InvalidScheduleError as exc:
        with pytest.raises(InvalidScheduleError) as raised:
            check_optimal_structure(schedule)
        assert str(raised.value) == str(exc)
        return
    assert check_optimal_structure(schedule) == expected


@given(drawn=piece_schedules(), deadlines=st.sampled_from([None, True, False]))
@hypothesis_settings(max_examples=150)
def test_columnar_checks_equal_the_piece_loops(drawn, deadlines):
    schedule, _ = drawn
    assert check_schedule(schedule, check_deadlines=deadlines) == check_schedule_pieces(
        schedule, check_deadlines=deadlines
    )
    _assert_same_structure(schedule)


@given(
    instance=tied_deadline_instances(max_n=24),
    noise=st.lists(st.floats(-1e-6, 1e-6) | st.floats(-0.2, 0.2), min_size=24, max_size=24),
)
@hypothesis_settings(max_examples=60)
def test_columnar_checks_equal_the_piece_loops_on_canonical_and_edf_schedules(instance, noise):
    optimal = yds_speeds(instance).speeds
    speeds = optimal * (1.0 + np.array(noise[: instance.n_jobs]))
    block = np.full(instance.n_jobs, float(np.median(speeds)))
    for schedule in (
        edf_schedule_at_speeds(instance, CUBE, speeds),
        Schedule.from_speeds(instance, CUBE, speeds),
        Schedule.from_speeds(instance, CUBE, block * (1.0 + np.array(noise[: instance.n_jobs]) * 1e-7)),
        Schedule.from_processor_speeds(
            instance, CUBE, {p: list(range(p, instance.n_jobs, 2)) for p in range(2)}, speeds
        ),
    ):
        assert check_schedule(schedule) == check_schedule_pieces(schedule)
        _assert_same_structure(schedule)


def test_laptop_answers_keep_their_lemma_structure_columnar():
    for n in (8, 16, 32, 64):
        for seed in range(5):
            instance = poisson_instance(n, seed=seed)
            result = solve(SolveRequest(instance=instance, power=CUBE, solver="laptop",
                                        budget=float(n)))
            schedule = Schedule.from_speeds(instance, CUBE, result.speeds)
            assert check_optimal_structure(schedule) == check_optimal_structure_pieces(schedule)
            assert check_optimal_structure(schedule).satisfies_all


def test_from_speeds_columns_and_pieces_are_those_of_the_piece_constructor():
    instance = poisson_instance(12, seed=3)
    speeds = np.linspace(0.5, 2.0, 12)
    built = Schedule.from_speeds(instance, CUBE, speeds, processor=2, n_processors=4)
    reference = Schedule(instance, CUBE, list(built.pieces), n_processors=4)
    for a, b in zip(built.columns, reference.columns):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert built.n_processors == 4
    with pytest.raises(InvalidScheduleError, match="non-negative"):
        Schedule.from_speeds(instance, CUBE, speeds, processor=-1)
    with pytest.raises(InvalidScheduleError, match="n_processors"):
        Schedule.from_speeds(instance, CUBE, speeds, processor=2, n_processors=2)


# ----------------------------------------------------------------------
# whole reports: certificates against the recompute path
# ----------------------------------------------------------------------

_PREDICATES = (
    (structural, "_hall_certified"),
    (structural, "_energy_certified"),
    (certificates, "_yds_certified"),
    (certificates, "_ratio_certified"),
)


def _recomputed(request, result):
    """``verify`` with every certificate predicate answering "cannot decide"."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name in _PREDICATES:
            patch.setattr(module, name, lambda *args: False)
        return verify(request, result)


def _request(solver: str, n: int, seed: int, power=CUBE) -> SolveRequest:
    """A request for any registered solver, shaped by its capabilities."""
    caps = REGISTRY.capabilities(solver)
    if caps.needs_deadlines:
        instance = deadline_instance(n, seed=seed, laxity=(1.0, 2.0, 3.0, 5.0)[seed % 4])
    elif caps.needs_equal_work:
        instance = equal_work_instance(n, seed=seed)
    elif caps.needs_zero_release:
        instance = Instance.from_arrays([0.0] * n, poisson_instance(n, seed=seed).works)
    else:
        instance = poisson_instance(n, seed=seed)
    unit = Schedule.from_speeds(instance, CUBE, np.ones(n))
    budget = {
        "energy": 2.0 * n,
        "metric": unit.makespan if caps.objective == "makespan" else unit.total_flow,
        "none": None,
    }[caps.budget_kind]
    options = {}
    if caps.mode == "frontier":
        options = {"min_energy": float(n), "max_energy": 3.0 * n, "points": 4}
    return SolveRequest(
        instance=instance, power=power, solver=solver, budget=budget,
        processors=2 if caps.multiprocessor else 1, options=options,
    )


def _mutations(result, rng):
    yield result
    speeds = result.speeds
    if speeds is None:
        return
    for factor in (0.5, 0.9, 1.0 - 1e-7, 1.0 + 1e-7, 1.1, 2.0):
        yield dataclasses.replace(result, speeds=speeds * factor)
    if len(speeds) > 1:
        swapped = speeds.copy()
        i, j = rng.choice(len(speeds), 2, replace=False)
        swapped[[i, j]] = swapped[[j, i]]
        yield dataclasses.replace(result, speeds=swapped)
    for factor in (1 + 1e-9, 1 - 1e-9, 1 + 1e-6, 1 - 1e-6, 1 + 1e-3, 1 - 1e-3, 0.5, 1.5):
        one = speeds.copy()
        one[rng.integers(len(speeds))] *= factor
        yield dataclasses.replace(result, speeds=one)
    if result.energy is not None:
        for factor in (1 + 1e-5, 1 - 1e-5, 1 + 1e-7, 1 - 1e-7, 0.25, 4.0):
            yield dataclasses.replace(result, energy=result.energy * factor)


@given(
    solver=st.sampled_from(REGISTRY.names()),
    n=st.integers(1, 7),
    seed=st.integers(0, 10_000),
    power=st.sampled_from(
        [CUBE, PolynomialPower(2.0), AffinePolynomialPower(exponent=3.0, coefficient=1.0, static=0.01)]
    ),
)
@hypothesis_settings(max_examples=120)
def test_reports_equal_the_recompute_path(solver, n, seed, power):
    request = _request(solver, n, seed, power)
    result = solve(request)
    rng = np.random.default_rng(seed)
    for answer in _mutations(result, rng):
        assert verify(request, answer) == _recomputed(request, answer)


@pytest.mark.parametrize("solver", ["yds", "yds-anytime", "avr", "oa", "bkp"])
def test_reports_equal_the_recompute_path_at_serve_mix_sizes(solver):
    rng = np.random.default_rng(7)
    for n in (8, 16, 32):
        for seed in range(3):
            request = _request(solver, n, seed)
            for answer in _mutations(solve(request), rng):
                assert verify(request, answer) == _recomputed(request, answer)


@pytest.mark.parametrize("solver", ["yds", "yds-anytime", "avr", "oa", "bkp"])
@pytest.mark.parametrize(
    "releases, deadlines, works, speeds",
    [
        # EDF drops a job of work <= 1e-12 without running it
        ([0.0, 5.0], [1.0, 6.0], [1.0, 1e-13], [1.0, 1e-13]),
        ([0.0], [1.0], [1e-13], [1e-13]),
        # just above the smallest work the certificates accept
        ([0.0, 5.0], [1.0, 6.0], [1.0, 2e-5], [1.0, 2e-5]),
    ],
)
def test_reports_equal_the_recompute_path_on_tiny_works(solver, releases, deadlines, works, speeds):
    instance = Instance.from_arrays(releases, works, deadlines=deadlines)
    ctx = _context(instance, speeds, solver=solver)
    rng = np.random.default_rng(3)
    for answer in _mutations(ctx.result, rng):
        assert verify(ctx.request, answer) == _recomputed(ctx.request, answer)


def test_requests_without_deadlines_take_the_recompute_path():
    instance = poisson_instance(6, seed=1)
    request = SolveRequest(instance=instance, power=CUBE, solver="yds")
    answer = solve(SolveRequest(instance=deadline_instance(6, seed=1), power=CUBE, solver="yds"))
    report = verify(request, answer)
    assert report == _recomputed(request, answer)
    assert [f.code for f in report.findings if f.severity == "error"][:1] == ["reconstruction-failed"]


# ----------------------------------------------------------------------
# the passing path builds nothing it does not need
# ----------------------------------------------------------------------

def test_correct_serve_mix_answers_need_no_resolve_no_rebuild_and_no_piece(monkeypatch):
    import repro.online.yds as yds_module

    answers = []
    for solver, n in SERVE_MIX_CELLS:
        for seed in range(20):
            if solver in ("laptop", "server", "frontier"):
                instance = poisson_instance(n, seed=seed)
                budget = {
                    "laptop": float(n),
                    "server": float(instance.releases.max() + 0.5 * instance.works.sum()),
                    "frontier": None,
                }[solver]
            else:
                instance, budget = deadline_instance(n, seed=seed), None
            request = SolveRequest(instance=instance, power=CUBE, solver=solver, budget=budget)
            answers.append((request, solve(request)))

    calls = []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called while verifying a correct answer")
        return call

    monkeypatch.setattr(yds_module, "yds_speeds", forbidden("yds_speeds"))
    monkeypatch.setattr(yds_module, "edf_schedule_at_speeds", forbidden("edf_schedule_at_speeds"))
    monkeypatch.setattr(Piece, "__post_init__", forbidden("Piece"))
    failed = [
        (request.solver, request.instance.n_jobs)
        for request, answer in answers
        if not verify(request, answer).ok
    ]
    assert calls == []
    # perfbench's serve mix skips the rare instance a solver answers wrongly
    assert len(failed) <= 2, failed
