"""Tests for the certificate-verification subsystem (:mod:`repro.verify`).

The negative-path suite mutates known-good results — shifting completions
past deadlines, dropping work, inflating reported energy — and asserts each
checker rejects the tampered envelope with the *right* finding code, which
guards the verifiers against passing vacuously.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro
from repro.api import SolveRequest, SolveResult
from repro.api import verify as api_verify
from repro.batch import solve_many
from repro.cli import main
from repro.core import CUBE, Instance, Piece, Schedule
from repro.exceptions import VerificationError
from repro.io import (
    report_from_dict,
    report_to_dict,
    request_to_dict,
    result_to_dict,
    save_instances,
)
from repro.verify import VerificationReport, check_schedule, verify
from repro.workloads import equal_work_instance


def _solved(solver: str, **kwargs) -> tuple[SolveRequest, SolveResult]:
    request = SolveRequest(solver=solver, power=CUBE, **kwargs)
    result = repro.solve(request)
    assert result.ok, result.error_message
    return request, result


@pytest.fixture
def laptop_pair(fig1):
    return _solved("laptop", instance=fig1, budget=17.0)


@pytest.fixture
def yds_pair(fig1):
    return _solved("yds", instance=fig1.with_deadlines(12.0))


class TestPositive:
    def test_laptop_report_passes_and_lists_checks(self, laptop_pair):
        report = verify(*laptop_pair)
        assert report.ok
        assert report.status == "pass"
        assert report.checks == (
            "envelope", "feasibility", "accounting",
            "budget-tightness", "optimal-structure",
        )
        assert report.findings == ()

    def test_api_verify_matches_subsystem(self, laptop_pair):
        request, result = laptop_pair
        assert api_verify(request, result).ok
        assert isinstance(api_verify(request, result), VerificationReport)

    def test_warning_findings_do_not_fail(self, laptop_pair):
        request, result = laptop_pair
        # a budget-less request downgrades budget-tightness to a warning skip
        no_budget = dataclasses.replace(request, budget=None)
        report = verify(no_budget, result)
        assert report.ok
        assert "certificate-skipped" in report.codes()

    def test_raise_if_failed(self, laptop_pair):
        request, result = laptop_pair
        verify(request, result).raise_if_failed()
        bad = dataclasses.replace(result, energy=result.energy * 2.0)
        with pytest.raises(VerificationError, match="energy-mismatch"):
            verify(request, bad).raise_if_failed()

    def test_unknown_solver_is_a_failing_finding(self, laptop_pair):
        request, result = laptop_pair
        report = verify(request, dataclasses.replace(result, solver="nope"))
        assert not report.ok
        assert report.codes() == ("unknown-solver",)


class TestNegativePaths:
    """Each mutation of a known-good result must trip its specific checker."""

    def test_inflated_energy_rejected(self, laptop_pair):
        request, result = laptop_pair
        bad = dataclasses.replace(result, energy=result.energy * 1.5)
        report = verify(request, bad)
        assert not report.ok
        assert "energy-mismatch" in report.codes()

    def test_completion_shifted_past_deadline_rejected(self, yds_pair):
        request, result = yds_pair
        # halving the speeds shifts completions past the deadlines
        bad = dataclasses.replace(result, speeds=result.speeds * 0.5)
        report = verify(request, bad)
        assert "deadline-missed" in report.codes()

    def test_dropped_work_rejected(self, laptop_pair):
        request, result = laptop_pair
        bad = dataclasses.replace(result, speeds=result.speeds[:-1])
        report = verify(request, bad)
        assert report.codes() == ("speeds-shape",)

    def test_non_positive_speed_rejected(self, laptop_pair):
        request, result = laptop_pair
        speeds = result.speeds.copy()
        speeds[0] = 0.0
        report = verify(request, dataclasses.replace(result, speeds=speeds))
        assert report.codes() == ("speeds-invalid",)

    def test_tampered_value_rejected(self, laptop_pair):
        request, result = laptop_pair
        bad = dataclasses.replace(result, value=result.value * 0.9)
        assert "value-mismatch" in verify(request, bad).codes()

    def test_server_value_off_its_energy_rejected(self, fig1):
        # a server answer's value is its energy, checked at the same
        # tolerance as the deadline family's
        request, result = _solved("server", instance=fig1, budget=7.0)
        assert result.value == result.energy
        bad = dataclasses.replace(result, value=result.value * (1.0 + 1e-4))
        assert "value-energy-inconsistent" in verify(request, bad).codes()

    def test_server_answer_beating_its_target_rejected(self):
        # every speed 0.05 % above the optimum: the makespan beats the target
        # by 5e-4 relative and the energy exceeds the minimum for it
        instance = Instance.from_arrays([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        request, result = _solved("server", instance=instance, budget=4.0)
        speeds = result.speeds * 1.0005
        schedule = Schedule.from_speeds(request.instance, request.power, speeds)
        bad = dataclasses.replace(
            result, speeds=speeds, energy=schedule.energy, value=schedule.energy
        )
        assert "target-not-tight" in verify(request, bad).codes()

    def test_budget_overrun_rejected(self, laptop_pair):
        request, result = laptop_pair
        # consistently faster schedule: accounting passes, tightness fails
        speeds = result.speeds * 1.2
        schedule = Schedule.from_speeds(request.instance, request.power, speeds)
        bad = dataclasses.replace(
            result, speeds=speeds, energy=schedule.energy, value=schedule.makespan
        )
        assert "budget-exceeded" in verify(request, bad).codes()

    def test_yds_suboptimal_energy_rejected(self, yds_pair):
        request, result = yds_pair
        # a uniformly faster schedule stays feasible but wastes energy
        speeds = result.speeds * 1.3
        from repro.online.yds import edf_schedule_at_speeds

        schedule = edf_schedule_at_speeds(request.instance, request.power, speeds)
        bad = dataclasses.replace(
            result, speeds=speeds, energy=schedule.energy, value=schedule.energy
        )
        codes = verify(request, bad).codes()
        assert "yds-energy-suboptimal" in codes
        assert "density-certificate-violated" in codes

    def test_online_energy_below_optimum_rejected(self, fig1):
        request, result = _solved("avr", instance=fig1.with_deadlines(12.0))
        bad = dataclasses.replace(result, energy=1e-6, value=1e-6)
        assert "energy-below-optimal" in verify(request, bad).codes()

    def test_frontier_non_monotone_samples_rejected(self, fig1):
        request, result = _solved(
            "frontier",
            instance=fig1,
            options={"min_energy": 6.0, "max_energy": 21.0, "points": 5},
        )
        extras = {k: v for k, v in result.extras.items()}
        samples = [dict(s) for s in extras["samples"]]
        samples[0]["makespan"], samples[-1]["makespan"] = (
            samples[-1]["makespan"],
            samples[0]["makespan"],
        )
        bad = dataclasses.replace(result, extras={**extras, "samples": samples})
        assert "frontier-not-monotone" in verify(request, bad).codes()

    def test_non_cyclic_assignment_rejected(self):
        instance = Instance.equal_work([0.0, 1.0, 2.0], work=2.0)
        request, result = _solved(
            "multi-makespan", instance=instance, budget=8.0, processors=2
        )
        extras = dict(result.extras)
        extras["assignment"] = {"0": [0, 1], "1": [2]}
        bad = dataclasses.replace(result, extras=extras)
        assert "assignment-not-cyclic" in verify(request, bad).codes()

    def test_assignment_dropping_a_job_rejected(self):
        instance = Instance.equal_work([0.0, 1.0, 2.0], work=2.0)
        request, result = _solved(
            "multi-makespan", instance=instance, budget=8.0, processors=2
        )
        extras = dict(result.extras)
        extras["assignment"] = {"0": [0], "1": [1]}  # job 2 dropped
        bad = dataclasses.replace(result, extras=extras)
        codes = verify(request, bad).codes()
        assert "reconstruction-failed" in codes
        assert "assignment-not-partition" in codes

    def test_stripped_speeds_rejected(self, laptop_pair):
        request, result = laptop_pair
        bare = SolveResult(solver="laptop", status="ok",
                           value=result.value, energy=result.energy)
        report = verify(request, bare)
        assert not report.ok
        assert "speeds-missing" in report.codes()

    def test_stripped_energy_and_value_rejected(self, laptop_pair):
        request, result = laptop_pair
        bare = dataclasses.replace(result, value=None, energy=None)
        codes = verify(request, bare).codes()
        assert "value-missing" in codes
        assert "energy-missing" in codes

    def test_frontier_may_omit_the_triple(self, fig1):
        request, result = _solved(
            "frontier", instance=fig1,
            options={"min_energy": 6.0, "max_energy": 21.0, "points": 5},
        )
        assert result.speeds is None and result.value is None
        assert verify(request, result).ok

    def test_non_numeric_value_is_a_finding_not_a_crash(self, laptop_pair):
        request, result = laptop_pair
        bad = dataclasses.replace(result, value="bogus")
        report = verify(request, bad)
        assert "value-invalid" in report.codes()

    def test_malformed_extras_become_findings_not_crashes(self, fig1):
        request, result = _solved(
            "frontier", instance=fig1,
            options={"min_energy": 6.0, "max_energy": 21.0, "points": 5},
        )
        bad = dataclasses.replace(result, extras={"samples": [{"oops": 1}],
                                                  "breakpoints": "abc"})
        report = verify(request, bad)
        assert not report.ok
        assert "certificate-error" in report.codes()

    def test_malformed_assignment_becomes_finding_not_crash(self):
        instance = Instance.equal_work([0.0, 1.0], work=2.0)
        request, result = _solved(
            "multi-makespan", instance=instance, budget=8.0, processors=2
        )
        bad = dataclasses.replace(result, extras={"assignment": {"0": 5}})
        report = verify(request, bad)
        assert not report.ok
        codes = report.codes()
        assert "reconstruction-failed" in codes or "certificate-error" in codes

    @pytest.mark.parametrize("solver", ["multi-makespan", "multi-flow"])
    @pytest.mark.parametrize(
        "assignment, named",
        [
            ({"0": [0, 2, 99], "1": [1, 3]}, "job 99"),
            ({"0": [0, 2, -1], "1": [1, 3]}, "job -1"),
            ({"0": [0, 2, 4, 1], "1": [1, 3]}, "job 1"),
            ({"0": [0, 2, 4.7], "1": [1, 3]}, "job 4.7"),
            ({"0": [0, 2, "4"], "1": [1, 3]}, "job '4'"),
            ({"0": [0, 2, True], "1": [1, 3, 4]}, "job True"),
        ],
        ids=["past-the-end", "negative", "duplicated", "float", "string", "bool"],
    )
    def test_tampered_job_index_is_a_finding_that_names_it(
        self, solver, assignment, named
    ):
        request, result = _solved(
            solver, instance=equal_work_instance(5, seed=1), budget=20.0,
            processors=2,
        )
        bad = dataclasses.replace(
            result, extras={**result.extras, "assignment": assignment}
        )
        report = verify(request, bad)
        assert not report.ok
        [finding] = [f for f in report.findings if f.code == "reconstruction-failed"]
        assert named in finding.message

    def test_error_result_is_flagged(self, laptop_pair):
        request, _ = laptop_pair
        error = repro.solve(dataclasses.replace(request, budget=-1.0))
        assert not error.ok
        report = verify(request, error)
        assert not report.ok
        assert report.codes() == ("result-is-error",)

    def test_solver_mismatch_is_flagged(self, laptop_pair, fig1):
        request, _ = laptop_pair
        other = repro.solve(
            SolveRequest(instance=fig1, power=CUBE, solver="server", budget=8.0)
        )
        report = verify(request, other)
        assert not report.ok
        assert report.codes() == ("solver-mismatch",)


class TestCheckScheduleAsData:
    """Direct schedule-level mutations (the 'drop work' family)."""

    def _schedule(self, fig1):
        from repro.makespan import incmerge

        return incmerge(fig1, CUBE, 17.0).schedule()

    def test_clean_schedule_has_no_findings(self, fig1):
        assert check_schedule(self._schedule(fig1)) == []

    def test_dropping_a_piece_is_work_loss(self, fig1):
        schedule = self._schedule(fig1)
        pieces = list(schedule.pieces)[:-1]
        tampered = Schedule(fig1, CUBE, pieces)
        codes = [f.code for f in check_schedule(tampered)]
        assert "job-unscheduled" in codes

    def test_shrinking_a_piece_drops_work(self, fig1):
        schedule = self._schedule(fig1)
        pieces = list(schedule.pieces)
        last = pieces[-1]
        pieces[-1] = Piece(
            job=last.job,
            processor=last.processor,
            start=last.start,
            end=last.start + last.duration / 2.0,
            speed=last.speed,
        )
        codes = [f.code for f in check_schedule(Schedule(fig1, CUBE, pieces))]
        assert "work-mismatch" in codes

    def test_early_start_violates_release(self, fig1):
        schedule = self._schedule(fig1)
        pieces = list(schedule.pieces)
        second = pieces[1]
        pieces[1] = Piece(
            job=second.job,
            processor=second.processor,
            start=second.start - 5.5,
            end=second.end - 5.5,
            speed=second.speed,
        )
        codes = [f.code for f in check_schedule(Schedule(fig1, CUBE, pieces))]
        assert "release-violated" in codes
        assert "pieces-overlap" in codes


class TestSerialization:
    def test_report_round_trip(self, laptop_pair):
        request, result = laptop_pair
        bad = dataclasses.replace(result, energy=result.energy * 1.5)
        report = verify(request, bad)
        payload = report_to_dict(report)
        rebuilt = report_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == report

    def test_report_payload_shape(self, laptop_pair):
        report = verify(*laptop_pair)
        payload = report_to_dict(report)
        assert payload["kind"] == "verification-report"
        assert payload["status"] == "pass"
        assert payload["findings"] == []

    def test_report_from_dict_rejects_foreign_kind(self):
        from repro.exceptions import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            report_from_dict({"kind": "instance"})

    def test_report_from_dict_rejects_finding_without_code(self):
        from repro.exceptions import InvalidInstanceError

        with pytest.raises(InvalidInstanceError, match="finding row 0"):
            report_from_dict({
                "kind": "verification-report",
                "solver": "s",
                "checks": ["envelope"],
                "findings": [{"message": "x"}],
            })


class TestBatchVerify:
    def test_solve_many_verify_passes(self):
        instances = [equal_work_instance(4, seed=s) for s in range(3)]
        results = solve_many(instances, CUBE, 6.0, solver="laptop", verify=True)
        assert [r.index for r in results] == [0, 1, 2]

    def test_solve_many_verify_matches_unverified(self):
        instances = [equal_work_instance(4, seed=s) for s in range(2)]
        plain = solve_many(instances, CUBE, 6.0, solver="laptop")
        checked = solve_many(instances, CUBE, 6.0, solver="laptop", verify=True)
        for a, b in zip(plain, checked):
            assert a.value == b.value and a.energy == b.energy


class TestVerifyCli:
    @pytest.fixture
    def envelopes(self, tmp_path, laptop_pair):
        request, result = laptop_pair
        req_path = tmp_path / "req.json"
        res_path = tmp_path / "res.json"
        req_path.write_text(json.dumps(request_to_dict(request)), encoding="utf-8")
        res_path.write_text(json.dumps(result_to_dict(result)), encoding="utf-8")
        return req_path, res_path

    def test_pass_exits_zero(self, envelopes, capsys):
        req, res = envelopes
        assert main(["verify", "--request", str(req), "--result", str(res)]) == 0
        assert "verification PASS" in capsys.readouterr().out

    def test_tampered_envelope_exits_one_with_structured_finding(
        self, envelopes, tmp_path, capsys
    ):
        req, res = envelopes
        data = json.loads(res.read_text(encoding="utf-8"))
        data["energy"] *= 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        assert main(["verify", "--request", str(req), "--result", str(bad),
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "fail"
        codes = [f["code"] for f in payload["findings"]]
        assert "energy-mismatch" in codes

    def test_malformed_input_exits_two(self, tmp_path, envelopes, capsys):
        req, _ = envelopes
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        assert main(["verify", "--request", str(req), "--result", str(broken)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_flags_exit_two(self, capsys):
        assert main(["verify"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_capture_round_trip(self, tmp_path, capsys):
        instances = [equal_work_instance(4, seed=s) for s in range(3)]
        batch_in = tmp_path / "in.json"
        save_instances(instances, batch_in)
        assert main(["batch", "--instances", str(batch_in), "--energy", "6",
                     "--json"]) == 0
        capture = tmp_path / "out.json"
        capture.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["verify", "--instances", str(batch_in),
                     "--results", str(capture), "--energy", "6"]) == 0
        assert "3 passed, 0 failed" in capsys.readouterr().out

    def test_tampered_batch_capture_fails(self, tmp_path, capsys):
        instances = [equal_work_instance(4, seed=s) for s in range(2)]
        batch_in = tmp_path / "in.json"
        save_instances(instances, batch_in)
        assert main(["batch", "--instances", str(batch_in), "--energy", "6",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        data["results"][0]["speeds"][0] *= 0.25
        capture = tmp_path / "out.json"
        capture.write_text(json.dumps(data), encoding="utf-8")
        assert main(["verify", "--instances", str(batch_in),
                     "--results", str(capture), "--energy", "6", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 1

    def test_malformed_capture_row_exits_two(self, tmp_path, capsys):
        instances = [equal_work_instance(3, seed=0)]
        batch_in = tmp_path / "in.json"
        save_instances(instances, batch_in)
        capture = tmp_path / "out.json"
        capture.write_text(json.dumps({
            "solver": "laptop",
            "results": [{"index": 0, "value": "bogus", "energy": 6.0,
                         "speeds": [1.0, 1.0, 1.0]}],
        }), encoding="utf-8")
        assert main(["verify", "--instances", str(batch_in),
                     "--results", str(capture), "--energy", "6"]) == 2
        assert "malformed batch result row" in capsys.readouterr().err

    def test_negative_capture_index_exits_two(self, tmp_path, capsys):
        instances = [equal_work_instance(3, seed=0)]
        batch_in = tmp_path / "in.json"
        save_instances(instances, batch_in)
        capture = tmp_path / "out.json"
        capture.write_text(json.dumps({
            "solver": "laptop",
            "results": [{"index": -1, "value": 1.0, "energy": 6.0,
                         "speeds": [1.0, 1.0, 1.0]}],
        }), encoding="utf-8")
        assert main(["verify", "--instances", str(batch_in),
                     "--results", str(capture), "--energy", "6"]) == 2
        assert "outside the instance batch" in capsys.readouterr().err

    def test_cli_batch_verify_flag(self, tmp_path, capsys):
        instances = [equal_work_instance(3, seed=s) for s in range(2)]
        batch_in = tmp_path / "in.json"
        save_instances(instances, batch_in)
        assert main(["batch", "--instances", str(batch_in), "--energy", "6",
                     "--verify"]) == 0

    def test_cli_batch_verify_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        import repro.batch as batch_mod

        def boom(*args, **kwargs):
            raise VerificationError("instance 0: verification failed")

        # repro batch imports solve_many when it runs
        monkeypatch.setattr(batch_mod, "solve_many", boom)
        instances = [equal_work_instance(3, seed=0)]
        batch_in = tmp_path / "in.json"
        save_instances(instances, batch_in)
        assert main(["batch", "--instances", str(batch_in), "--energy", "6",
                     "--verify"]) == 1
        assert "verification failed" in capsys.readouterr().err

    def test_capture_records_alpha_and_budgets(self, tmp_path, capsys):
        # verifying a non-default-alpha capture must not need the flags again
        instances = [equal_work_instance(3, seed=s) for s in range(2)]
        batch_in = tmp_path / "in.json"
        save_instances(instances, batch_in)
        assert main(["batch", "--instances", str(batch_in), "--energy", "6",
                     "--alpha", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 2.0
        assert payload["budgets"] == [6.0, 6.0]
        capture = tmp_path / "out.json"
        capture.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", "--instances", str(batch_in),
                     "--results", str(capture)]) == 0
        assert "2 passed, 0 failed" in capsys.readouterr().out


class TestCapabilitiesMetadata:
    def test_certificates_are_part_of_the_listing(self, capsys):
        assert main(["solve", "--list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {s["name"]: s for s in payload["solvers"]}
        assert by_name["laptop"]["certificates"] == [
            "budget-tightness", "optimal-structure",
        ]
        assert all(s["certificates"] for s in payload["solvers"])

    def test_certificate_kinds_must_be_strings(self):
        from repro.api import ProblemSpec, SolverCapabilities
        from repro.exceptions import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            SolverCapabilities(
                name="x",
                spec=ProblemSpec(objective="makespan", mode="laptop"),
                summary="s",
                certificates=("ok", ""),
            )
