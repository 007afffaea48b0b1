"""Public-API-surface snapshot: accidental export breaks fail fast.

These snapshots pin the exported names (``__all__``) of the modules that form
the library's serving surface.  A failure here means the public API changed:
if the change is intentional, update the snapshot *and* the README's
"Library API" section in the same commit; if not, you just caught an
accidental break before it shipped.

Part of the quick (``-m "not slow"``) split so CI fails fast.
"""

from __future__ import annotations

import repro
import repro.api
import repro.batch
import repro.cache
import repro.cache_store
import repro.exceptions
import repro.faults
import repro.io
import repro.online
import repro.service
import repro.sim
import repro.verify

API_SURFACE = {
    "OBJECTIVES",
    "MODES",
    "MACHINES",
    "BUDGET_KINDS",
    "ProblemSpec",
    "SolveRequest",
    "SolveResult",
    "SolverCapabilities",
    "RegisteredSolver",
    "SolverRegistry",
    "REGISTRY",
    "CostModel",
    "RouteDecision",
    "Finding",
    "VerificationReport",
    "solve",
    "verify",
    "list_solvers",
}

VERIFY_SURFACE = {
    "SEVERITIES",
    "Finding",
    "VerificationReport",
    "VerificationContext",
    "CHECKERS",
    "checker",
    "verify",
    "check_schedule",
    "reconstruct_schedule",
    "StructureReport",
    "check_optimal_structure",
    "assert_optimal_structure",
}

IO_SURFACE = {
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "instances_to_dict",
    "instances_from_dict",
    "save_instances",
    "load_instances",
    "instance_to_csv",
    "instance_from_csv",
    "power_to_dict",
    "power_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
    "spec_to_dict",
    "spec_from_dict",
    "request_to_dict",
    "request_from_dict",
    "result_to_dict",
    "result_from_dict",
    "capabilities_to_dict",
    "batch_result_to_dict",
    "batch_result_from_dict",
    "serve_response_to_dict",
    "serve_response_from_dict",
    "report_to_dict",
    "report_from_dict",
    "speed_levels_to_dict",
    "speed_levels_from_dict",
    "machine_model_to_dict",
    "machine_model_from_dict",
}

BATCH_SURFACE = {"BatchResult", "solve_many", "solve_stream"}

CACHE_SURFACE = {
    "CacheStats",
    "ResultCache",
    "capability_fingerprint",
    "instance_digest",
    "request_cache_key",
}

CACHE_STORE_SURFACE = {
    "ENTRY_KIND",
    "STORE_BACKENDS",
    "CacheStore",
    "DiskJSONStore",
    "MemoryStore",
    "SqliteStore",
    "open_store",
    "validate_entry",
}

SERVICE_SURFACE = {
    "ServeStats",
    "AsyncServeLoop",
}

SIM_SURFACE = {
    "MACHINE_MODEL_NAMES",
    "SIM_ALGORITHMS",
    "TRACE_FAMILIES",
    "MachineModel",
    "SimEvent",
    "SimReport",
    "SimResult",
    "SleepState",
    "Trace",
    "TraceEvent",
    "generate_trace",
    "load_trace",
    "machine_model",
    "save_trace",
    "scenario_matrix",
    "sim_report_from_dict",
    "sim_report_to_dict",
    "simulate",
    "trace_from_csv",
    "trace_from_jsonl",
    "trace_to_csv",
    "trace_to_jsonl",
}

#: The online engine's exports: the policies, their profiles, the EDF
#: executor and the competitive pipeline.  Scalar references that only
#: anchor tests live in ``tests/oracles/``, not here.
ONLINE_SURFACE = {
    "ALGORITHMS",
    "FAMILIES",
    "RATIO_BOUNDS",
    "YDSResult",
    "avr_schedule",
    "avr_speed_profile",
    "bkp_schedule",
    "bkp_speed_profile",
    "competitive_sweep",
    "edf_schedule_at_speeds",
    "execute_profile_edf",
    "oa_schedule_incremental",
    "yds_schedule",
    "yds_speeds",
}

FAULTS_SURFACE = {
    "SITES",
    "WORKER_EXCEPTION",
    "WORKER_HANG",
    "SOLVER_SLOW",
    "CACHE_WRITE",
    "JOURNAL_TORN",
    "CONNECTION_DROP",
    "FaultRule",
    "FaultPlan",
    "InjectedFault",
}

EXCEPTIONS_SURFACE = {
    "ReproError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "InfeasibleError",
    "BudgetError",
    "ConvergenceError",
    "UnsupportedPowerFunctionError",
    "UnknownSolverError",
    "VerificationError",
    "DeadlineExceededError",
    "OverloadedError",
    "WorkerTimeoutError",
    "error_code",
}

TOP_LEVEL_SURFACE = {
    "analysis",
    "api",
    "batch",
    "BatchResult",
    "solve_many",
    "solve_stream",
    "cache",
    "ResultCache",
    "core",
    "discrete",
    "faults",
    "FaultPlan",
    "flow",
    "io",
    "makespan",
    "multi",
    "online",
    "service",
    "sim",
    "verify",
    "workloads",
    "ProblemSpec",
    "SolveRequest",
    "SolveResult",
    "SolverCapabilities",
    "SolverRegistry",
    "REGISTRY",
    "solve",
    "list_solvers",
    "Instance",
    "Job",
    "PowerFunction",
    "PolynomialPower",
    "CUBE",
    "SQUARE",
    "Schedule",
    "TradeoffCurve",
    "__version__",
}

#: The registered solver matrix is part of the served surface too: removing
#: or renaming a solver breaks every client that requests it by name.
SOLVER_NAMES = {
    "laptop",
    "server",
    "frontier",
    "flow",
    "flow-server",
    "multi-makespan",
    "multi-flow",
    "yds",
    "avr",
    "oa",
    "bkp",
}


def test_api_surface_snapshot():
    assert set(repro.api.__all__) == API_SURFACE


def test_verify_surface_snapshot():
    assert set(repro.verify.__all__) == VERIFY_SURFACE


def test_io_surface_snapshot():
    assert set(repro.io.__all__) == IO_SURFACE


def test_batch_surface_snapshot():
    assert set(repro.batch.__all__) == BATCH_SURFACE


def test_cache_surface_snapshot():
    assert set(repro.cache.__all__) == CACHE_SURFACE


def test_cache_store_surface_snapshot():
    assert set(repro.cache_store.__all__) == CACHE_STORE_SURFACE


def test_service_surface_snapshot():
    assert set(repro.service.__all__) == SERVICE_SURFACE


def test_sim_surface_snapshot():
    assert set(repro.sim.__all__) == SIM_SURFACE


def test_online_surface_snapshot():
    assert set(repro.online.__all__) == ONLINE_SURFACE


def test_faults_surface_snapshot():
    assert set(repro.faults.__all__) == FAULTS_SURFACE


def test_exceptions_surface_snapshot():
    assert set(repro.exceptions.__all__) == EXCEPTIONS_SURFACE


def test_top_level_surface_snapshot():
    assert set(repro.__all__) == TOP_LEVEL_SURFACE


def test_registered_solver_names_snapshot():
    assert set(repro.REGISTRY.names()) >= SOLVER_NAMES


def test_all_names_actually_exported():
    for module in (repro, repro.api, repro.io, repro.batch, repro.cache,
                   repro.exceptions, repro.faults, repro.online, repro.service,
                   repro.sim, repro.verify):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} missing"
