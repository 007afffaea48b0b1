"""Regenerate ``perfbench/reference.json``, the stored outputs of every pool input.

Run from the repository root:  ``PYTHONPATH=src python3 perfbench/make_reference.py``

Each value comes from the same serialised inputs and library calls the
workloads make.  Regenerate only when an output is meant to change, and say
why in the commit.
"""

from __future__ import annotations

import json
import sys

import inputs


def batch_reference() -> dict:
    from repro.batch import solve_stream
    from repro.core import CUBE
    from repro.io import instances_from_dict, instances_to_dict

    out: dict = {}
    for n in inputs.BATCH_SIZES:
        for solver in inputs.BATCH_SOLVERS:
            pool = instances_from_dict(instances_to_dict(
                [inputs.batch_instance(n, i) for i in range(inputs.BATCH_ITEMS[solver])]
            ))
            rows = list(solve_stream(pool, CUBE, 0.0, solver=solver, workers=1))
            if not all(row.ok for row in rows):
                raise SystemExit(f"batch reference: {solver} n={n} has failed items")
            out.setdefault(solver, {})[str(n)] = [row.energy for row in rows]
    return out


def flow_reference() -> dict:
    from repro.api import SolveRequest, solve, verify
    from repro.core import CUBE
    from repro.io import instance_from_dict, instance_to_dict

    out: dict = {}
    for solver, processors, n in inputs.FLOW_CELLS:
        values = []
        for i in range(inputs.FLOW_POOL):
            instance = instance_from_dict(instance_to_dict(inputs.flow_instance(n, i)))
            request = SolveRequest(instance=instance, power=CUBE, solver=solver,
                                   budget=inputs.flow_budget(solver, n),
                                   processors=processors)
            result = solve(request)
            if not (result.ok and verify(request, result).ok):
                raise SystemExit(f"flow reference: {solver} m={processors} n={n} #{i} failed")
            values.append(result.value)
        out[inputs.flow_cell_key(solver, processors, n)] = values
    return out


def sim_reference() -> dict:
    from repro.sim import machine_model, simulate, trace_from_jsonl, trace_to_jsonl

    out: dict = {}
    for family in inputs.SIM_FAMILIES:
        rows = []
        for i in range(inputs.SIM_POOL):
            trace = inputs.sim_trace(family, i)
            trace = trace_from_jsonl(trace_to_jsonl(trace), name=trace.name)
            row: dict = {}
            for machine in inputs.SIM_MACHINES:
                for algorithm in inputs.SIM_ALGORITHMS:
                    report = simulate(trace, machine_model(machine), algorithm).report
                    row.setdefault(machine, {})[algorithm] = [report.energy, report.n_events]
            rows.append(row)
        out[family] = rows
    return out


def main() -> int:
    reference = {
        "batch": batch_reference(),
        "flow": flow_reference(),
        "sim": sim_reference(),
    }
    inputs.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {inputs.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
