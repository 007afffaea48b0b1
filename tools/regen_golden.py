#!/usr/bin/env python
"""Regenerate every capture under ``tests/golden/`` in one command.

The golden files pin the CLI's byte-level output (and the verify smoke
envelopes CI feeds to ``repro verify``).  When an intentional output change
lands, run::

    python tools/regen_golden.py            # rewrite tests/golden/
    python tools/regen_golden.py --check    # exit 1 if anything would change

``tests/test_regen_golden.py`` runs the same :func:`regenerate` function and
asserts its output matches the checked-in files byte for byte, so the script
and the goldens cannot drift apart.
"""

from __future__ import annotations

import argparse
import asyncio
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:  # runnable straight from a checkout
    sys.path.insert(0, _SRC)

FIG1 = ["--releases", "0,5,6", "--works", "5,2,1"]
EQ = ["--releases", "0,1,2", "--works", "2,2,2"]

#: Plain CLI captures: golden file name -> argv (stdout is the capture).
CLI_CASES: dict[str, list[str]] = {
    "laptop_table.txt": ["laptop", *FIG1, "--energy", "17"],
    "laptop.json": ["laptop", *FIG1, "--energy", "17", "--json"],
    "server.json": ["server", *FIG1, "--makespan", "8", "--json"],
    "frontier.json": ["frontier", *FIG1, "--min-energy", "6", "--max-energy", "21",
                      "--points", "5", "--json"],
    "flow.json": ["flow", *EQ, "--energy", "6", "--json"],
    "flow_table.txt": ["flow", *EQ, "--energy", "6"],
    "multi_makespan.json": ["multi", *EQ, "--energy", "8", "--processors", "2",
                            "--metric", "makespan", "--json"],
    "multi_flow.json": ["multi", *EQ, "--energy", "8", "--processors", "2",
                        "--metric", "flow", "--json"],
    "figures.json": ["figures", "--points", "7", "--json"],
    "compete.json": ["compete", "--alphas", "2", "--sizes", "5", "--seeds", "2",
                     "--families", "deadline,staircase", "--json"],
    "sim.json": ["sim", "--family", "day-night", "--size", "12", "--seed", "0",
                 "--machine", "athlon64", "--json"],
    # the sim-replay benchmark's mmpp trace: an 8,128-segment BKP profile,
    # two-level quantisation and a max-speed tail
    "sim_mmpp64.json": ["sim", "--family", "mmpp", "--size", "64", "--seed", "7000",
                        "--machine", "athlon64", "--json"],
    "sim_table.txt": ["sim", "--family", "heavy-tail", "--size", "8",
                      "--seed", "1", "--machine", "static-sleep"],
    "compete_machines.json": ["compete", "--machines", "pure,athlon64",
                              "--families", "day-night,mmpp", "--sizes", "6",
                              "--seeds", "1", "--algorithms", "oa,avr",
                              "--json"],
}


def _capture(argv: list[str]) -> str:
    from repro.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return out.getvalue()


def _batch_results() -> str:
    """The timing-free ``results`` section of a deterministic batch run."""
    from repro.io import save_instances
    from repro.workloads import equal_work_instance

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.json"
        save_instances([equal_work_instance(4, seed=s) for s in range(3)], path)
        payload = json.loads(
            _capture(["batch", "--instances", str(path), "--energy", "6", "--json"])
        )
    return json.dumps(payload["results"], indent=2, sort_keys=True) + "\n"


def _verify_envelopes() -> dict[str, str]:
    """The request/result envelope pair the CI verify smoke step checks."""
    from repro.api import SolveRequest
    from repro.api import solve as api_solve
    from repro.core import CUBE
    from repro.io import request_to_dict, result_to_dict
    from repro.workloads import figure1_instance

    request = SolveRequest(
        instance=figure1_instance(), power=CUBE, solver="laptop", budget=17.0
    )
    result = api_solve(request)
    result.raise_if_error()
    return {
        "verify_request.json": json.dumps(
            request_to_dict(request), indent=2, sort_keys=True
        ) + "\n",
        "verify_result.json": json.dumps(
            result_to_dict(result), indent=2, sort_keys=True
        ) + "\n",
    }


def _serve(lines: list[str], **options) -> str:
    """What ``repro serve --no-timing`` answers to ``lines`` over stdio."""
    from repro.cache import ResultCache
    from repro.service import AsyncServeLoop

    loop = AsyncServeLoop(cache=ResultCache(), timing=False, **options)
    out = io.StringIO()
    asyncio.run(loop.run_stream(iter(lines), out))
    return out.getvalue()


def _serve_transcript() -> str:
    """The serve-protocol golden: two identical requests, then a bad line.

    Run with ``timing=False`` (the CLI's ``--no-timing``) so the transcript
    is byte-reproducible; the second response must report a cache hit and
    the malformed line a structured error, with the loop surviving all
    three.
    """
    from repro.api import SolveRequest
    from repro.core import CUBE
    from repro.io import request_to_dict
    from repro.workloads import figure1_instance

    line = json.dumps(
        request_to_dict(
            SolveRequest(
                instance=figure1_instance(), power=CUBE, solver="laptop", budget=17.0
            )
        )
    )
    return _serve([line + "\n", line + "\n", "{not json\n"])


def _serve_routed_transcript() -> str:
    """The SLA-routing serve golden (``--routing sla --no-timing``).

    Three lines: an accuracy-carrying request under a latency budget far
    tighter than the exact solver's cost model (deterministically routed to
    the certified PTAS variant — the response stamps ``routed_solver``,
    ``epsilon`` and ``certificate``), the same problem with no accuracy knob
    (exact, unrouted), and a malformed line (structured error; the loop
    survives).
    """
    from repro.api import SolveRequest
    from repro.core import CUBE, Instance
    from repro.io import request_to_dict

    instance = Instance.from_arrays(
        [0.0] * 10,
        [5.0, 3.0, 2.0, 2.0, 1.0, 4.0, 2.5, 1.5, 3.5, 1.0],
        name="routed-golden",
    )
    routed = json.dumps(
        request_to_dict(
            SolveRequest(
                instance=instance, power=CUBE, solver="multi-makespan-exact",
                budget=80.0, processors=3, accuracy=0.5,
                latency_budget_ms=1.0,
            )
        )
    )
    exact = json.dumps(
        request_to_dict(
            SolveRequest(
                instance=instance, power=CUBE, solver="multi-makespan-exact",
                budget=80.0, processors=3,
            )
        )
    )
    return _serve([routed + "\n", exact + "\n", "{not json\n"], routing="sla")


def regenerate() -> dict[str, str]:
    """All golden captures: file name -> exact text content."""
    captures = {name: _capture(argv) for name, argv in CLI_CASES.items()}
    captures["batch_results.json"] = _batch_results()
    captures.update(_verify_envelopes())
    captures["serve_transcript.txt"] = _serve_transcript()
    captures["serve_routed_transcript.txt"] = _serve_routed_transcript()
    return captures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the checked-in goldens instead of rewriting them",
    )
    args = parser.parse_args(argv)

    captures = regenerate()
    changed = []
    for name, text in sorted(captures.items()):
        path = GOLDEN_DIR / name
        current = path.read_text(encoding="utf-8") if path.exists() else None
        if text == current:
            print(f"  unchanged  {name}")
            continue
        changed.append(name)
        if args.check:
            print(f"  DIFFERS    {name}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            print(f"  rewrote    {name}" if current is not None else f"  created    {name}")
    if args.check and changed:
        print(f"{len(changed)} golden file(s) out of date; run tools/regen_golden.py")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
