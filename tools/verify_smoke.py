#!/usr/bin/env python
"""CI smoke test for ``repro verify`` on the deadline family, both ways.

For ``yds``, ``avr`` and ``oa`` it writes a ``deadline_instance`` solve
request, solves it with ``repro solve --request REQ --json`` and verifies
the answer with ``repro verify`` (exit 0: the array certificates pass it
without a re-solve or an EDF rebuild).  The ``oa`` instance is shifted to
start near t = 1e6, where a finished job's rounding residual once made OA
answer ``infeasible``.  Then it tampers with each answer and requires exit 1
with the expected finding code, which only the recompute path writes:

* the yds energy scaled by 1.001 -> ``yds-energy-suboptimal``;
* the avr and oa speeds halved -> ``deadline-missed``.

Run as ``python tools/verify_smoke.py`` (the repo's ``src/`` is put on the
subprocesses' PYTHONPATH automatically); exits non-zero with a diagnostic on
any violation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:  # runnable straight from a checkout
    sys.path.insert(0, _SRC)

#: (solver, instance seed, time shift, tamper, expected finding code)
CASES = (
    ("yds", 3, 0.0, "energy", "yds-energy-suboptimal"),
    ("avr", 3, 0.0, "speeds", "deadline-missed"),
    ("oa", 0, 1e6, "speeds", "deadline-missed"),
)


def _repro(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": _SRC}
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _request(solver: str, seed: int, shift: float) -> dict:
    from repro.api import SolveRequest
    from repro.core import CUBE
    from repro.io import request_to_dict
    from repro.workloads import deadline_instance

    return request_to_dict(
        SolveRequest(
            instance=deadline_instance(12, seed=seed).shifted(shift),
            power=CUBE,
            solver=solver,
        )
    )


def _tampered(result: dict, tamper: str) -> dict:
    if tamper == "energy":
        return {**result, "energy": result["energy"] * 1.001}
    return {**result, "speeds": [s / 2.0 for s in result["speeds"]]}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for solver, seed, shift, tamper, code in CASES:
            request = Path(tmp, f"{solver}_request.json")
            request.write_text(json.dumps(_request(solver, seed, shift)), encoding="utf-8")
            solved = _repro("solve", "--request", str(request), "--json")
            if solved.returncode != 0:
                print(f"verify smoke FAILED: {solver} solve exited "
                      f"{solved.returncode}: {solved.stderr}", file=sys.stderr)
                return 1
            result = Path(tmp, f"{solver}_result.json")
            result.write_text(solved.stdout, encoding="utf-8")
            passed = _repro("verify", "--request", str(request), "--result", str(result))
            if passed.returncode != 0:
                print(f"verify smoke FAILED: the {solver} answer did not verify "
                      f"(exit {passed.returncode}): {passed.stdout}{passed.stderr}",
                      file=sys.stderr)
                return 1
            bad = Path(tmp, f"{solver}_tampered.json")
            bad.write_text(
                json.dumps(_tampered(json.loads(solved.stdout), tamper)), encoding="utf-8"
            )
            failed = _repro("verify", "--request", str(request), "--result", str(bad), "--json")
            codes = (
                {f["code"] for f in json.loads(failed.stdout)["findings"]}
                if failed.returncode == 1 else set()
            )
            if code not in codes:
                print(f"verify smoke FAILED: tampered {solver} answer gave exit "
                      f"{failed.returncode} and findings {sorted(codes)}, expected "
                      f"exit 1 with {code!r}", file=sys.stderr)
                return 1
            print(f"verify smoke OK: {solver} answer passes; tampered {tamper} "
                  f"fails with {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
