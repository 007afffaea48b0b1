"""The golden regeneration script and the checked-in captures cannot drift.

``tools/regen_golden.py`` is the single command that rewrites
``tests/golden/``; this suite runs its :func:`regenerate` function and
asserts the output matches the repository byte for byte — so a CLI output
change cannot land without regenerating the goldens, and a script change
cannot silently produce different captures than the ones tests pin against.
It also runs the script's ``--check`` and ``repro solve --list`` in a child
that cannot import scipy: every golden must come out the same on numpy alone.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_REPO = Path(__file__).resolve().parent.parent
_SCRIPT = _REPO / "tools" / "regen_golden.py"

#: Prelude for a child interpreter in which scipy cannot be imported, as on
#: an install of the runtime dependencies ``setup.py`` declares (numpy alone).
_REFUSE_SCIPY = '''
import runpy, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, RefuseScipy())
'''


def _load_regen_module():
    spec = importlib.util.spec_from_file_location("regen_golden", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def regen():
    return _load_regen_module()


@pytest.fixture(scope="module")
def captures(regen) -> dict[str, str]:
    return regen.regenerate()


pytestmark = pytest.mark.slow  # includes the compete sweep


def test_script_covers_every_checked_in_golden(captures):
    on_disk = {p.name for p in GOLDEN.iterdir() if p.is_file()}
    assert on_disk == set(captures), (
        "tools/regen_golden.py and tests/golden/ disagree about which "
        "captures exist; extend CLI_CASES (or delete the stale file)"
    )


def test_script_output_matches_checked_in_goldens(captures):
    stale = [
        name
        for name, text in sorted(captures.items())
        if text != (GOLDEN / name).read_text(encoding="utf-8")
    ]
    assert not stale, (
        f"golden files out of date: {stale}; run python tools/regen_golden.py"
    )


def test_verify_smoke_envelopes_pass_verification():
    # the exact invocation CI's verify smoke step runs
    from repro.cli import main

    assert main([
        "verify",
        "--request", str(GOLDEN / "verify_request.json"),
        "--result", str(GOLDEN / "verify_result.json"),
    ]) == 0


def _run_without_scipy(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _REFUSE_SCIPY + code, *args],
        cwd=_REPO, env={**os.environ, "PYTHONPATH": str(_REPO / "src")},
        capture_output=True, text=True, timeout=300,
    )


def test_goldens_and_solver_list_need_only_numpy():
    refused = _run_without_scipy("import scipy")
    assert "No module named 'scipy'" in refused.stderr
    check = _run_without_scipy(
        "sys.argv[0] = sys.argv[1]; del sys.argv[1]; runpy.run_path(sys.argv[0], run_name='__main__')",
        str(_SCRIPT), "--check",
    )
    assert check.returncode == 0, check.stdout + check.stderr
    listing = _run_without_scipy(
        "sys.argv[0] = 'repro'; runpy.run_module('repro.cli', run_name='__main__')",
        "solve", "--list",
    )
    assert listing.returncode == 0, listing.stderr
    assert "multi-makespan" in listing.stdout
