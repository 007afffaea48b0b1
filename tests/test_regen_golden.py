"""The golden regeneration script and the checked-in captures cannot drift.

``tools/regen_golden.py`` is the single command that rewrites
``tests/golden/``; this suite runs its :func:`regenerate` function and
asserts the output matches the repository byte for byte — so a CLI output
change cannot land without regenerating the goldens, and a script change
cannot silently produce different captures than the ones tests pin against.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_SCRIPT = Path(__file__).parent.parent / "tools" / "regen_golden.py"


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
