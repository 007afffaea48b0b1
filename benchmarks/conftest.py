"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artefacts (a figure
series or a quantitative claim) and writes the regenerated rows to a text
file under ``benchmarks/results/`` so they can be compared with the paper
(README's "Deviations from the paper" lists where they differ).  The
``benchmark`` fixture from pytest-benchmark times the computational core of
each experiment.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmarks drop their regenerated tables."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_result(name: str, text: str) -> Path:
    """Write one benchmark's regenerated table to benchmarks/results/<name>."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text, encoding="utf-8")
    return path


def best_of(fn, repeats: int = 3):
    """Best-of-N wall-clock timing: returns ``(seconds, last_result)``.

    Shared by the speedup benchmarks so they all measure the same way
    (minimum over ``repeats`` runs, which suppresses one-off scheduler
    noise on the single-core container).
    """
    import time

    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result
