"""Helpers shared by ``run.py`` and its program process.

Nothing here imports ``repro``: the program process times its own
``import repro``, so this module must stay import-cheap and repro-free.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

ROOT = Path(__file__).resolve().parent.parent


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


#: The calibration loop's best time on the reference host speed, in seconds.
#: Program-workload times are scaled to that speed (see ``calibration_s``).
REFERENCE_CALIBRATION_S = 1.0e-3


def calibration_s() -> float:
    """Best time of a fixed pure-Python loop: how fast the host runs now.

    On a shared host the speed of the whole machine drifts by tens of percent
    over minutes, beyond what any within-run statistic can remove.  The
    program workloads time this loop between their cycles and scale their
    times by ``REFERENCE_CALIBRATION_S / best loop time``; a change to the
    program moves the scaled figures as much as the measured ones.
    """
    best = math.inf
    for _ in range(3):
        begun = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        best = min(best, time.perf_counter() - begun)
    return best


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


class Spans:
    """Busy time and call counts per layer, kept in memory for one run.

    ``wrap(name, fn)`` returns ``fn`` timed under ``name``; ``span(name)`` times
    a ``with`` block.  Nested spans each keep their full duration, so a
    layer's self time is its total minus the totals of the spans it calls.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + calls

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn``, timed under ``name``."""

        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    def total(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.seconds[name] / calls if calls else 0.0


@contextmanager
def patched(target: Any, attribute: str, replacement: Any) -> Iterator[None]:
    """Swap ``target.attribute`` for the duration of a ``with`` block."""
    original = getattr(target, attribute)
    setattr(target, attribute, replacement)
    try:
        yield
    finally:
        setattr(target, attribute, original)


def _version(package: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    import platform

    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read straight from ``.git`` (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict[str, Any]:
    """The provenance block stamped on every record."""
    import platform

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
    }
