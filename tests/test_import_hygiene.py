"""What importing and using ``repro`` loads, pinned in fresh interpreters.

``import repro`` resolves its subpackages on first use, and the runtime
needs numpy alone.  These tests keep it that way:

* a bare ``import repro`` loads no ``repro`` submodule, numpy or scipy;
* solving and verifying every registered solver with CUBE power loads
  neither scipy nor the serving and batch machinery (``repro.service``,
  ``repro.batch``, ``repro.cache``, asyncio, sqlite3, multiprocessing);
* ``repro.online.compete.ALGORITHMS`` is complete whichever import
  bootstraps the registry first;
* a serve loop, once built, imports nothing more while it answers, so no
  request pays for an import;
* no module under ``src/repro`` imports scipy, not even inside a function.

Each check that depends on import order runs in its own interpreter.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_repro_loads_nothing_else():
    loaded = _fresh("""
        import json, sys
        import repro
        print(json.dumps(sorted(sys.modules)))
    """)
    assert [m for m in loaded if m.startswith("repro.")] == []
    assert "numpy" not in loaded
    assert "scipy" not in loaded


def test_cube_solves_and_verifies_load_no_scipy_and_no_serving_machinery():
    loaded = _fresh("""
        import json, sys
        import repro
        from repro.api import REGISTRY, SolveRequest, verify
        from repro.core import CUBE
        from repro.workloads import deadline_instance, equal_work_instance, figure1_instance

        REGISTRY.names()
        solved = []
        for name in ("laptop", "server", "frontier", "flow", "flow-server",
                     "multi-makespan", "multi-flow", "yds", "avr", "oa", "bkp"):
            caps = REGISTRY.capabilities(name)
            if caps.needs_deadlines:
                instance = deadline_instance(5, seed=1, laxity=3.0)
            elif caps.needs_equal_work:
                instance = equal_work_instance(4, seed=1)
            else:
                instance = figure1_instance()
            budget = {"energy": 12.0, "metric": 50.0}.get(caps.budget_kind)
            options = {"min_energy": 8.0, "max_energy": 17.0, "points": 3} if name == "frontier" else {}
            request = SolveRequest(
                instance=instance, power=CUBE, solver=name, budget=budget,
                processors=2 if caps.multiprocessor else 1, options=options,
            )
            result = repro.solve(request)
            assert result.ok, (name, result.error_message)
            assert verify(request, result).ok, name
            solved.append(name)
        assert len(solved) == 11
        print(json.dumps(sorted(sys.modules)))
    """)
    forbidden = ("scipy", "repro.service", "repro.batch", "repro.cache",
                 "asyncio", "sqlite3", "multiprocessing")
    assert [m for m in forbidden if m in loaded] == []


@pytest.mark.parametrize(
    "first",
    [
        "import repro.online.compete",
        "from repro.api import REGISTRY; REGISTRY.names()",
        "import repro.online.register",
    ],
)
def test_online_algorithms_are_complete_whatever_bootstraps_first(first):
    algorithms = _fresh(f"""
        import json
        {first}
        from repro.online import compete
        print(json.dumps(compete.ALGORITHMS))
    """)
    assert algorithms == ["avr", "oa", "bkp"]


def test_a_built_serve_loop_imports_nothing_while_it_answers(tmp_path):
    report = _fresh(f"""
        import asyncio, io, json, sys
        from repro.api import SolveRequest
        from repro.core import CUBE
        from repro.io import request_to_dict
        from repro.workloads import deadline_instance, poisson_instance

        # one request per serve-mix cell, each sent twice (a miss, then a hit)
        lines = []
        for solver in ("laptop", "server", "frontier", "yds", "avr", "oa", "bkp"):
            for n in (8,) if solver == "bkp" else (8, 16, 32):
                if solver in ("laptop", "server", "frontier"):
                    instance = poisson_instance(n, seed=n)
                    budget = {{"laptop": float(n), "frontier": None,
                              "server": float(instance.releases.max() + instance.works.sum())}}[solver]
                else:
                    instance, budget = deadline_instance(n, seed=n), None
                request = SolveRequest(instance=instance, power=CUBE, solver=solver, budget=budget)
                lines += [json.dumps(request_to_dict(request))] * 2
        lines += ['{{"op": "ping"}}', '{{"op": "stats"}}']

        # as `repro serve --verify --cache-backend sqlite` builds its loop
        import repro.cli
        from repro.cache import ResultCache
        from repro.cache_store import open_store
        from repro.service import AsyncServeLoop

        loop = AsyncServeLoop(cache=ResultCache(store=open_store("sqlite", {str(tmp_path)!r})),
                              verify=True)
        before = set(sys.modules)
        out = io.StringIO()
        asyncio.run(loop.run_stream(io.StringIO("\\n".join(lines) + "\\n"), out))
        replies = [json.loads(line) for line in out.getvalue().splitlines()]
        print(json.dumps({{
            "added": sorted(set(sys.modules) - before),
            "ok": sum(r.get("result", {{}}).get("status") == "ok" for r in replies),
            "hits": sum(r.get("serve", {{}}).get("cache") == "hit" for r in replies),
            "replies": len(replies),
        }}))
    """)
    assert report["replies"] == 40
    assert report["ok"] == 38
    assert report["hits"] == 19
    assert report["added"] == []


def test_no_module_under_src_imports_scipy():
    offenders = []
    for path in sorted((_SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(_SRC)}:{node.lineno} {name}"
                for name in names if name.partition(".")[0] == "scipy"
            ]
    assert offenders == []
