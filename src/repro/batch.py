"""Batch solving engine: many instances through one API, streaming, resumable.

The serving scenario the ROADMAP targets is not "solve one instance" but
"solve a stream of instances": sweeps over workloads, parameter studies, and
request batches.  This module provides the streaming engine:

* :func:`solve_stream` -- a generator yielding one :class:`BatchResult` per
  instance, in input order, as chunks complete.  Results are produced
  incrementally (bounded memory in the result dimension: at most a window of
  in-flight chunks is held), with

  - chunked process-pool parallelism (``workers=N``) for CPU-bound fan-out,
  - content-addressed caching (``cache=ResultCache(...)``): every item is
    looked up before dispatch and written behind after it solves (and, with
    ``verify=True``, only after its certificate checks pass), so repeated
    instances cost one solve,
  - resumable runs (``run_dir=...``): completed results are journalled to
    ``<run_dir>/journal.jsonl`` as they are yielded, and a re-invoked run
    over the same inputs skips finished work and reproduces the same
    results byte for byte (``repro batch --run-dir`` on the command line);

* :func:`solve_many` -- the materialised form, a thin ``list()`` wrapper over
  :func:`solve_stream`, byte-identical to the streaming path.

Dispatch goes through :meth:`repro.api.SolverRegistry.run`, the same path as
``repro.solve`` and the CLI, so the batch engine cannot drift from the rest
of the API.  Cache-miss items are additionally bucketed by job count and —
when the solver registered a structure-of-arrays batched kernel
(``capabilities.batch_kernel``) — whole buckets go through
:meth:`repro.api.SolverRegistry.run_batch` in one kernel call, byte-identical
to the per-item path and an order of magnitude cheaper on fleets of small
same-shape instances (``batch_kernel="auto"|"on"|"off"`` controls this).

Exposed on the command line as ``repro batch`` (see :mod:`repro.cli`), and
measured by ``benchmarks/bench_batch_throughput.py`` and
``benchmarks/bench_cache_throughput.py``.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .api.registry import REGISTRY
from .api.types import SolveRequest, SolveResult
from .cache import ResultCache, instance_digest
from .core.job import Instance
from .core.power import PowerFunction
from .exceptions import InvalidInstanceError, VerificationError, WorkerTimeoutError
from .faults import (
    JOURNAL_TORN,
    SOLVER_SLOW,
    WORKER_EXCEPTION,
    WORKER_HANG,
    FaultPlan,
    InjectedFault,
)

__all__ = ["BatchResult", "solve_many", "solve_stream"]


@dataclass(frozen=True)
class BatchResult:
    """Result of one instance inside a :func:`solve_stream` batch.

    ``value`` is the solver's objective (makespan for ``laptop``, minimum
    energy for ``server``, total flow for ``flow``, schedule energy for
    ``yds``); ``energy`` is the energy actually consumed by the returned
    speed assignment.

    A failed item — today only a chunk that exceeded ``chunk_timeout`` —
    carries its stable code in ``error_code`` (with NaN value/energy and
    empty speeds); such rows are never journalled or cached, so a resumed
    run retries them.
    """

    index: int
    solver: str
    n_jobs: int
    value: float
    energy: float
    speeds: np.ndarray
    error_code: str | None = None
    error_message: str | None = None

    @property
    def ok(self) -> bool:
        """Whether this item actually solved (no error attached)."""
        return self.error_code is None


def _fire_item_faults(fault_plan: FaultPlan, index: int) -> None:
    """Consult the worker-site fault rules for one instance index.

    Worker-site faults match on the instance index, so the decision is
    identical no matter which worker process (or dispatch path) draws the
    chunk.
    """
    rule = fault_plan.fire(WORKER_HANG, ordinal=index)
    if rule is not None:
        fault_plan.sleep(rule)
    rule = fault_plan.fire(SOLVER_SLOW, ordinal=index)
    if rule is not None:
        fault_plan.sleep(rule)
    rule = fault_plan.fire(WORKER_EXCEPTION, ordinal=index)
    if rule is not None:
        raise InjectedFault(
            rule.message or f"injected worker crash at instance {index}"
        )


def _solve_chunk(payload: tuple) -> list[tuple[BatchResult, dict | None]]:
    """Worker entry point: solve one chunk of (index, instance, budget) items.

    Must stay module-level (and take a single picklable argument) so the
    process pool can ship it to workers; solver lookup happens by name in the
    worker, against the worker's own registry bootstrap.  Returns one
    ``(BatchResult, envelope)`` pair per item, where ``envelope`` is the
    write-behind payload of the full result (the JSON-ready
    :func:`repro.io.result_to_dict` dict) when ``with_envelopes`` is set,
    and ``None`` otherwise.

    ``batch_kernel`` (``"auto"`` / ``"on"`` / ``"off"``) selects the
    structure-of-arrays tier: unless it is ``"off"``, items are bucketed by
    job count and each bucket is dispatched through
    :meth:`repro.api.SolverRegistry.run_batch` when the solver registered a
    batched kernel.  Under ``"auto"`` a singleton bucket keeps the reference
    per-instance path (packing one instance gains nothing); ``"on"`` forces
    the batched kernel even then.  Results are byte-identical either way.
    """
    (
        solver_name, power, items, verify, with_envelopes, fault_plan,
        batch_kernel,
    ) = payload
    if verify:
        # lazy: repro.verify pulls solver machinery the plain path never needs
        from .verify import verify as verify_result
    if with_envelopes:
        from .io import result_to_dict
    requests = [
        SolveRequest(
            instance=instance, power=power, solver=solver_name, budget=budget
        )
        for _, instance, budget in items
    ]
    batched = batch_kernel != "off" and REGISTRY.get(solver_name).batch_fn is not None
    results: list[SolveResult]
    if batched:
        # fault rules fire per item, in index order, *before* the batched
        # solve: a chunk that raises is lost atomically on both paths, so the
        # observable fault behaviour matches the per-item loop below
        if fault_plan is not None:
            for index, _, _ in items:
                _fire_item_faults(fault_plan, index)
        results = [None] * len(items)  # type: ignore[list-item]
        buckets: dict[int, list[int]] = {}
        for pos, (_, instance, _) in enumerate(items):
            buckets.setdefault(instance.n_jobs, []).append(pos)
        for positions in buckets.values():
            if batch_kernel == "auto" and len(positions) < 2:
                for pos in positions:
                    results[pos] = REGISTRY.run(requests[pos])
            else:
                for pos, result in zip(
                    positions,
                    REGISTRY.run_batch([requests[pos] for pos in positions]),
                ):
                    results[pos] = result
    else:
        results = []
        for (index, _, _), request in zip(items, requests):
            if fault_plan is not None:
                _fire_item_faults(fault_plan, index)
            results.append(REGISTRY.run(request))
    out = []
    for (index, instance, _), request, result in zip(items, requests, results):
        if verify:
            # certificate-check in the worker, next to the solve; a failed
            # report raises VerificationError naming the instance
            report = verify_result(request, result)
            if not report.ok:
                raise VerificationError(
                    f"instance {index}: verification failed for solver "
                    f"{solver_name!r}: {report.error_summary()}"
                )
        out.append(
            (
                BatchResult(
                    index=index,
                    solver=solver_name,
                    n_jobs=instance.n_jobs,
                    value=float(result.value),
                    energy=float(result.energy),
                    speeds=result.speeds,
                ),
                result_to_dict(result) if with_envelopes else None,
            )
        )
    return out


# ----------------------------------------------------------------------
# resumable runs: the run-dir journal
# ----------------------------------------------------------------------

class _RunJournal:
    """Append-only journal of completed batch items under one run directory.

    ``manifest.json`` fingerprints the run's inputs (solver, power, budgets,
    instance content digests) so a directory cannot silently be resumed with
    different work; ``journal.jsonl`` holds one completed result per line,
    appended and flushed *before* the result is yielded, so a killed run
    loses at most the in-flight items.  The manifest is written atomically
    (temp file + rename, like cache shards): a kill at any point leaves
    either no manifest or a complete one, never a torn file a resume would
    misread.  Rows round-trip through JSON float repr exactly, making a
    resumed capture byte-identical to an uninterrupted one.
    """

    MANIFEST = "manifest.json"
    JOURNAL = "journal.jsonl"

    def __init__(
        self,
        run_dir: str | Path,
        fingerprint: str,
        solver: str,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        from .io import batch_result_from_dict

        self._fault_plan = fault_plan
        self.directory = Path(run_dir)
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / self.MANIFEST
        manifest = {"kind": "batch-run", "format": 1,
                    "solver": solver, "fingerprint": fingerprint}
        if manifest_path.exists():
            try:
                existing = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise InvalidInstanceError(
                    f"unreadable run manifest {manifest_path}: {exc}"
                ) from exc
            if existing.get("kind") != "batch-run":
                raise InvalidInstanceError(
                    f"{self.directory} is not a batch run directory "
                    f"(manifest kind={existing.get('kind')!r})"
                )
            if existing.get("fingerprint") != fingerprint:
                raise InvalidInstanceError(
                    f"run directory {self.directory} was created for a "
                    "different batch (solver, power, budgets or instances "
                    "changed); use a fresh --run-dir"
                )
        else:
            tmp = manifest_path.with_name(
                f".{manifest_path.name}.{os.getpid()}.tmp"
            )
            tmp.write_text(
                json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
            )
            os.replace(tmp, manifest_path)
        self.completed: dict[int, BatchResult] = {}
        journal_path = self.directory / self.JOURNAL
        if journal_path.exists():
            text = journal_path.read_text(encoding="utf-8")
            trusted = 0  # length of the prefix of complete, parseable rows
            for line in text.splitlines(keepends=True):
                # a row is only trusted if its newline made it to disk; a
                # torn tail line from a killed writer ends the prefix, and
                # nothing after it can be trusted either (append-only file)
                if not line.endswith("\n"):
                    break
                try:
                    row = json.loads(line)
                    result = batch_result_from_dict(row, solver=solver)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    break
                self.completed[result.index] = result
                trusted += len(line)
            if trusted < len(text):
                # drop the torn tail before appending, so the next resume
                # does not see new rows concatenated onto the fragment
                journal_path.write_text(text[:trusted], encoding="utf-8")
        self._fh = journal_path.open("a", encoding="utf-8")

    def record(self, result: BatchResult, name: str) -> None:
        from .io import batch_result_to_dict

        text = json.dumps(batch_result_to_dict(result, name=name)) + "\n"
        if self._fault_plan is not None:
            rule = self._fault_plan.fire(JOURNAL_TORN)
            if rule is not None:
                # simulate a kill mid-append: half the row reaches disk with
                # no trailing newline, then the "process" dies
                self._fh.write(text[: max(1, len(text) // 2)])
                self._fh.flush()
                raise InjectedFault(
                    rule.message or "injected kill mid-journal-append"
                )
        self._fh.write(text)
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _run_fingerprint(
    solver: str,
    power: PowerFunction,
    budget_list: list[float],
    instance_list: list[Instance],
) -> str:
    import hashlib

    from .io import power_to_dict

    payload = {
        "solver": solver,
        "power": power_to_dict(power),
        "budgets": budget_list,
        "instances": [instance_digest(inst) for inst in instance_list],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------

#: Items per chunk on the serial path: small enough that results stream
#: promptly, large enough that per-chunk overhead stays negligible.
_SERIAL_CHUNK = 16


def solve_stream(
    instances: Iterable[Instance],
    power: PowerFunction,
    budgets: float | Sequence[float] | np.ndarray,
    solver: str = "laptop",
    workers: int = 1,
    chunk_size: int | None = None,
    verify: bool = False,
    cache: ResultCache | None = None,
    run_dir: str | Path | None = None,
    chunk_timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
    batch_kernel: str = "auto",
) -> Iterator[BatchResult]:
    """Solve many instances with one solver, yielding results as they complete.

    A generator: results come out in input order (``result.index == i``), one
    chunk at a time, so a consumer can process, persist or forward each
    result while later ones are still being solved.  Memory stays bounded in
    the result dimension — at most a small window of in-flight chunks is
    held, never the whole batch of results.  (The *instances* iterable is
    materialised up front: budget broadcasting, chunking and the resume
    journal all need the full input list.)

    Parameters
    ----------
    instances:
        The problem instances.
    power:
        Shared power function (must be picklable for ``workers > 1``; the
        built-in power functions are).
    budgets:
        One budget per instance, or a single scalar broadcast to all
        (Python floats, numpy scalars and 0-d arrays all count as scalars).
        Interpreted per solver (energy budget, makespan target, ...).
    solver:
        The name of a batchable solver in :data:`repro.api.REGISTRY`.
    workers:
        ``<= 1`` solves serially in-process; otherwise a process pool with
        this many workers.  Results are identical either way.
    chunk_size:
        Items per dispatch unit; defaults to ``16`` serially and
        ``ceil(len / (workers * 4))`` with a pool, so each worker gets
        several chunks for load balancing.
    verify:
        Certificate-check every result (:func:`repro.verify.verify`); a
        failed report raises :class:`~repro.exceptions.VerificationError`
        naming the instance.  Fresh solves are checked in the worker that
        produced them; cache hits and journal-replayed rows — which may
        predate verification or have been tampered with on disk — are
        re-checked in the parent.  With a cache, only verified results are
        written behind.
    cache:
        A :class:`~repro.cache.ResultCache`: every item is looked up before
        dispatch (hits skip the solver entirely and are byte-identical to a
        fresh solve) and successful results are stored after solving.
    run_dir:
        Directory journalling this run (created if needed).  Completed
        results are appended to ``journal.jsonl`` before being yielded; a
        rerun with identical inputs replays them instead of re-solving, so a
        killed run resumes where it stopped and produces the same results
        byte for byte.  Reusing the directory with *different* inputs raises
        :class:`~repro.exceptions.InvalidInstanceError` (the manifest
        fingerprints the inputs).
    chunk_timeout:
        Pool path only (``workers > 1``): seconds a dispatched chunk may run
        before it is declared hung.  On expiry the worker pool is killed and
        rebuilt, the other in-flight chunks are resubmitted, and the failed
        chunk's unsolved items come back as error rows with the stable
        ``worker-timeout`` code — one hung worker fails its chunk, not the
        stream.  Error rows are never journalled or cached, so a resumed
        run retries them.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` consulted at the
        deterministic chaos sites (``worker-exception`` / ``worker-hang`` /
        ``solver-slow`` match on instance index; ``journal-torn`` on the
        journal's append counter).
    batch_kernel:
        Structure-of-arrays dispatch policy for cache-miss items.  ``"auto"``
        (default) buckets same-shape items and routes buckets of two or more
        through the solver's batched kernel when it registered one
        (``capabilities.batch_kernel``); ``"on"`` forces the batched kernel
        for every item and raises if the solver has none; ``"off"`` keeps
        the reference per-instance path.  Results are byte-identical across
        all three settings.

    Raises
    ------
    UnknownSolverError
        If ``solver`` is not registered (carries the known solver names).
    InvalidInstanceError
        If ``solver`` is registered but not batchable, the budget list does
        not match the instance list, ``run_dir`` belongs to a different
        batch, or ``batch_kernel`` is ``"on"`` for a solver with no batched
        kernel (or not one of ``"auto"`` / ``"on"`` / ``"off"``).
    VerificationError
        If ``verify=True`` and any result fails its certificate checks.
    """
    capabilities = REGISTRY.capabilities(solver)  # raises UnknownSolverError
    if not capabilities.batchable:
        raise InvalidInstanceError(
            f"solver {solver!r} is not batchable; batchable solvers: "
            f"{sorted(REGISTRY.find(batchable=True))}"
        )
    if batch_kernel not in ("auto", "on", "off"):
        raise InvalidInstanceError(
            f"batch_kernel must be 'auto', 'on' or 'off', got {batch_kernel!r}"
        )
    if batch_kernel == "on" and not capabilities.batch_kernel:
        raise InvalidInstanceError(
            f"batch_kernel='on' but solver {solver!r} registers no batched "
            f"kernel; solvers with one: {sorted(REGISTRY.find(batch_kernel=True))}"
        )
    instance_list = list(instances)
    count = len(instance_list)
    if count == 0:
        # still claim/validate the run directory: an empty batch must not
        # silently adopt (or leave unclaimed) a directory the fingerprint
        # guard would otherwise police
        if run_dir is not None:
            _RunJournal(
                run_dir, _run_fingerprint(solver, power, [], []), solver
            ).close()
        return iter(())
    # np.ndim, not np.isscalar: a 0-d numpy array (np.asarray(5.0)) is not a
    # scalar to np.isscalar but must broadcast like one
    if np.ndim(budgets) == 0:
        budget_list = [float(budgets)] * count  # type: ignore[arg-type]
    else:
        budget_list = [float(b) for b in budgets]  # type: ignore[union-attr]
        if len(budget_list) != count:
            raise InvalidInstanceError(
                f"got {len(budget_list)} budgets for {count} instances; "
                "pass one per instance or a single scalar"
            )
    items = list(zip(range(count), instance_list, budget_list))
    if chunk_size is None:
        chunk_size = (
            _SERIAL_CHUNK if workers <= 1
            else max(1, math.ceil(count / (workers * 4)))
        )
    chunks = [items[i : i + chunk_size] for i in range(0, count, chunk_size)]

    journal = (
        _RunJournal(
            run_dir,
            _run_fingerprint(solver, power, budget_list, instance_list),
            solver,
            fault_plan=fault_plan,
        )
        if run_dir is not None
        else None
    )
    return _stream_chunks(
        chunks, solver, power, workers, verify, cache, journal,
        chunk_timeout, fault_plan, batch_kernel,
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool that may hold a hung worker, without waiting for it.

    ``shutdown(wait=False)`` alone leaves a hung worker process running (and
    its non-daemon management machinery joining at interpreter exit), so the
    worker processes are killed first.  ``_processes`` is private executor
    state; guarded, because losing the kill only costs a leaked process for
    the life of the run, never correctness.
    """
    try:
        for process in list(getattr(pool, "_processes", {}).values()):
            process.kill()
    except Exception:  # pragma: no cover - racing executor teardown
        pass
    pool.shutdown(wait=False, cancel_futures=True)


def _timeout_result(
    item: tuple[int, Instance, float], solver: str, chunk_timeout: float
) -> BatchResult:
    """The error row for one item of a chunk that exceeded ``chunk_timeout``."""
    index, instance, _ = item
    return BatchResult(
        index=index,
        solver=solver,
        n_jobs=instance.n_jobs,
        value=float("nan"),
        energy=float("nan"),
        speeds=np.zeros(0),
        error_code=WorkerTimeoutError.code,
        error_message=(
            f"chunk containing instance {index} exceeded the per-chunk "
            f"timeout of {chunk_timeout:g}s; worker pool was recycled"
        ),
    )


def _stream_chunks(
    chunks: list[list[tuple[int, Instance, float]]],
    solver: str,
    power: PowerFunction,
    workers: int,
    verify: bool,
    cache: ResultCache | None,
    journal: _RunJournal | None,
    chunk_timeout: float | None,
    fault_plan: FaultPlan | None,
    batch_kernel: str,
) -> Iterator[BatchResult]:
    """The generator behind :func:`solve_stream` (validation already done)."""
    want_envelopes = cache is not None
    if verify:
        from .verify import verify as verify_fn

    def _request(item: tuple[int, Instance, float]) -> SolveRequest:
        index, instance, budget = item
        return SolveRequest(
            instance=instance, power=power, solver=solver, budget=budget
        )

    def _check_resolved(item, result: SolveResult, source: str) -> None:
        """verify=True covers results that skipped the solver, too: a cache
        hit or journal row may have been produced without verification (or
        tampered with on disk since)."""
        report = verify_fn(_request(item), result)
        if not report.ok:
            raise VerificationError(
                f"instance {item[0]}: verification failed for {source} result "
                f"of solver {solver!r}: {report.error_summary()}"
            )

    def _plan(chunk):
        """Split a chunk into already-resolved results and items to solve.

        Journal and cache reads happen here, in the parent process, so the
        LRU front is shared across the whole run and workers only ever see
        genuine misses.
        """
        resolved: dict[int, tuple[BatchResult, bool]] = {}
        missing: list[tuple[int, Instance, float]] = []
        for item in chunk:
            index, instance, budget = item
            if journal is not None and index in journal.completed:
                replay = journal.completed[index]
                if verify:
                    _check_resolved(
                        item,
                        SolveResult(
                            solver=solver, status="ok", value=replay.value,
                            energy=replay.energy, speeds=replay.speeds,
                        ),
                        "journal-replayed",
                    )
                resolved[index] = (replay, False)
                continue
            if cache is not None:
                hit = cache.get(_request(item))
                if hit is not None:
                    if verify:
                        _check_resolved(item, hit, "cached")
                    resolved[index] = (
                        BatchResult(
                            index=index,
                            solver=solver,
                            n_jobs=instance.n_jobs,
                            value=float(hit.value),
                            energy=float(hit.energy),
                            speeds=hit.speeds,
                        ),
                        True,
                    )
                    continue
            missing.append(item)
        return resolved, missing

    def _emit(chunk, resolved, solved):
        """Merge resolved and freshly-solved items back into input order."""
        solved_iter = iter(solved)
        for item in chunk:
            index, instance, _ = item
            if index in resolved:
                result, record = resolved[index]
            else:
                result, envelope = next(solved_iter)
                record = True
                if cache is not None and envelope is not None:
                    # write-behind: this point is only reached after the
                    # worker's verify (when enabled) passed
                    cache.put_envelope(_request(item), envelope)
            if record and result.ok and journal is not None:
                journal.record(result, name=instance.name)
            yield result

    def _emit_timed_out(chunk, resolved):
        """Input-order rows for a hung chunk: resolved items pass through,
        unsolved ones become ``worker-timeout`` error rows (not journalled,
        so a resumed run retries them)."""
        for item in chunk:
            index, instance, _ = item
            if index in resolved:
                result, record = resolved[index]
                if record and result.ok and journal is not None:
                    journal.record(result, name=instance.name)
                yield result
            else:
                yield _timeout_result(item, solver, chunk_timeout)

    try:
        if workers <= 1:
            for chunk in chunks:
                resolved, missing = _plan(chunk)
                solved = (
                    _solve_chunk(
                        (solver, power, missing, verify, want_envelopes,
                         fault_plan, batch_kernel)
                    )
                    if missing
                    else []
                )
                yield from _emit(chunk, resolved, solved)
            return
        max_workers = min(workers, len(chunks))
        # Bound the in-flight window: enough chunks to keep every worker fed
        # while the head of the line streams out, never the whole batch.
        window = max(2 * max_workers, 2)
        pool = ProcessPoolExecutor(max_workers=max_workers)
        # pending entries are mutable: [chunk, resolved, missing, future,
        # submitted_at] — pool recovery rewrites futures in place
        pending: deque = deque()

        def _submit(missing):
            if not missing:
                return None
            return pool.submit(
                _solve_chunk,
                (solver, power, missing, verify, want_envelopes, fault_plan,
                 batch_kernel),
            )

        def _drain_one():
            nonlocal pool
            chunk, resolved, missing, future, submitted_at = pending.popleft()
            if future is None:
                yield from _emit(chunk, resolved, [])
                return
            if chunk_timeout is None:
                yield from _emit(chunk, resolved, future.result())
                return
            # per-chunk budget runs from submission, not from this drain
            remaining = chunk_timeout - (time.monotonic() - submitted_at)
            try:
                solved = future.result(timeout=max(remaining, 0.05))
            except FuturesTimeoutError:
                # a hung worker cannot be interrupted: kill the whole pool,
                # rebuild it, and resubmit every other in-flight chunk (a
                # chunk that already finished keeps its completed result)
                _kill_pool(pool)
                pool = ProcessPoolExecutor(max_workers=max_workers)
                for entry in pending:
                    stale = entry[3]
                    if stale is None:
                        continue
                    if (
                        stale.done()
                        and not stale.cancelled()
                        and stale.exception() is None
                    ):
                        continue
                    entry[3] = _submit(entry[2])
                    entry[4] = time.monotonic()
                yield from _emit_timed_out(chunk, resolved)
                return
            yield from _emit(chunk, resolved, solved)

        try:
            for chunk in chunks:
                resolved, missing = _plan(chunk)
                pending.append(
                    [chunk, resolved, missing, _submit(missing), time.monotonic()]
                )
                while len(pending) >= window:
                    yield from _drain_one()
            while pending:
                yield from _drain_one()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    finally:
        if journal is not None:
            journal.close()


def solve_many(
    instances: Iterable[Instance],
    power: PowerFunction,
    budgets: float | Sequence[float] | np.ndarray,
    solver: str = "laptop",
    workers: int = 1,
    chunk_size: int | None = None,
    verify: bool = False,
    cache: ResultCache | None = None,
    run_dir: str | Path | None = None,
    chunk_timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
    batch_kernel: str = "auto",
) -> list[BatchResult]:
    """Solve many instances and return the full result list.

    A thin ``list()`` wrapper over :func:`solve_stream` — same parameters,
    same deterministic input-order results, byte-identical output; use the
    generator directly when the batch is large or results should be consumed
    as they complete.
    """
    return list(
        solve_stream(
            instances,
            power,
            budgets,
            solver=solver,
            workers=workers,
            chunk_size=chunk_size,
            verify=verify,
            cache=cache,
            run_dir=run_dir,
            chunk_timeout=chunk_timeout,
            fault_plan=fault_plan,
            batch_kernel=batch_kernel,
        )
    )
