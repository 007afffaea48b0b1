"""`repro serve`: a long-running JSON-lines solve service.

The last mile between the solver matrix and a serving system: a request loop
that stays up, answers :class:`~repro.api.SolveRequest` envelopes and never
lets one bad request take the process down.  The protocol is JSON lines —
one request envelope (:func:`repro.io.request_to_dict` form, optionally
carrying a client-chosen ``"id"`` and a ``"deadline_ms"`` budget) per input
line, one response object per output line:

.. code-block:: json

    {"kind": "serve-response", "id": null,
     "result": {"kind": "solve-result", "...": "..."},
     "serve": {"cache": "hit", "latency_ms": 0.31}}

``result`` is the uniform :func:`repro.io.result_to_dict` envelope (errors
come back as structured error results with stable codes — a malformed or
unparseable line gets an ``invalid-instance`` error response, and the loop
keeps serving).  ``serve`` carries the per-request serving metadata: whether
the answer came from the content-addressed cache (``"hit"`` / ``"miss"`` /
``"off"``), the wall-clock latency (omitted when ``timing=False``, which
makes transcripts byte-reproducible), and — with verification enabled —
whether the result passed its certificate checks.

One loop, :class:`AsyncServeLoop`, serves the protocol over stdio
(:meth:`~AsyncServeLoop.run_stream`, any text-stream pair; the byte-pinned
path of ``tests/golden/serve_transcript.txt``) and over TCP
(:meth:`~AsyncServeLoop.serve_tcp`).  Besides answering requests it has
the robustness semantics a production tier needs:

- **deadlines** -- a request carrying ``deadline_ms`` (or the server
  default) that expires while queued or mid-solve is answered with a
  structured ``deadline-exceeded`` envelope, never a late result; a solve
  thread hung past the deadline is abandoned and replaced.
- **load shedding** -- admission is a bounded queue; beyond ``max_pending``
  in-flight requests, new ones are shed immediately with an ``overloaded``
  envelope whose ``serve.retry_after_ms`` is the server's backoff hint
  (EWMA service time × queue depth).
- **graceful drain** -- SIGTERM/SIGINT (or EOF, or a ``drain`` control
  request) stops accepting, finishes the in-flight work, flushes every
  pending response and exits cleanly; the CLI then prints one final stats
  line to stderr.
- **control requests** -- a line like ``{"op": "stats"}`` bypasses the
  solve queue and answers immediately with a ``serve-control`` envelope
  (``stats`` returns QPS, cache hit ratio, shed/deadline-miss counts and
  p50/p99 latency; ``ping`` answers trivially; ``drain`` initiates a
  graceful drain).
- **fault injection** -- an explicit :class:`repro.faults.FaultPlan`
  threads seeded chaos (worker exception/hang, slow solver, connection
  drop) through the loop for reproducible robustness tests
  (``tools/chaos_smoke.py`` runs a canned plan in CI).

Per-connection response order always matches request order (responses are
funnelled through one writer per connection, so concurrent clients never
see torn or reordered lines), while requests from all connections share one
admission queue, one solve pool and one cache — a hit can be served to a
different client than the one that paid for the miss.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import queue as _queue_mod
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Iterable, TextIO

# numpy's np.unique imports numpy.ma on its first call (~16 ms); a server
# pays that at start-up, not on the first request that reaches it.
import numpy.ma  # noqa: F401

from .api import REGISTRY, SolveRequest, SolveResult
from .api import solve as api_solve
from .api import verify as api_verify
from .cache import ResultCache
from .exceptions import (
    DeadlineExceededError,
    InvalidInstanceError,
    OverloadedError,
    ReproError,
)
from .faults import (
    CONNECTION_DROP,
    SOLVER_SLOW,
    WORKER_EXCEPTION,
    WORKER_HANG,
    FaultPlan,
    InjectedFault,
)
from .io import request_from_dict, serve_response_to_dict

__all__ = ["ServeStats", "AsyncServeLoop"]

#: Routing modes the serve loop understands.  ``off`` preserves the legacy
#: dispatch byte-for-byte; ``sla`` reroutes accuracy-carrying requests
#: through :meth:`repro.api.SolverRegistry.route` — exact when cheap,
#: certified-approximate under pressure.
ROUTING_MODES = ("off", "sla")

#: Admission-queue bound beyond which new solve requests are shed.
DEFAULT_MAX_PENDING = 64

#: Backoff hint handed out before any solve has completed (no EWMA yet).
_DEFAULT_RETRY_AFTER_MS = 50.0


@dataclass
class ServeStats:
    """Tally of one serve run (a stream to EOF, or a TCP server's lifetime)."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    cache_hits: int = 0
    verify_failures: int = 0
    shed: int = 0
    deadline_misses: int = 0
    routed: int = 0

    def summary(self) -> str:
        """One human-readable line (the CLI prints it to stderr on shutdown)."""
        parts = [f"{self.requests} request(s)", f"{self.cache_hits} cache hit(s)"]
        if self.errors:
            parts.append(f"{self.errors} error(s)")
        if self.verify_failures:
            parts.append(f"{self.verify_failures} verification failure(s)")
        if self.shed:
            parts.append(f"{self.shed} shed")
        if self.deadline_misses:
            parts.append(f"{self.deadline_misses} deadline miss(es)")
        if self.routed:
            parts.append(f"{self.routed} routed")
        return ", ".join(parts)


class _SolvePool:
    """Daemon-thread solve pool that survives hung solves.

    ``concurrent.futures.ThreadPoolExecutor`` is the obvious tool and the
    wrong one: its workers are non-daemon, so a single hung solve would
    block interpreter exit forever.  This pool's threads are daemons, and a
    worker abandoned past its deadline is *replaced* — capacity recovers
    while the hung thread is left to finish (or sleep) in the background.
    """

    def __init__(self, threads: int) -> None:
        self._work: _queue_mod.SimpleQueue = _queue_mod.SimpleQueue()
        self._threads = max(1, int(threads))
        for _ in range(self._threads):
            self._spawn()

    def _spawn(self) -> None:
        thread = threading.Thread(
            target=self._run, daemon=True, name="repro-serve-solve"
        )
        thread.start()

    def _run(self) -> None:
        while True:
            item = self._work.get()
            if item is None:
                return
            fn, loop, fut, token = item
            if token["abandoned"]:
                continue  # shed before it ever started; replacement already exists
            token["started"] = True
            try:
                value = fn()
            except BaseException as exc:  # delivered, not raised: daemon thread
                self._deliver(loop, fut, exc, None)
            else:
                self._deliver(loop, fut, None, value)
            if token["abandoned"]:
                return  # a replacement thread took this slot while we hung

    @staticmethod
    def _deliver(loop: asyncio.AbstractEventLoop, fut: asyncio.Future,
                 exc: BaseException | None, value: Any) -> None:
        def _set() -> None:
            if fut.done():
                return  # abandoned (cancelled by wait_for); drop the late answer
            if exc is not None:
                fut.set_exception(exc)
            else:
                fut.set_result(value)

        with contextlib.suppress(RuntimeError):  # loop already closed
            loop.call_soon_threadsafe(_set)

    def submit(
        self, loop: asyncio.AbstractEventLoop, fn: Callable[[], Any]
    ) -> tuple[asyncio.Future, dict[str, bool]]:
        """Queue ``fn``; returns ``(future, token)`` — pass the token to
        :meth:`abandon` if the future times out."""
        fut: asyncio.Future = loop.create_future()
        token = {"abandoned": False, "started": False}
        self._work.put((fn, loop, fut, token))
        return fut, token

    def abandon(self, token: dict[str, bool]) -> None:
        """Give up on a submitted job; replace its thread if it already ran."""
        token["abandoned"] = True
        if token["started"]:
            self._spawn()

    def shutdown(self) -> None:
        for _ in range(self._threads):
            self._work.put(None)


class _Pending:
    """One admitted solve request waiting in (or leaving) the queue."""

    __slots__ = ("data", "request_id", "arrival", "deadline", "deadline_ms", "future")

    def __init__(self, data: Any, request_id: Any, arrival: float,
                 deadline: float | None, deadline_ms: float | None,
                 future: asyncio.Future) -> None:
        self.data = data
        self.request_id = request_id
        self.arrival = arrival
        self.deadline = deadline
        self.deadline_ms = deadline_ms
        self.future = future


class AsyncServeLoop:
    """The hardened asyncio serve loop (see module docstring for semantics).

    One instance serves one run: :meth:`run_stream` for a text-stream pair
    (the CLI's stdio mode) or :meth:`serve_tcp` for a TCP listener; tests
    and benchmarks use :meth:`start_in_thread` / :meth:`stop` to host a TCP
    server on a background thread.  ``stats`` tallies across the run;
    :meth:`stats_snapshot` is the ``{"op": "stats"}`` payload.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        verify: bool = False,
        timing: bool = True,
        default_deadline_ms: float | None = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        solve_threads: int = 1,
        fault_plan: FaultPlan | None = None,
        routing: str = "off",
    ) -> None:
        if max_pending < 1:
            raise InvalidInstanceError(f"max_pending must be >= 1, got {max_pending}")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise InvalidInstanceError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        if routing not in ROUTING_MODES:
            raise InvalidInstanceError(
                f"routing must be one of {ROUTING_MODES}, got {routing!r}"
            )
        REGISTRY.names()  # import every solver module now, not on a first request
        self.routing = routing
        self.cache = cache
        self.verify = verify
        self.timing = timing
        self.default_deadline_ms = default_deadline_ms
        self.max_pending = int(max_pending)
        self.solve_threads = max(1, int(solve_threads))
        self.fault_plan = fault_plan
        self.stats = ServeStats()
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_event: asyncio.Event | None = None
        self._queue: asyncio.Queue | None = None
        self._pool: _SolvePool | None = None
        self._workers: list[asyncio.Task] = []
        self._latencies: deque = deque(maxlen=4096)
        self._started_at = 0.0
        self._ewma_service_s: float | None = None
        self._signals_installed: list[int] = []
        self._thread: threading.Thread | None = None
        self._thread_ready: threading.Event | None = None

    # -- lifecycle ------------------------------------------------------
    def _setup(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._drain_event = asyncio.Event()
        self._queue = asyncio.Queue()
        self._latencies = deque(maxlen=4096)
        self._started_at = time.monotonic()
        self._ewma_service_s = None
        self._pool = _SolvePool(self.solve_threads)
        self._workers = [
            asyncio.ensure_future(self._worker()) for _ in range(self.solve_threads)
        ]
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                continue  # not the main thread, or platform without signals
            self._signals_installed.append(sig)

    async def _teardown(self) -> None:
        assert self._queue is not None and self._pool is not None
        for _ in self._workers:
            self._queue.put_nowait(None)
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._pool.shutdown()
        if self._loop is not None:
            for sig in self._signals_installed:
                with contextlib.suppress(Exception):
                    self._loop.remove_signal_handler(sig)
        self._signals_installed = []

    def request_drain(self) -> None:
        """Begin a graceful drain; safe to call from any thread (or a signal)."""
        loop, event = self._loop, self._drain_event
        if loop is None or event is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(event.set)

    @property
    def draining(self) -> bool:
        return self._drain_event is not None and self._drain_event.is_set()

    # -- admission ------------------------------------------------------
    def _finish_immediate(
        self, result: SolveResult, request_id: Any,
        serve_meta: dict[str, Any], started: float,
    ) -> dict[str, Any]:
        if self.timing:
            serve_meta["latency_ms"] = round(
                (time.monotonic() - started) * 1e3, 3
            )
        self.stats.requests += 1
        if result.ok:
            self.stats.ok += 1
        else:
            self.stats.errors += 1
        return serve_response_to_dict(result, request_id, serve_meta)

    def _retry_after_ms(self) -> float:
        assert self._queue is not None
        ewma = self._ewma_service_s
        if ewma is None:
            return _DEFAULT_RETRY_AFTER_MS
        return max(1.0, round(ewma * (self._queue.qsize() + 1) * 1e3, 3))

    def _control_response(self, data: dict[str, Any], op: str) -> dict[str, Any]:
        response: dict[str, Any] = {
            "kind": "serve-control",
            "id": data.get("id"),
            "op": op,
        }
        if op == "stats":
            response["stats"] = self.stats_snapshot()
        elif op == "ping":
            response["ok"] = True
        elif op == "drain":
            self.request_drain()
            response["draining"] = True
        else:
            response["error"] = {
                "code": InvalidInstanceError.code,
                "message": f"unknown control op {op!r}; known ops: "
                           "['drain', 'ping', 'stats']",
            }
        return response

    def _admit(self, line: str) -> asyncio.Future:
        """One request line in, one future of a response object out.

        Control requests, malformed input and shed requests resolve
        immediately; everything else joins the bounded admission queue.
        """
        assert self._loop is not None and self._queue is not None
        arrival = time.monotonic()
        fut: asyncio.Future = self._loop.create_future()
        cache_state = "off" if self.cache is None else "miss"

        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            result = SolveResult.failure(
                "<request>",
                InvalidInstanceError(f"unparseable request line: {exc}"),
            )
            fut.set_result(
                self._finish_immediate(result, None, {"cache": cache_state}, arrival)
            )
            return fut

        if isinstance(data, dict) and isinstance(data.get("op"), str):
            fut.set_result(self._control_response(data, data["op"]))
            return fut

        request_id = data.get("id") if isinstance(data, dict) else None

        if self.draining or self._queue.qsize() >= self.max_pending:
            reason = (
                "server is draining"
                if self.draining
                else f"admission queue full ({self.max_pending} pending)"
            )
            retry_after = self._retry_after_ms()
            result = SolveResult.failure(
                "<serve>", OverloadedError(
                    f"request shed: {reason}; retry after {retry_after:g} ms",
                    retry_after_ms=retry_after,
                )
            )
            self.stats.shed += 1
            meta = {"cache": cache_state, "retry_after_ms": retry_after}
            fut.set_result(
                self._finish_immediate(result, request_id, meta, arrival)
            )
            return fut

        deadline_ms = self.default_deadline_ms
        if isinstance(data, dict) and data.get("deadline_ms") is not None:
            raw = data["deadline_ms"]
            if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw <= 0:
                result = SolveResult.failure(
                    "<request>", InvalidInstanceError(
                        f"deadline_ms must be a positive number, got {raw!r}"
                    )
                )
                fut.set_result(
                    self._finish_immediate(
                        result, request_id, {"cache": cache_state}, arrival
                    )
                )
                return fut
            deadline_ms = float(raw)

        deadline = None if deadline_ms is None else arrival + deadline_ms / 1e3
        self._queue.put_nowait(
            _Pending(data, request_id, arrival, deadline, deadline_ms, fut)
        )
        return fut

    # -- processing -----------------------------------------------------
    def _solve_job(self, request: Any) -> SolveResult:
        """Runs on a pool thread: fault injection wrapped around the solve."""
        plan = self.fault_plan
        if plan is not None:
            rule = plan.fire(WORKER_HANG)
            if rule is not None:
                plan.sleep(rule)
            rule = plan.fire(SOLVER_SLOW)
            if rule is not None:
                plan.sleep(rule)
            rule = plan.fire(WORKER_EXCEPTION)
            if rule is not None:
                raise InjectedFault(rule.message or "injected worker exception")
        return api_solve(request)

    def _deadline_result(self, pending: _Pending, where: str) -> SolveResult:
        self.stats.deadline_misses += 1
        return SolveResult.failure(
            "<serve>", DeadlineExceededError(
                f"deadline of {pending.deadline_ms:g} ms expired {where}"
            )
        )

    def _effective_budget_ms(self, request: SolveRequest, pending: _Pending) -> float | None:
        """The latency the router may spend on this request, load-adjusted.

        Starts from the tighter of the request's own ``latency_budget_ms``
        and the remaining serve deadline, then subtracts the queue pressure
        ahead of us (EWMA service time × queue depth) — the signal that
        makes the router shed to certified-approximate solvers under load.
        """
        assert self._queue is not None
        budget = request.latency_budget_ms
        if pending.deadline is not None:
            remaining = max(0.0, (pending.deadline - time.monotonic()) * 1e3)
            budget = remaining if budget is None else min(budget, remaining)
        ewma = self._ewma_service_s
        if budget is not None and ewma is not None:
            budget = max(0.0, budget - ewma * 1e3 * self._queue.qsize())
        return budget

    async def _process(self, pending: _Pending) -> dict[str, Any]:
        assert self._loop is not None and self._pool is not None
        cache = self.cache
        cache_state = "off" if cache is None else "miss"
        serve_meta: dict[str, Any] = {"cache": cache_state}
        request = None
        decision = None
        now = time.monotonic()

        if pending.deadline is not None and now >= pending.deadline:
            result = self._deadline_result(pending, "while queued")
        else:
            try:
                request = request_from_dict(pending.data)
            except ReproError as exc:
                result = SolveResult.failure("<request>", exc)
            else:
                if self.routing == "sla" and request.accuracy is not None:
                    decision = REGISTRY.route(
                        request,
                        latency_budget_ms=self._effective_budget_ms(request, pending),
                    )
                    if decision.solver != request.solver:
                        # only the solver changes: the accuracy/latency
                        # expectations survive into verification, and the
                        # cache key names the solver that answered
                        request = dataclasses.replace(request, solver=decision.solver)
                        self.stats.routed += 1
                hit = cache.get(request) if cache is not None else None
                if hit is not None:
                    cache_state = "hit"
                    serve_meta["cache"] = "hit"
                    result = hit
                else:
                    solve_fut, token = self._pool.submit(
                        self._loop, lambda: self._solve_job(request)
                    )
                    timeout = (
                        None
                        if pending.deadline is None
                        else max(pending.deadline - time.monotonic(), 0.001)
                    )
                    solve_started = time.monotonic()
                    try:
                        result = await asyncio.wait_for(solve_fut, timeout)
                    except asyncio.TimeoutError:
                        self._pool.abandon(token)
                        result = self._deadline_result(
                            pending, "mid-solve; worker abandoned"
                        )
                    except ReproError as exc:
                        result = SolveResult.failure(
                            request.solver or "<serve>", exc
                        )
                    except Exception as exc:  # foreign crash -> "internal"
                        result = SolveResult.failure(
                            request.solver or "<serve>", exc
                        )
                    else:
                        elapsed = time.monotonic() - solve_started
                        prev = self._ewma_service_s
                        self._ewma_service_s = (
                            elapsed if prev is None else 0.2 * elapsed + 0.8 * prev
                        )

        if decision is not None:
            serve_meta["routed_solver"] = decision.solver
        if result.ok and result.approximation is not None:
            serve_meta["epsilon"] = result.approximation.get("epsilon")
            certificate = result.approximation.get("certificate")
            if certificate is not None:
                serve_meta["certificate"] = certificate
        if self.verify and request is not None and result.ok:
            report = api_verify(request, result)
            serve_meta["verified"] = report.ok
            if not report.ok:
                serve_meta["findings"] = list(report.codes())
                self.stats.verify_failures += 1
        if (
            cache is not None
            and cache_state == "miss"
            and request is not None
            and result.ok
            and serve_meta.get("verified", True)
        ):
            cache.put(request, result)

        latency_ms = (time.monotonic() - pending.arrival) * 1e3
        self._latencies.append(latency_ms)
        if self.timing:
            serve_meta["latency_ms"] = round(latency_ms, 3)

        self.stats.requests += 1
        if result.ok:
            self.stats.ok += 1
        else:
            self.stats.errors += 1
        if cache_state == "hit":
            self.stats.cache_hits += 1
        return serve_response_to_dict(result, pending.request_id, serve_meta)

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            pending = await self._queue.get()
            if pending is None:
                return
            try:
                response = await self._process(pending)
            except Exception as exc:  # keep the worker alive, whatever happened
                response = serve_response_to_dict(
                    SolveResult.failure("<serve>", exc),
                    pending.request_id,
                    {"cache": "off" if self.cache is None else "miss"},
                )
                self.stats.requests += 1
                self.stats.errors += 1
            if not pending.future.done():
                pending.future.set_result(response)

    # -- stats ----------------------------------------------------------
    def stats_snapshot(self) -> dict[str, Any]:
        """The ``{"op": "stats"}`` payload: counters plus derived rates.

        Timing-derived fields (uptime, QPS, latency percentiles) are
        omitted when ``timing=False`` so transcripts stay reproducible.
        """
        s = self.stats
        snap: dict[str, Any] = {
            "requests": s.requests,
            "ok": s.ok,
            "errors": s.errors,
            "cache_hits": s.cache_hits,
            "cache_hit_ratio": (
                round(s.cache_hits / s.requests, 4) if s.requests else None
            ),
            "verify_failures": s.verify_failures,
            "shed": s.shed,
            "deadline_misses": s.deadline_misses,
            "pending": self._queue.qsize() if self._queue is not None else 0,
            "max_pending": self.max_pending,
            "draining": self.draining,
        }
        if self.routing == "sla":
            # only in sla mode: legacy snapshots stay byte-stable
            snap["routed"] = s.routed
        if self.timing:
            uptime = time.monotonic() - self._started_at
            snap["uptime_s"] = round(uptime, 3)
            snap["qps"] = round(s.requests / uptime, 3) if uptime > 0 else None
            latencies = sorted(self._latencies)
            if latencies:
                snap["latency_ms"] = {
                    "n": len(latencies),
                    "p50": round(_percentile(latencies, 0.50), 3),
                    "p99": round(_percentile(latencies, 0.99), 3),
                }
        return snap

    # -- connection plumbing --------------------------------------------
    async def _race_drain(self, awaitable: Awaitable[Any]) -> Any | None:
        """Await ``awaitable`` unless the drain begins first (then ``None``)."""
        assert self._drain_event is not None
        read_task = asyncio.ensure_future(awaitable)
        drain_task = asyncio.ensure_future(self._drain_event.wait())
        done, _ = await asyncio.wait(
            {read_task, drain_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if read_task in done:
            drain_task.cancel()
            return read_task.result()
        read_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await read_task
        return None

    async def _conn_loop(
        self,
        read_line: Callable[[], Awaitable[str | None]],
        write_message: Callable[[dict[str, Any]], Awaitable[None]],
        abort: Callable[[], None] | None = None,
    ) -> None:
        """One connection: read lines, admit, write responses in FIFO order."""
        responses: asyncio.Queue = asyncio.Queue()

        async def writer() -> None:
            while True:
                fut = await responses.get()
                if fut is None:
                    return
                response = await fut
                if self.fault_plan is not None:
                    rule = self.fault_plan.fire(CONNECTION_DROP)
                    if rule is not None:
                        if abort is not None:
                            abort()
                        return  # drop the connection mid-response stream
                try:
                    await write_message(response)
                except (BrokenPipeError, ConnectionResetError, OSError):
                    return  # client went away; keep serving everyone else

        writer_task = asyncio.ensure_future(writer())
        try:
            while True:
                line = await self._race_drain(read_line())
                if line is None:
                    break
                if not line.strip():
                    continue
                responses.put_nowait(self._admit(line))
        finally:
            responses.put_nowait(None)
            await writer_task

    # -- transports -----------------------------------------------------
    async def run_stream(
        self,
        in_stream: Iterable[str] | TextIO,
        out_stream: TextIO,
    ) -> ServeStats:
        """Serve a text-stream pair (the CLI's stdio mode) until EOF or drain."""
        self._setup()
        assert self._loop is not None
        loop = self._loop
        lines: asyncio.Queue = asyncio.Queue()

        def pump() -> None:
            try:
                for line in in_stream:
                    loop.call_soon_threadsafe(lines.put_nowait, line)
            except (ValueError, OSError):
                pass  # stream closed under us during drain
            finally:
                with contextlib.suppress(RuntimeError):
                    loop.call_soon_threadsafe(lines.put_nowait, None)

        # a daemon reader thread: stdin has no async interface, and a daemon
        # blocked in readline() cannot hold up interpreter exit after drain
        threading.Thread(target=pump, daemon=True, name="repro-serve-stdin").start()

        async def write_message(payload: dict[str, Any]) -> None:
            out_stream.write(json.dumps(payload) + "\n")
            out_stream.flush()

        try:
            await self._conn_loop(lines.get, write_message)
        finally:
            await self._teardown()
        return self.stats

    async def serve_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ready: threading.Event | None = None,
    ) -> ServeStats:
        """Serve TCP connections until drained (SIGTERM, ``drain`` op, or
        :meth:`request_drain`).  ``port=0`` binds an ephemeral port; the
        bound address is published on ``self.address`` (and ``ready``, when
        given, is set once the listener is up).
        """
        self._setup()
        assert self._drain_event is not None
        conn_tasks: set[asyncio.Task] = set()

        async def handle(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            task = asyncio.current_task()
            if task is not None:
                conn_tasks.add(task)
                task.add_done_callback(conn_tasks.discard)

            async def read_line() -> str | None:
                raw = await reader.readline()
                if not raw:
                    return None
                return raw.decode("utf-8", errors="replace")

            async def write_message(payload: dict[str, Any]) -> None:
                writer.write((json.dumps(payload) + "\n").encode("utf-8"))
                await writer.drain()

            def abort() -> None:
                transport = writer.transport
                if transport is not None:
                    transport.abort()

            try:
                await self._conn_loop(read_line, write_message, abort)
            finally:
                with contextlib.suppress(Exception):
                    writer.close()

        server = await asyncio.start_server(handle, host, port)
        sockname = server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        if ready is not None:
            ready.set()
        try:
            await self._drain_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            if conn_tasks:
                await asyncio.gather(*conn_tasks, return_exceptions=True)
            await self._teardown()
        return self.stats

    # -- background-thread hosting (tests, benchmarks) ------------------
    def start_in_thread(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float = 10.0
    ) -> tuple[str, int]:
        """Host :meth:`serve_tcp` on a daemon thread; returns the bound address."""
        if self._thread is not None:
            raise RuntimeError("serve loop already started")
        ready = threading.Event()
        self._thread_ready = ready

        def run() -> None:
            asyncio.run(self.serve_tcp(host, port, ready=ready))

        self._thread = threading.Thread(
            target=run, daemon=True, name="repro-serve-loop"
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("serve loop failed to start listening")
        assert self.address is not None
        return self.address

    def stop(self, timeout: float = 10.0) -> ServeStats:
        """Drain a :meth:`start_in_thread` server and join its thread."""
        if self._thread is None:
            raise RuntimeError("serve loop was not started with start_in_thread()")
        self.request_drain()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("serve loop did not drain within timeout")
        self._thread = None
        return self.stats


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[int(index)]
