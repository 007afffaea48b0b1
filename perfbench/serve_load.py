"""Load generation for the serve-mix workload: one asyncio loop, two connections.

Two servers take part.  Server A gets the open loop: requests sent at a fixed
rate on one persistent, pipelined connection, each latency counted from the
request's *scheduled* send time, so a stall also charges the requests queued
behind it; a second connection sends ``{"op": "ping"}`` probes one at a time.
Server B gets the closed loop: a fixed window of requests in flight on one
connection, completions per second measuring capacity.

The phases are cut into windows that take turns -- closed burst, open
windows, closed burst, ... -- so both phases sample the whole run rather than
one stretch of a shared, unevenly loaded machine.  No more than two connections
are open at any time: B's connection exists only during a burst, and A's ping
connection only during an open window.

Responses come back in request order on a connection, so the ``i``-th line
read answers the ``i``-th line sent.  Raw response lines are kept and parsed
after the run, off the timed path.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Sequence

PING = b'{"op": "ping"}\n'
STATS = b'{"op": "stats"}\n'


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, address: tuple[str, int]) -> "Connection":
        return cls(*await asyncio.open_connection(*address))

    async def roundtrip(self, line: bytes) -> bytes:
        self.writer.write(line)
        await self.writer.drain()
        return await self.reader.readline()

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _open_window(conn: Connection, ping_address: tuple[str, int],
                       lines: Sequence[bytes], rate: float,
                       ping_period: float) -> dict[str, Any]:
    loop = asyncio.get_running_loop()
    pinger_conn = await Connection.open(ping_address)
    n = len(lines)
    scheduled = [0.0] * n
    sent = [0.0] * n
    received = [0.0] * n
    raw: list[bytes] = [b""] * n
    pings: list[float] = []
    finished = asyncio.Event()
    start = loop.time() + 0.01

    async def sender() -> None:
        for i, line in enumerate(lines):
            scheduled[i] = start + i / rate
            delay = scheduled[i] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            conn.writer.write(line)
            sent[i] = loop.time()
            if conn.writer.transport.get_write_buffer_size() > 1 << 16:
                await conn.writer.drain()

    async def receiver() -> None:
        try:
            for i in range(n):
                raw[i] = await conn.reader.readline()
                received[i] = loop.time()
                if not raw[i]:
                    return  # the server dropped the connection
        finally:
            finished.set()

    async def pinger() -> None:
        next_at = start
        while not finished.is_set():
            begun = loop.time()
            if not await pinger_conn.roundtrip(PING):
                return
            pings.append(loop.time() - begun)
            next_at = max(next_at + ping_period, loop.time())
            await asyncio.sleep(next_at - loop.time())

    try:
        await asyncio.gather(sender(), receiver(), pinger())
    finally:
        await pinger_conn.close()
    return {
        "raw": raw,
        "latency_s": [r - s for r, s in zip(received, scheduled)],
        "lag_s": [s - d for s, d in zip(sent, scheduled)],
        "ping_s": pings,
    }


async def _closed_burst(address: tuple[str, int], lines: Sequence[bytes],
                        window: int, duration: float) -> dict[str, Any]:
    loop = asyncio.get_running_loop()
    conn = await Connection.open(address)
    raw: list[bytes] = []
    start = loop.time()
    end = start + duration
    completed = 0
    sent = 0
    try:
        for line in lines[:window]:
            conn.writer.write(line)
            sent += 1
        while len(raw) < sent:
            line = await conn.reader.readline()
            now = loop.time()
            raw.append(line)
            if not line:
                break  # the server dropped the connection
            if now < end:
                completed += 1
                if sent < len(lines):
                    conn.writer.write(lines[sent])
                    sent += 1
    finally:
        await conn.close()
    return {"raw": raw, "sent": sent, "rate_per_s": completed / duration}


async def drive(open_address: tuple[str, int], closed_address: tuple[str, int],
                open_warm: Sequence[bytes], open_windows: Sequence[Sequence[bytes]],
                closed_warm: Sequence[bytes], closed_lines: Sequence[bytes],
                rate: float, ping_period: float, window: int,
                burst_s: float, burst_every: int) -> dict[str, Any]:
    """Warm both servers, then run the open windows with a closed burst
    before every ``burst_every``-th window and after the last."""
    closed = await Connection.open(closed_address)
    closed_warm_raw = [await closed.roundtrip(line) for line in closed_warm]
    await closed.close()
    conn = await Connection.open(open_address)
    open_warm_raw = [await conn.roundtrip(line) for line in open_warm]

    opened: list[dict[str, Any]] = []
    bursts: list[dict[str, Any]] = []
    position = 0
    for k in range(len(open_windows) + 1):
        if k % burst_every == 0 or k == len(open_windows):
            burst = await _closed_burst(closed_address, closed_lines[position:], window,
                                        burst_s)
            position += burst["sent"]
            bursts.append(burst)
        if k < len(open_windows):
            opened.append(await _open_window(conn, open_address, open_windows[k], rate,
                                             ping_period))
    open_stats = await conn.roundtrip(STATS)
    await conn.close()
    closed = await Connection.open(closed_address)
    closed_stats = await closed.roundtrip(STATS)
    await closed.close()
    return {
        "open_warm": open_warm_raw, "open": opened, "open_stats": open_stats,
        "closed_warm": closed_warm_raw, "bursts": bursts, "closed_sent": position,
        "closed_exhausted": position == len(closed_lines), "closed_stats": closed_stats,
    }


def run(coroutine, timeout: float) -> dict[str, Any]:
    async def bounded() -> dict[str, Any]:
        return await asyncio.wait_for(coroutine, timeout)

    return asyncio.run(bounded())


def parse(raw: bytes) -> dict[str, Any] | None:
    try:
        return json.loads(raw) if raw else None
    except json.JSONDecodeError:
        return None
