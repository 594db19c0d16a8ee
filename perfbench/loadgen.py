"""Open-loop load: Poisson arrival schedules and a pipelined HTTP client.

Requests are issued when they are due whatever the state of earlier ones,
and every latency is measured from the due time, so a stall in the server
(or in the generator) is charged to every request it delays.
"""

from __future__ import annotations

import asyncio
import collections
from typing import Any, Callable, List, Sequence

import numpy as np


def poisson_arrivals(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Due offsets (s, ascending) of a Poisson process of ``rate`` over ``duration``."""
    expected = int(rate * duration)
    gaps = rng.exponential(1.0 / rate, expected + 8 * int(expected**0.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < duration]


async def open_loop(
    offsets: Sequence[float], issue: Callable[[int, float], Any]
) -> List[float]:
    """Call ``issue(i, due)`` for each request at its due loop time.

    ``issue`` must not block; it starts the request and returns.  Returns
    how late (ms) each request was issued.
    """
    loop = asyncio.get_running_loop()
    t0 = loop.time() + 0.005
    late = []
    i, n = 0, len(offsets)
    while i < n:
        now = loop.time()
        due = t0 + offsets[i]
        if due > now:
            await asyncio.sleep(due - now)
            now = loop.time()
        while i < n:
            due = t0 + offsets[i]
            if due > now:
                break
            issue(i, due)
            late.append((now - due) * 1e3)
            i += 1
    return late


class Reply:
    """One answered HTTP request."""

    __slots__ = ("tag", "due", "sent", "done", "status", "body")

    def __init__(self, tag: Any, due: float, sent: float) -> None:
        self.tag = tag
        self.due = due
        self.sent = sent
        self.done = 0.0
        self.status = 0
        self.body = b""


class PipelinedConnection:
    """One keep-alive HTTP/1.1 connection with requests pipelined on it.

    Requests are written as soon as they are issued; responses arrive in
    order and are matched to the oldest outstanding request.  Bodies are
    kept raw and decoded after the measurement.
    """

    def __init__(self, reader, writer, on_reply: Callable[[Reply], None]) -> None:
        self._reader = reader
        self._writer = writer
        self._on_reply = on_reply
        self.outstanding: collections.deque = collections.deque()
        self._task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, port: int, on_reply: Callable[[Reply], None]):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, on_reply)

    def send(self, request: bytes, tag: Any, due: float) -> None:
        loop_time = asyncio.get_running_loop().time()
        self.outstanding.append(Reply(tag, due, loop_time))
        self._writer.write(request)

    async def _read_loop(self) -> None:
        reader = self._reader
        loop = asyncio.get_running_loop()
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head[9:12])
            start = head.find(b"Content-Length:")
            if start < 0:
                start = head.lower().find(b"content-length:")
            end = head.find(b"\r\n", start)
            length = int(head[start + 15:end])
            body = await reader.readexactly(length) if length else b""
            reply = self.outstanding.popleft()
            reply.done = loop.time()
            reply.status = status
            reply.body = body
            self._on_reply(reply)

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, asyncio.IncompleteReadError, ConnectionError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


class ConnectionPool:
    """A fixed set of pipelined connections; each request goes to the one
    with the fewest outstanding requests."""

    def __init__(self, connections: List[PipelinedConnection]) -> None:
        self.connections = connections

    @classmethod
    async def open(cls, port: int, count: int, on_reply: Callable[[Reply], None]):
        return cls([await PipelinedConnection.open(port, on_reply) for _ in range(count)])

    def send(self, request: bytes, tag: Any, due: float) -> None:
        best = min(self.connections, key=lambda conn: len(conn.outstanding))
        best.send(request, tag, due)

    def outstanding(self) -> int:
        return sum(len(conn.outstanding) for conn in self.connections)

    async def drain(self, timeout_s: float) -> bool:
        """Wait until every request is answered; False on timeout."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while self.outstanding():
            if loop.time() > deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    async def close(self) -> None:
        for conn in self.connections:
            await conn.close()


def http_request(path: str, body: bytes, content_type: str) -> bytes:
    """A complete HTTP/1.1 POST with a binary body."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        f"Accept: {content_type}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body
