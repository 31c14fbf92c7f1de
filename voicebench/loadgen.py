"""Closed-loop load generation inside the serving process.

Each client sends its next request only after the previous answer
arrived.  A client owns its own stream and its own sessions, so every
session's requests reach the service in one well-defined order.
Answers are kept raw during a slice and decoded and checked after it,
so client-side work does not dilute what the slice measures.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Iterator, Sequence

from repro.api import VoiceRequest

from voicebench.streams import Ask


Send = Callable[[Ask], Awaitable[Any]]


@dataclass
class Cursor:
    """A client: its endless stream, how much of it was sent, and its transport."""

    client: int
    stream: Iterator[Ask]
    send: Send
    taken: int = 0

    def take(self) -> Ask:
        self.taken += 1
        return next(self.stream)


@dataclass
class SliceResult:
    """What one closed-loop slice observed."""

    wall_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: (client, ask, raw answer or None when the request failed)
    answers: list[tuple[int, Ask, Any]] = field(default_factory=list)
    failed: int = 0

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def qps(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0


async def closed_loop(cursors: Sequence[Cursor], seconds: float,
                      keep_going: Callable[[], bool] = lambda: False,
                      before_send: Callable[[int, Ask], None] | None = None,
                      after_answer: Callable[[int, Ask, Any], None] | None = None
                      ) -> SliceResult:
    """Run one client per cursor for ``seconds`` (longer while ``keep_going()``).

    ``before_send``/``after_answer`` run outside each request's timed
    interval; the appends workload uses them to issue append batches
    and to note the snapshot version around every read.
    """
    result = SliceResult()
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    latencies = result.latencies
    answers = result.answers

    async def client(cursor: Cursor) -> None:
        index = cursor.client
        send = cursor.send
        while clock() < deadline or keep_going():
            ask = cursor.take()
            if before_send is not None:
                before_send(index, ask)
            sent = clock()
            try:
                answer = await send(ask)
            except Exception:
                result.failed += 1
                answers.append((index, ask, None))
                continue
            latencies.append(clock() - sent)
            answers.append((index, ask, answer))
            if after_answer is not None:
                after_answer(index, ask, answer)

    await asyncio.gather(*(client(cursor) for cursor in cursors))
    result.wall_seconds = clock() - started
    return result


def in_process_sender(client) -> Send:
    """Send through :class:`repro.api.InProcessClient`."""

    async def send(ask: Ask):
        return await client.ask(VoiceRequest(text=ask.text, session_id=ask.session_id))

    return send


def encode_http_ask(ask: Ask) -> bytes:
    """The complete HTTP/1.1 request for one ask (keep-alive, JSON envelope)."""
    body = json.dumps(VoiceRequest(text=ask.text, session_id=ask.session_id).to_dict())
    encoded = body.encode("utf-8")
    head = f"POST /v1/ask HTTP/1.1\r\nContent-Length: {len(encoded)}\r\n\r\n"
    return head.encode("ascii") + encoded


class RawHttpConnection:
    """A minimal fixed HTTP/1.1 client: one keep-alive connection, bytes in and out.

    Requests are encoded once per distinct ask; a response is returned
    as ``(status line, body bytes)`` and decoded only after the slice.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._encoded: dict[Ask, bytes] = {}

    @classmethod
    async def open(cls, host: str, port: int) -> "RawHttpConnection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def send(self, ask: Ask) -> tuple[bytes, bytes]:
        payload = self._encoded.get(ask)
        if payload is None:
            payload = self._encoded[ask] = encode_http_ask(ask)
        self._writer.write(payload)
        head = await self._reader.readuntil(b"\r\n\r\n")
        start = head.index(b"Content-Length: ") + 16
        length = int(head[start:head.index(b"\r\n", start)])
        body = await self._reader.readexactly(length)
        return head[:head.index(b"\r\n")], body

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


async def drain(cursors: Sequence[Cursor], per_client: int,
                on_answer: Callable[[int, Ask, Any], None]) -> None:
    """Send ``per_client`` requests from every cursor as fast as possible (warm-up).

    ``on_answer`` gets None for a request that failed.
    """

    async def client(cursor: Cursor) -> None:
        for _ in range(per_client):
            ask = cursor.take()
            try:
                answer = await cursor.send(ask)
            except Exception:
                answer = None
            on_answer(cursor.client, ask, answer)

    await asyncio.gather(*(client(cursor) for cursor in cursors))
