"""Open-loop HTTP load over a fixed number of keep-alive connections.

One asyncio loop in one thread.  Every request has a *due* time; the
sender writes it on its connection at that time whether or not earlier
requests have been answered (HTTP/1.1 pipelining), so a stalled server
delays the requests queued behind the stall and their latency, timed
from the due time, shows it.  How late the sender itself ran is kept
per request (``sent - due``).
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "Op",
    "Connection",
    "open_connections",
    "send_on_schedule",
    "wait_answered",
    "predict_fleet",
]

_RID_HEADER = b"x-repro-request-id"


@dataclass
class Op:
    """One request and, once answered, its outcome."""

    kind: str  # "read", "ingest", "probe"; "setup" / "final": whole-fleet checks
    phase: int
    due: float
    payload: bytes
    conn: int
    vehicles: tuple[str, ...] = ()
    days: dict[str, int] | None = None  # ingest: day index per vehicle
    sent: float | None = None
    done: float | None = None
    status: int = 0
    body: bytes = b""
    request_id: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.done is not None and 200 <= self.status < 300


def get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()


def post(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


@dataclass
class Connection:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    outstanding: deque = field(default_factory=deque)
    task: asyncio.Task | None = None
    broken: str | None = None

    def send(self, op: Op) -> None:
        op.sent = time.perf_counter()
        if self.broken is not None:
            op.error = self.broken
            op.done = None
            return
        self.outstanding.append(op)
        self.writer.write(op.payload)

    async def _read_responses(self) -> None:
        reader = self.reader
        try:
            while True:
                line = await reader.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                status = int(line.split(None, 2)[1])
                length = 0
                rid = None
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.partition(b":")
                    name = name.strip().lower()
                    if name == b"content-length":
                        length = int(value)
                    elif name == _RID_HEADER:
                        rid = value.strip().decode()
                body = await reader.readexactly(length) if length else b""
                op = self.outstanding.popleft()
                op.done = time.perf_counter()
                op.status = status
                op.body = body
                op.request_id = rid
        except (ConnectionError, asyncio.IncompleteReadError, ValueError, IndexError) as exc:
            self.broken = f"{type(exc).__name__}: {exc}"
            while self.outstanding:
                self.outstanding.popleft().error = self.broken

    def close(self) -> None:
        if self.task is not None:
            self.task.cancel()
        self.writer.close()


async def open_connections(port: int, n: int) -> list[Connection]:
    conns = []
    for _ in range(n):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        conn = Connection(reader, writer)
        conn.task = asyncio.get_running_loop().create_task(conn._read_responses())
        conns.append(conn)
    return conns


async def send_on_schedule(ops: list[Op], conns: list[Connection]) -> None:
    """Send ``ops`` (sorted by due time) at their due times.

    ``op.conn`` is a connection index, or ``-1`` for whichever of the
    connections has the fewest requests outstanding.
    """
    for op in ops:
        delay = op.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if op.conn < 0:
            op.conn = min(range(len(conns)), key=lambda i: len(conns[i].outstanding))
        conns[op.conn].send(op)


async def wait_answered(conns: list[Connection], timeout: float) -> bool:
    """Wait until no request is outstanding; False on timeout."""
    deadline = time.perf_counter() + timeout
    while any(c.outstanding for c in conns):
        if time.perf_counter() > deadline:
            return False
        await asyncio.sleep(0.005)
    return True


#: Vehicles per whole-fleet ``predict:batch`` request: the CLI's batch
#: cap, well inside the gateway's 256-deep request queue.
FLEET_CHUNK = 64


async def predict_fleet(port: int, vehicle_ids: list[str], kind: str, timeout: float) -> list[Op]:
    """Forecast the whole fleet: ``predict:batch`` requests of at most
    ``FLEET_CHUNK`` vehicles, pipelined on one fresh connection.
    Returns when every request is answered, or on ``timeout``."""
    conn = (await open_connections(port, 1))[0]
    ops = []
    for k in range(0, len(vehicle_ids), FLEET_CHUNK):
        chunk = tuple(vehicle_ids[k : k + FLEET_CHUNK])
        body = json.dumps({"vehicle_ids": chunk}).encode()
        ops.append(Op(kind, -1, time.perf_counter(), post("/v1/predict:batch", body), 0, chunk))
        conn.send(ops[-1])
    deadline = time.perf_counter() + timeout
    try:
        while any(op.done is None and op.error is None for op in ops):
            if time.perf_counter() > deadline:
                for op in ops:
                    op.error = op.error or "timed out"
                break
            await asyncio.sleep(0.002)
    finally:
        conn.close()
    return ops
