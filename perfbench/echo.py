"""Bare transport: the reference the service's timings are divided by.

A stand-alone asyncio server with the daemon's shape and none of its
work.  Each connection gets a queue and a worker task; the worker hands
every EVENTS frame to a thread-pool executor that does nothing, then
sends an ACK.  Clients stream the same frames, closed loop, that the
benchmark streams to ``repro-race serve``.  It uses only the standard
library, so it stays the same while the program changes.

    python3 perfbench/echo.py        # prints "listening on HOST:PORT"
"""

from __future__ import annotations

import asyncio
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List

HEADER = struct.Struct("<BI")
EVENTS = 0x02
ACK = 0x11
_ACK_FRAME = HEADER.pack(ACK, 16) + bytes(16)


def _nothing() -> None:
    return None


class _Conn(asyncio.Protocol):
    def __init__(self, pool):
        self.pool = pool
        self.buf = bytearray()
        self.queue: asyncio.Queue = asyncio.Queue()
        self.transport = None
        self.worker = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.transport.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        self.worker = asyncio.get_running_loop().create_task(self._work())

    def data_received(self, data: bytes) -> None:
        self.buf += data
        while len(self.buf) >= HEADER.size:
            ftype, size = HEADER.unpack_from(self.buf)
            if len(self.buf) < HEADER.size + size:
                return
            del self.buf[:HEADER.size + size]
            if ftype == EVENTS:
                self.queue.put_nowait(size)

    def connection_lost(self, exc) -> None:
        if self.worker is not None:
            self.worker.cancel()

    async def _work(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self.queue.get()
            await loop.run_in_executor(self.pool, _nothing)
            self.transport.write(_ACK_FRAME)


async def _serve() -> None:
    pool = ThreadPoolExecutor(max_workers=2)
    loop = asyncio.get_running_loop()
    server = await loop.create_server(lambda: _Conn(pool), "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"listening on {host}:{port}", flush=True)
    async with server:
        await server.serve_forever()


class _Client:
    """One closed-loop connection: send a frame, wait for its ACK."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.latencies: List[float] = []
        self.error = None

    def stream(self, frames: List[bytes]) -> None:
        try:
            for frame in frames:
                t0 = time.perf_counter()
                self.sock.sendall(frame)
                got = b""
                while len(got) < len(_ACK_FRAME):
                    chunk = self.sock.recv(len(_ACK_FRAME) - len(got))
                    if not chunk:
                        raise ConnectionError("echo server closed")
                    got += chunk
                self.latencies.append(time.perf_counter() - t0)
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller
            self.error = exc
        finally:
            self.sock.close()


def frames_for(n_events: int, batch: int) -> List[bytes]:
    """EVENTS frames as long as a stream of ``n_events`` in ``batch``es
    (40-byte rows plus the 16-byte seal, like the sealed wire)."""
    out = []
    for start in range(0, n_events, batch):
        size = 40 * min(batch, n_events - start) + 16
        out.append(HEADER.pack(EVENTS, size) + bytes(size))
    return out


def stream_pair(address, frames: List[List[bytes]]):
    """Two connections stream at once, one thread each; returns
    (wall seconds from first send to last ACK, latencies)."""
    clients = [_Client(address) for _ in frames]
    threads = [
        threading.Thread(target=c.stream, args=(f,), daemon=True)
        for c, f in zip(clients, frames)
    ]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    wall = time.perf_counter() - t0
    for c in clients:
        if c.error is not None:
            raise c.error
    return wall, [x for c in clients for x in c.latencies]


if __name__ == "__main__":
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        sys.exit(0)
