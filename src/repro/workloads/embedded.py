"""Embedded-system scenarios (the paper's motivating domain).

The paper opens with embedded applications: "constructed with multiple
threads to handle concurrent events … it is easy to misuse
synchronization operations".  These scenarios model three canonical
embedded shapes — beyond the PARSEC-style compute benchmarks — each
with the fine-grained C-style data layout that motivates byte-level
detection:

* :func:`sensor_fusion` — an ISR-style sampler thread writes packed
  12-byte sensor records into a ring buffer; a fusion task drains it
  under a mutex; a telemetry task peeks at the *fill level* without
  the lock (the seeded race — the classic "reading an index is atomic
  anyway" embedded bug).
* :func:`packet_router` — RX/TX threads pass fixed-size packet buffers
  from a preallocated pool through priority queues; one header flags
  byte is updated lock-free (bit-twiddling on a shared status byte —
  byte-granularity detection's home turf).
* :func:`logger_daemon` — worker tasks format log records into
  per-task scratch, then append to a shared ring under a lock; the
  sequence counter is incremented outside it.

Scenarios are registered separately from the paper's 11 benchmarks so
the reproduction tables stay faithful; access them with
:func:`embedded_scenarios`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.runtime.program import Program, SyncNamespace, ops
from repro.workloads.base import Region, Workload, array_init

RECORD = 12       # packed sensor record: timestamp(4) + 3x axis(2) + pad
RING_SLOTS = 16
PACKET = 64


def sensor_fusion(scale: float = 1.0, seed: int = 0) -> Program:
    """Sampler ISR -> ring buffer -> fusion task, plus a racy gauge."""
    region = Region()
    ns = SyncNamespace()
    ring = region.take(RING_SLOTS * RECORD)
    fill_level = region.take(4)     # the racy gauge
    fused = region.take(24)         # fusion output vector
    ring_lock = ns.lock()
    samples_sem = ns.semaphore()
    slots_sem = ns.semaphore()
    n_samples = max(8, int(48 * scale))

    def sampler():
        # ISR-ish: writes a whole packed record, bumps the fill level.
        for i in range(n_samples):
            yield ops.sem_p(slots_sem)
            slot = ring + (i % RING_SLOTS) * RECORD
            yield ops.acquire(ring_lock, site=20)
            yield ops.write(slot, 4, site=21)        # timestamp
            yield ops.write(slot + 4, 2, site=22)    # axis x
            yield ops.write(slot + 6, 2, site=23)    # axis y
            yield ops.write(slot + 8, 2, site=24)    # axis z
            yield ops.read(fill_level, 4, site=25)
            yield ops.write(fill_level, 4, site=26)
            yield ops.release(ring_lock, site=20)
            yield ops.sem_v(samples_sem)

    def fusion():
        for i in range(n_samples):
            yield ops.sem_p(samples_sem)
            slot = ring + (i % RING_SLOTS) * RECORD
            yield ops.acquire(ring_lock, site=30)
            yield ops.read(slot, 4, site=31)
            yield ops.read(slot + 4, 2, site=32)
            yield ops.read(slot + 6, 2, site=33)
            yield ops.read(slot + 8, 2, site=34)
            yield ops.read(fill_level, 4, site=35)
            yield ops.write(fill_level, 4, site=36)
            yield ops.release(ring_lock, site=30)
            # Fuse into the output vector (fusion-task private by
            # design — single consumer).
            yield ops.read(fused, 8, site=37)
            yield ops.write(fused, 8, site=38)
            yield ops.sem_v(slots_sem)

    def telemetry():
        # BUG: peeks at the gauge without the ring lock.
        for _ in range(max(4, n_samples // 6)):
            yield ops.read(fill_level, 4, site=900)

    def setup():
        yield from array_init(ring, RING_SLOTS * RECORD, width=4, site=1)
        yield ops.write(fill_level, 4, site=2)
        for _ in range(RING_SLOTS):
            yield ops.sem_v(slots_sem)

    return Program.from_threads(
        [sampler, fusion, telemetry], name="sensor-fusion",
        setup=list(setup()),
    )


def packet_router(scale: float = 1.0, seed: int = 0) -> Program:
    """RX -> route -> TX over a preallocated packet pool."""
    region = Region()
    ns = SyncNamespace()
    n_packets = max(6, int(24 * scale))
    pool = region.take(n_packets * PACKET)
    status_byte = region.take(1)    # lock-free flags: the seeded race
    rx_q, tx_q = ns.semaphore(), ns.semaphore()
    qlock = ns.lock()
    rx_pending: List[int] = []
    tx_pending: List[int] = []

    def rx():
        for i in range(n_packets):
            pkt = pool + i * PACKET
            # Fill header then payload (byte-level header fields).
            yield ops.write(pkt, 1, site=40)       # version/ihl
            yield ops.write(pkt + 1, 1, site=41)   # tos
            yield ops.write(pkt + 2, 2, site=42)   # length
            yield ops.write(pkt + 4, 4, site=45)   # checksum
            for off in range(8, PACKET, 8):
                yield ops.write(pkt + off, 8, site=43)
            yield ops.acquire(qlock, site=44)
            rx_pending.append(pkt)
            yield ops.release(qlock, site=44)
            yield ops.sem_v(rx_q)
            # Lock-free status update (the bug).
            yield ops.write(status_byte, 1, site=901)

    def router():
        for _ in range(n_packets):
            yield ops.sem_p(rx_q)
            yield ops.acquire(qlock, site=50)
            pkt = rx_pending.pop(0)
            yield ops.release(qlock, site=50)
            # Route: read the header, rewrite TTL-ish byte, checksum.
            yield ops.read(pkt, 4, site=51)
            yield ops.write(pkt + 1, 1, site=52)
            yield ops.read(pkt + 4, 4, site=55)
            for off in range(8, PACKET, 8):
                yield ops.read(pkt + off, 8, site=53)
            yield ops.acquire(qlock, site=54)
            tx_pending.append(pkt)
            yield ops.release(qlock, site=54)
            yield ops.sem_v(tx_q)

    def tx():
        for _ in range(n_packets):
            yield ops.sem_p(tx_q)
            yield ops.acquire(qlock, site=60)
            pkt = tx_pending.pop(0)
            yield ops.release(qlock, site=60)
            for off in range(0, PACKET, 8):
                yield ops.read(pkt + off, 8, site=61)
            yield ops.read(status_byte, 1, site=902)  # racy peek

    return Program.from_threads([rx, router, tx], name="packet-router")


def logger_daemon(scale: float = 1.0, seed: int = 0) -> Program:
    """Workers format privately, append to a shared log ring."""
    region = Region()
    ns = SyncNamespace()
    workers = 3
    ring = region.take(32 * 64)
    seqno = region.take(4)          # incremented outside the lock: bug
    log_lock = ns.lock()
    scratch = [region.take(64) for _ in range(workers)]
    msgs = max(4, int(16 * scale))

    def worker(idx: int):
        def body():
            mine = scratch[idx]
            for m in range(msgs):
                # Private formatting (word-ish accesses).
                for off in range(0, 64, 8):
                    yield ops.write(mine + off, 8, site=70)
                for off in range(0, 64, 8):
                    yield ops.read(mine + off, 8, site=71)
                # Racy sequence number (read-modify-write, no lock).
                yield ops.read(seqno, 4, site=903)
                yield ops.write(seqno, 4, site=904)
                # Locked append into the ring.
                yield ops.acquire(log_lock, site=72)
                slot = ring + ((idx * msgs + m) % 32) * 64
                for off in range(0, 64, 8):
                    yield ops.write(slot + off, 8, site=73)
                yield ops.release(log_lock, site=72)
        return body

    return Program.from_threads(
        [worker(i) for i in range(workers)], name="logger-daemon"
    )


_SCENARIOS: Dict[str, Workload] = {
    "sensor-fusion": Workload(
        name="sensor-fusion",
        threads=4,
        description="ISR sampler -> ring buffer -> fusion + racy gauge",
        build_fn=sensor_fusion,
        seeded_race_sites=1,
        notes="packed 12-byte records: sub-word fields need byte detection",
    ),
    "packet-router": Workload(
        name="packet-router",
        threads=4,
        description="RX/route/TX packet pipeline + lock-free status byte",
        build_fn=packet_router,
        seeded_race_sites=1,
        notes="single-byte header flags: word masking would blur them",
    ),
    "logger-daemon": Workload(
        name="logger-daemon",
        threads=4,
        description="private formatting, locked ring append, racy seqno",
        build_fn=logger_daemon,
        seeded_race_sites=1,
        notes="high private-page fraction: most accesses never share",
    ),
}


def embedded_scenarios() -> Dict[str, Workload]:
    """The embedded scenario catalogue (separate from the paper's 11)."""
    return dict(_SCENARIOS)


def get_scenario(name: str) -> Workload:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {sorted(_SCENARIOS)}"
        ) from None
