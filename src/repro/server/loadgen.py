"""Load generator + fault campaign for the detection daemon.

Streams N tenants' worth of recorded workload traces at a server
concurrently, times per-batch ingest latency (send → commit ack),
acts out the client-misbehaviour fault kinds from
:data:`repro.runtime.faults.SERVER_KINDS` on the wire, and verifies the
service invariant end to end: every tenant's RESULT — races *and*
detector statistics — must be byte-identical to a local uninterrupted
run of the same detector over the same events, no matter how many
kills, sheds, drops and reconnects happened along the way.

Writes ``BENCH_server.json``::

    {
      "latency_ms": {"p50": ..., "p99": ..., ...},
      "throughput_eps": ...,
      "faults": {"kill": 1, "drop-connection": 1, ...},
      "server": {"sheds": ..., "resumes": ..., "wedges": ...},
      "recovery_divergences": 0,
      ...
    }

``loadgen`` exits 1 when ``recovery_divergences`` (sessions that
diverged from their uninterrupted twin) or the daemon's
``server.recovery_failures`` (sessions it gave up on) is nonzero.
Both are exact counts.  The latency percentiles are informational;
perfbench's ``service-stream`` workload is the timed service benchmark.

Soak mode (:func:`run_soak`, ``repro-race loadgen --soak SECONDS``)
turns the one-shot campaign into a sustained chaos run against a *pair*
of daemons: tenants loop full sessions (each verified against its local
baseline) while a chaos controller live-migrates tenants between the
daemons, hard-kills and restarts one of them, and drain-evacuates it —
on top of the per-cycle wire faults.  Latency is sampled per sync with
a monotonic nanosecond clock (p50/p99/p99.9).

Both modes drive their tenants with one :class:`_TenantDriver` (one
cycle per tenant for the campaign, cycles until the deadline for the
soak) and start their in-process daemons with one
:func:`_in_process_daemons`, which checkpoints into a temporary
directory it removes at teardown.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
import tempfile
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.detectors.registry import canonical_name, create_detector
from repro.runtime.faults import (
    CORRUPT_FRAME,
    DRAIN_DAEMON,
    DROP_CONNECTION,
    KILL_DAEMON,
    MIGRATE_TENANT,
    STALL_CLIENT,
)
from repro.server import protocol as P
from repro.server.client import Detector, migrate_tenant, server_stats
from repro.server.daemon import ServerConfig, ServerThread

#: Fault assignment cycle across tenants.  Index 0 keeps one clean
#: control tenant; ``kill`` injects a detector kill (migration path);
#: ``flood`` streams without waiting for acks (backpressure path); the
#: remaining kinds are the wire faults from SERVER_KINDS.
_FAULT_CYCLE = (
    None,
    "kill",
    DROP_CONNECTION,
    "flood",
    CORRUPT_FRAME,
    STALL_CLIENT,
)

_GARBAGE = b"\xee" * 64  # an unknown frame type followed by junk


def _tenant_events(workload: str, scale: float, seed: int) -> List[tuple]:
    from repro.workloads.registry import build_trace

    trace = build_trace(workload, scale=scale, seed=seed)
    return [tuple(ev) for ev in trace.events]


def _baseline(detector: str, events: List[tuple]) -> dict:
    """The uninterrupted twin: same detector, same events, in process."""
    from repro.runtime.vm import drive, handlers

    det = create_detector(detector)
    drive(events, handlers(det))
    det.finish()
    return {
        "races": [r.as_list() for r in det.races],
        "stats": det.statistics(),
    }


#: The in-process daemons' idle deadline; a ``stall-client`` tenant
#: goes silent for 2.5 times as long, so the daemon sheds it.
_IDLE_TIMEOUT = 0.5
_STALL_SECONDS = 2.5 * _IDLE_TIMEOUT


class _TenantDriver(threading.Thread):
    """One tenant running verified sessions against the daemon(s).

    Every cycle streams the tenant's events as a fresh session (tenant
    id ``{prefix}-{index}-c{cycle}``), acts out one fault from
    :data:`_FAULT_CYCLE` on schedule, and compares the RESULT — races
    *and* statistics — with the local uninterrupted baseline.  With
    ``deadline=None`` the driver runs one cycle (``run_loadgen``);
    otherwise it loops cycles until the deadline (``run_soak``).  The
    client is given every daemon address, so chaos actions on one host
    surface as failovers or migrations, not errors.  A cycle that
    raises is recorded in ``errors``.
    """

    def __init__(
        self,
        index: int,
        prefix: str,
        addresses: List[Tuple[str, int]],
        events: List[tuple],
        *,
        detector: str,
        batch_events: int,
        faults: bool = True,
        can_stall: bool = True,
        key: Optional[str] = None,
        timeout: float = 30.0,
        deadline: Optional[float] = None,
    ):
        super().__init__(name=f"{prefix}-t{index}", daemon=True)
        self.index = index
        self.prefix = prefix
        self.addresses = addresses
        self.events = events
        self.baseline = _baseline(detector, events)
        self.detector = detector
        self.batch_events = batch_events
        self.faults = faults
        self.can_stall = can_stall
        self.key = key
        self.timeout = timeout
        self.deadline = deadline
        self.latencies_ns: List[int] = []
        self.cycles = 0
        self.events_streamed = 0
        self.races: Optional[int] = None
        self.divergences = 0
        self.divergence_notes: List[str] = []
        self.errors: List[str] = []
        self.reconnects = 0
        self.sheds_seen = 0
        self.migrations_seen = 0
        self.failovers = 0

    def fault_for(self, cycle: int) -> Optional[str]:
        if not self.faults:
            return None
        fault = _FAULT_CYCLE[(cycle + self.index) % len(_FAULT_CYCLE)]
        if fault == STALL_CLIENT and not self.can_stall:
            return DROP_CONNECTION  # the remote idle timeout is unknown
        return fault

    def run(self) -> None:
        cycle = 0
        while True:
            fault = self.fault_for(cycle)
            try:
                self._one_cycle(cycle, fault)
                self.cycles += 1
                self.events_streamed += len(self.events)
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                self.errors.append(
                    f"cycle {cycle} fault={fault}: {type(exc).__name__}: "
                    f"{exc}"
                )
                time.sleep(0.2)
            cycle += 1
            if self.deadline is None or time.monotonic() >= self.deadline:
                return

    def _one_cycle(self, cycle: int, fault: Optional[str]) -> None:
        # Fire wire faults mid-stream, kills mid-detector: both land
        # far from the edges so recovery really has state to rebuild.
        fault_at = max(1, len(self.events) // 2)
        options = {"kill_at": [fault_at]} if fault == "kill" else {}
        client = Detector(
            self.detector,
            addresses=list(self.addresses),
            tenant=f"{self.prefix}-{self.index}-c{cycle}",
            key=self.key,
            batch_events=self.batch_events,
            timeout=self.timeout,
            options=options,
        )
        try:
            if fault == "flood":
                # Fire-and-forget streaming: no per-batch sync, so the
                # server's ingest queue fills and the watermark
                # machinery (pause -> resume, shed if stuck) does the
                # flow control.  The one whole-stream sync is not a
                # per-batch ingest latency, so it is not sampled.
                client.feed(self.events)
                client.sync()
            else:
                fault_pending = fault in (
                    DROP_CONNECTION,
                    CORRUPT_FRAME,
                    STALL_CLIENT,
                )
                pos = 0
                while pos < len(self.events):
                    if fault_pending and pos >= fault_at:
                        fault_pending = False
                        _misbehave(client, fault)
                    batch = self.events[pos : pos + self.batch_events]
                    client.feed(batch)
                    # Monotonic nanosecond clock: coarse wall timestamps
                    # under batching used to skew the tail percentiles.
                    t0 = time.perf_counter_ns()
                    client.sync()
                    self.latencies_ns.append(time.perf_counter_ns() - t0)
                    pos += len(batch)
            result = client.finish()
            self.races = len(result["races"])
            served = {"races": result["races"], "stats": result["stats"]}
            if P.dumps_canonical(served) != P.dumps_canonical(self.baseline):
                self.divergences += 1
                self.divergence_notes.append(
                    self._diff_note(cycle, fault, served, result)
                )
        finally:
            self.reconnects += client.reconnects
            self.sheds_seen += client.sheds_seen
            self.migrations_seen += client.migrations_seen
            self.failovers += client.failovers
            client.close()

    def _diff_note(self, cycle, fault, served, result) -> str:
        """Forensic one-liner: *what* diverged, not just that it did."""
        base = self.baseline
        parts = [
            f"tenant {self.index} cycle {cycle} fault={fault}",
            f"events={result.get('events')}/{len(self.events)}",
            f"races={len(served['races'])}vs{len(base['races'])}",
        ]
        skeys = served["stats"]
        bkeys = base["stats"]
        diff = [
            k
            for k in sorted(set(skeys) | set(bkeys))
            if skeys.get(k) != bkeys.get(k)
        ]
        for k in diff[:6]:
            parts.append(f"{k}={skeys.get(k)}vs{bkeys.get(k)}")
        rec = result.get("recovery") or {}
        parts.append(
            "recovery="
            + ",".join(f"{k}:{v}" for k, v in sorted(rec.items()) if v)
        )
        return " ".join(parts)


def _misbehave(client: Detector, fault: str) -> None:
    """Act out one wire fault on a live client session."""
    if fault == DROP_CONNECTION:
        # Vanish without a goodbye; the next sync reconnect-resumes.
        client._close_socket()
    elif fault == CORRUPT_FRAME:
        # Garbage on the wire: the server answers with a typed
        # error that poisons only this session.  Absorb it, then
        # reconnect-resume.
        try:
            client._sock.sendall(_GARBAGE)
            client._wait_for(P.T_RESULT)  # the ERROR arrives first
        except P.ServerError as exc:
            if exc.code != P.E_BAD_FRAME:
                raise
            client._reconnect()
        except (OSError, TimeoutError):
            client._reconnect()
    elif fault == STALL_CLIENT:
        # Go silent past the idle deadline; the server sheds us.
        time.sleep(_STALL_SECONDS)


def _latency_summary(latencies_ns: List[int]) -> Dict[str, object]:
    """p50/p99/p99.9 ingest-latency summary in milliseconds."""
    if not latencies_ns:
        return {"samples": 0}
    lat_ms = np.asarray(latencies_ns, dtype=float) / 1e6
    return {
        "p50": round(float(np.percentile(lat_ms, 50)), 3),
        "p99": round(float(np.percentile(lat_ms, 99)), 3),
        "p999": round(float(np.percentile(lat_ms, 99.9)), 3),
        "mean": round(float(lat_ms.mean()), 3),
        "max": round(float(lat_ms.max()), 3),
        "samples": int(lat_ms.size),
    }


@contextlib.contextmanager
def _in_process_daemons(
    count: int, batch_events: int, key: Optional[str] = None
) -> Iterator[List[ServerThread]]:
    """Start ``count`` in-process daemons on ephemeral ports.

    Their checkpoints go under one temporary directory, removed at
    exit along with the daemons.  With two daemons each is the other's
    peer, so a drain evacuates to the survivor.  A caller that
    restarts a daemon replaces its entry in the yielded list, so exit
    stops the live incarnation.
    """
    root = tempfile.mkdtemp(prefix="repro-loadgen-")
    handles: List[ServerThread] = []
    try:
        for i in range(count):
            config = ServerConfig(
                checkpoint_root=os.path.join(root, str(i)),
                checkpoint_every=max(256, batch_events // 2),
                idle_timeout=_IDLE_TIMEOUT,
                detach_ttl=5.0,
                shed_after=2.0,
                # Tight watermarks so the flood tenant actually
                # exercises pause/resume at bench scale.
                high_watermark=96 << 10,
                low_watermark=32 << 10,
                auth_keys={"*": key} if key else None,
            )
            handles.append(ServerThread(config).start())
        if count == 2:
            a, b = handles
            a.server.config.peer = b.address
            b.server.config.peer = a.address
        yield handles
    finally:
        for handle in handles:
            handle.stop()
        shutil.rmtree(root, ignore_errors=True)


def run_loadgen(
    address: Optional[Tuple[str, int]] = None,
    *,
    tenants: int = 4,
    workload: str = "pbzip2",
    scale: float = 0.3,
    seed: int = 0,
    detector: str = "fasttrack",
    batch_events: int = 2048,
    faults: bool = True,
    quick: bool = False,
    timeout: float = 30.0,
    out: Optional[str] = "BENCH_server.json",
) -> Dict[str, object]:
    """Run the campaign; return (and optionally write) the bench body.

    With ``address=None`` an in-process daemon is started on an
    ephemeral port and torn down afterwards — the default for tests and
    CI; its checkpoints go to a temporary directory removed at
    teardown.  Point ``address`` at a running ``repro-race serve`` to
    bench a real deployment (the ``stall-client`` fault becomes a
    dropped connection, since that server's idle timeout is unknown).
    Each tenant runs one verified session cycle.
    """
    if quick:
        # 4 tenants = one clean + kill + drop-connection + flood, so the
        # smoke still covers migration, reconnect and backpressure.
        tenants = min(max(tenants, 4), 4)
        scale = min(scale, 0.08)
        batch_events = min(batch_events, 512)

    in_process = address is None
    with contextlib.ExitStack() as stack:
        if in_process:
            handle = stack.enter_context(
                _in_process_daemons(1, batch_events)
            )[0]
            address = handle.address
        runs = [
            _TenantDriver(
                i,
                "loadgen",
                [address],
                _tenant_events(workload, scale, seed + i),
                detector=detector,
                batch_events=batch_events,
                faults=faults,
                can_stall=in_process,
                timeout=timeout,
            )
            for i in range(tenants)
        ]

        t0 = time.perf_counter()
        for run in runs:
            run.start()
        for run in runs:
            run.join(timeout=300)
        wall = time.perf_counter() - t0

        errors = [f"{r.name}: {e}" for r in runs for e in r.errors]
        if errors:
            raise RuntimeError("loadgen tenants failed: " + "; ".join(errors))

        stats = (
            handle.server.snapshot_stats()
            if in_process
            else server_stats(address, timeout=timeout)
        )

    events_total = sum(len(r.events) for r in runs)
    fault_counts: Dict[str, int] = {}
    for r in runs:
        fault = r.fault_for(0)
        if fault:
            fault_counts[fault] = fault_counts.get(fault, 0) + 1

    body: Dict[str, object] = {
        "config": {
            "tenants": tenants,
            "workload": workload,
            "scale": scale,
            "seed": seed,
            "detector": canonical_name(detector),
            "batch_events": batch_events,
            "faults": bool(faults),
            "quick": bool(quick),
            "in_process_server": in_process,
        },
        "events_total": events_total,
        "wall_s": round(wall, 4),
        "throughput_eps": round(events_total / wall, 1) if wall else 0.0,
        "latency_ms": _latency_summary(
            [ns for r in runs for ns in r.latencies_ns]
        ),
        "faults_injected": fault_counts,
        "server": {
            key: stats.get(key, 0)
            for key in (
                "sessions_started",
                "sessions_finished",
                "reconnects",
                "protocol_errors",
                "pauses",
                "sheds",
                "idle_sheds",
                "wedges",
                "kills",
                "crashes",
                "resumes",
                "cold_restarts",
                "retries",
                "recovery_failures",
                "events_total",
                "races_total",
                "max_queue_bytes",
                "migrations_out",
                "migrations_in",
                "evacuations",
                "drained_tenants",
                "auth_challenges",
                "auth_failures",
                "tamper_rejects",
                "rekeys",
            )
        },
        "client": {
            "reconnects": sum(r.reconnects for r in runs),
            "sheds_seen": sum(r.sheds_seen for r in runs),
        },
        "tenants": [
            {
                "tenant": f"loadgen-{r.index}",
                "fault": r.fault_for(0),
                "events": len(r.events),
                "races": r.races,
                "reconnects": r.reconnects,
                "divergent": bool(r.divergences),
            }
            for r in runs
        ],
        "divergence_notes": [n for r in runs for n in r.divergence_notes][
            :10
        ],
        "recovery_divergences": sum(r.divergences for r in runs),
    }
    _write_body(body, out)
    return body


def _write_body(body: Dict[str, object], out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ----------------------------------------------------------------------
# chaos soak: sustained campaign against a daemon pair
# ----------------------------------------------------------------------
#: Chaos actions the controller rotates through between tenant cycles
#: (the daemon-side fault taxonomy from :mod:`repro.runtime.faults`).
_CHAOS_CYCLE = (MIGRATE_TENANT, KILL_DAEMON, DRAIN_DAEMON)

#: Fleet-wide shared key the soak daemons/clients authenticate with —
#: the soak exercises the sealed wire, not key secrecy.
SOAK_KEY = "5c" * 32


def _merge_stats(acc: Dict[str, int], snap: Dict[str, object]) -> None:
    """Accumulate the integer counters of a daemon incarnation that is
    about to be killed/drained (its in-memory stats die with it)."""
    for key, value in snap.items():
        if isinstance(value, bool) or not isinstance(value, int):
            continue
        acc[key] = acc.get(key, 0) + value


def _snapshot(handle: ServerThread) -> Dict[str, object]:
    """Stats snapshot taken *on the server's loop* (the tenant table
    mutates there; reading it from the controller thread would race)."""

    async def _snap():
        return handle.server.snapshot_stats()

    try:
        return handle.call(_snap)
    except Exception:  # noqa: BLE001 - daemon mid-death; no stats
        return {}


def _respawn(config: ServerConfig, port: int) -> ServerThread:
    """Restart a killed/drained daemon on its old port (the address the
    clients and the peer already hold)."""
    last: Optional[Exception] = None
    for _attempt in range(20):
        cfg = ServerConfig(
            **{**config.__dict__, "port": port, "peer": config.peer}
        )
        try:
            return ServerThread(cfg).start()
        except (OSError, RuntimeError) as exc:
            last = exc
            time.sleep(0.1)
    raise RuntimeError(f"could not rebind soak daemon on :{port}: {last}")


def _migrate_one(
    src: ServerThread, dst: ServerThread, key: Optional[str], timeout: float
) -> bool:
    """Live-migrate one attached tenant from ``src`` to ``dst``; False
    when none is attached or it finished mid-request."""
    live = _snapshot(src).get("tenants", {})
    names = [name for name, row in live.items() if row.get("attached")]
    if not names:
        return False
    try:
        migrate_tenant(
            src.address, names[0], peer=dst.address, key=key, timeout=timeout
        )
    except (P.ServerError, TimeoutError, OSError):
        return False
    return True


def run_soak(
    *,
    seconds: float = 60.0,
    tenants: int = 4,
    workload: str = "pbzip2",
    scale: float = 0.3,
    seed: int = 0,
    detector: str = "fasttrack",
    batch_events: int = 2048,
    quick: bool = False,
    timeout: float = 30.0,
    auth: bool = True,
    chaos_interval: Optional[float] = None,
    out: Optional[str] = "BENCH_server.json",
) -> Dict[str, object]:
    """Sustained chaos campaign against an in-process daemon pair.

    Daemon A is the chaos victim (live migration to B, hard kill +
    restart, SIGTERM-style drain that evacuates to B); daemon B is the
    failover target.  Tenant threads loop verified sessions across both
    until the deadline.  Both daemons checkpoint into a temporary
    directory removed at teardown.  Returns the bench body (also
    written to ``out``); divergence gating is the caller's job.
    """
    if quick:
        tenants = min(max(tenants, 4), 4)
        scale = min(scale, 0.08)
        batch_events = min(batch_events, 512)
    if chaos_interval is None:
        # Enough actions for several full chaos rotations per soak.
        chaos_interval = max(1.0, seconds / 12.0)
    key = SOAK_KEY if auth else None

    acc: Dict[str, int] = {}
    chaos_counts = {kind: 0 for kind in _CHAOS_CYCLE}
    chaos_errors: List[str] = []
    migrations_live = 0
    with _in_process_daemons(2, batch_events, key) as handles:
        addresses = [h.address for h in handles]
        a_port = handles[0].port

        def driver(index: int, events, **kw) -> _TenantDriver:
            return _TenantDriver(
                index,
                "soak",
                addresses,
                events,
                detector=detector,
                batch_events=batch_events,
                key=key,
                timeout=timeout,
                **kw,
            )

        deadline = time.monotonic() + seconds
        t0 = time.perf_counter()
        runs = [
            driver(
                i,
                _tenant_events(workload, scale, seed + i),
                deadline=deadline,
            )
            for i in range(tenants)
        ]
        for run in runs:
            run.start()

        actions = itertools.cycle(_CHAOS_CYCLE)
        next_chaos = time.monotonic() + chaos_interval
        while time.monotonic() < deadline and any(
            r.is_alive() for r in runs
        ):
            time.sleep(0.2)
            if time.monotonic() < next_chaos:
                continue
            next_chaos = time.monotonic() + chaos_interval
            action = next(actions)
            a_handle, b_handle = handles
            try:
                if action == MIGRATE_TENANT:
                    # Push one live tenant off whichever daemon holds it.
                    if _migrate_one(
                        a_handle, b_handle, key, timeout
                    ) or _migrate_one(b_handle, a_handle, key, timeout):
                        migrations_live += 1
                        chaos_counts[MIGRATE_TENANT] += 1
                elif action == KILL_DAEMON:
                    a_handle.kill()
                    # The loop is stopped; reading the dead
                    # incarnation's counters is single-threaded and safe.
                    _merge_stats(acc, a_handle.server.snapshot_stats())
                    handles[0] = _respawn(a_handle.server.config, a_port)
                    chaos_counts[KILL_DAEMON] += 1
                elif action == DRAIN_DAEMON:
                    # SIGTERM-style drain: with a peer configured this
                    # evacuates every live tenant to B before stopping.
                    a_handle.stop(drain=True)
                    _merge_stats(acc, a_handle.server.snapshot_stats())
                    handles[0] = _respawn(a_handle.server.config, a_port)
                    chaos_counts[DRAIN_DAEMON] += 1
            except Exception as exc:  # noqa: BLE001 - chaos must not abort
                chaos_errors.append(f"{action}: {type(exc).__name__}: {exc}")

        for run in runs:
            run.join(timeout=300)
        wall = time.perf_counter() - t0

        # Guaranteed live migration: if every scheduled one raced a
        # finishing tenant, force one final verified migration round
        # trip with a clean one-cycle tenant.
        if migrations_live == 0:
            forced = driver(tenants, runs[0].events, faults=False)
            forced.start()
            for _ in range(100):
                if _migrate_one(handles[0], handles[1], key, timeout):
                    migrations_live += 1
                    chaos_counts[MIGRATE_TENANT] += 1
                    break
                time.sleep(0.05)
            forced.join(timeout=60)
            runs.append(forced)
    for handle in handles:
        _merge_stats(acc, handle.server.snapshot_stats())

    tenant_errors = [e for r in runs for e in r.errors]
    body: Dict[str, object] = {
        "config": {
            "tenants": tenants,
            "workload": workload,
            "scale": scale,
            "seed": seed,
            "detector": canonical_name(detector),
            "batch_events": batch_events,
            "faults": True,
            "quick": bool(quick),
            "in_process_server": True,
            "auth": bool(key),
        },
        "events_total": sum(r.events_streamed for r in runs),
        "wall_s": round(wall, 4),
        "throughput_eps": (
            round(sum(r.events_streamed for r in runs) / wall, 1)
            if wall
            else 0.0
        ),
        "latency_ms": _latency_summary(
            [ns for r in runs for ns in r.latencies_ns]
        ),
        "server": acc,
        "client": {
            "reconnects": sum(r.reconnects for r in runs),
            "sheds_seen": sum(r.sheds_seen for r in runs),
            "failovers": sum(r.failovers for r in runs),
            "migrations_seen": sum(r.migrations_seen for r in runs),
        },
        "soak": {
            "seconds": seconds,
            "cycles": sum(r.cycles for r in runs),
            "chaos": dict(chaos_counts),
            "chaos_errors": chaos_errors[:10],
            "tenant_errors": tenant_errors[:10],
            "tenant_error_count": len(tenant_errors),
            "divergence_notes": [
                n for r in runs for n in r.divergence_notes
            ][:10],
            "migrations_live": migrations_live,
        },
        "tenants": [
            {
                "tenant": f"soak-{r.index}",
                "cycles": r.cycles,
                "events": r.events_streamed,
                "divergences": r.divergences,
                "reconnects": r.reconnects,
                "failovers": r.failovers,
                "migrations_seen": r.migrations_seen,
                "errors": len(r.errors),
            }
            for r in runs
        ],
        "recovery_divergences": sum(r.divergences for r in runs),
    }
    _write_body(body, out)
    return body


def format_soak(body: Dict[str, object]) -> str:
    lat = body["latency_ms"]
    soak = body["soak"]
    srv = body["server"]
    cli = body["client"]
    lines = [
        f"soak: {body['config']['tenants']} tenant(s) for "
        f"{soak['seconds']}s — {soak['cycles']} session cycle(s), "
        f"{body['events_total']} events ({body['throughput_eps']:.0f} ev/s)",
        (
            f"  ingest latency p50 {lat['p50']}ms  p99 {lat['p99']}ms  "
            f"p99.9 {lat['p999']}ms ({lat['samples']} syncs)"
            if lat.get("samples")
            else "  ingest latency: no samples"
        ),
        f"  chaos: {soak['chaos']}  live migrations: "
        f"{soak['migrations_live']}",
        f"  server: {srv.get('migrations_out', 0)} out / "
        f"{srv.get('migrations_in', 0)} in migration(s), "
        f"{srv.get('evacuations', 0)} evacuation(s), "
        f"{srv.get('sheds', 0)} shed(s), {srv.get('resumes', 0)} "
        f"resume(s), {srv.get('recovery_failures', 0)} recovery "
        f"failure(s)",
        f"  client: {cli['reconnects']} reconnect(s), "
        f"{cli['failovers']} failover(s), {cli['migrations_seen']} "
        f"migration signal(s)",
        f"  tenant errors: {soak['tenant_error_count']}  "
        f"recovery divergences: {body['recovery_divergences']}",
    ]
    for err in soak["tenant_errors"]:
        lines.append(f"    ! {err}")
    for err in soak["chaos_errors"]:
        lines.append(f"    ! chaos {err}")
    for note in soak.get("divergence_notes", ()):
        lines.append(f"    ! diverged: {note}")
    return "\n".join(lines)


def format_loadgen(body: Dict[str, object]) -> str:
    lat = body["latency_ms"]
    srv = body["server"]
    lines = [
        f"loadgen: {body['config']['tenants']} tenant(s), "
        f"{body['events_total']} events in {body['wall_s']}s "
        f"({body['throughput_eps']:.0f} ev/s)",
        (
            f"  ingest latency p50 {lat['p50']}ms  p99 {lat['p99']}ms  "
            f"max {lat['max']}ms ({lat['samples']} batches)"
            if lat.get("samples")
            else "  ingest latency: no samples"
        ),
        f"  faults injected: {body['faults_injected'] or 'none'}",
        f"  server: {srv['sheds']} shed(s), {srv['pauses']} pause(s), "
        f"{srv['resumes']} resume(s), {srv['kills']} kill(s), "
        f"{srv['wedges']} wedge(s), {srv['reconnects']} reconnect(s)",
        f"  recovery divergences: {body['recovery_divergences']}",
    ]
    for note in body.get("divergence_notes", ()):
        lines.append(f"    ! diverged: {note}")
    return "\n".join(lines)
