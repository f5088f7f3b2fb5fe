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

``recovery_divergences`` is the CI gate: any nonzero value means a
migrated session diverged from its uninterrupted twin.

Soak mode (:func:`run_soak`, ``repro-race loadgen --soak SECONDS``)
turns the one-shot campaign into a sustained chaos run against a *pair*
of daemons: tenants loop full sessions (each verified against its local
baseline) while a chaos controller live-migrates tenants between the
daemons, hard-kills and restarts one of them, and drain-evacuates it —
on top of the per-cycle wire faults.  Latency is sampled per sync with
a monotonic nanosecond clock (p50/p99/p99.9), and the body feeds the
``--slo`` trend gate in :mod:`repro.server.slo`.
"""

from __future__ import annotations

import itertools
import json
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

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
from repro.server.daemon import (
    DETECTOR_ALIASES,
    ServerConfig,
    ServerThread,
)

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
    from repro.detectors.registry import create_detector
    from repro.runtime.vm import drive, handlers

    det = create_detector(DETECTOR_ALIASES.get(detector, detector))
    drive(events, handlers(det))
    det.finish()
    return {
        "races": [r.as_list() for r in det.races],
        "stats": det.statistics(),
    }


class _TenantRun(threading.Thread):
    """One tenant: stream, misbehave on schedule, verify at the end."""

    def __init__(
        self,
        index: int,
        address: Tuple[str, int],
        events: List[tuple],
        detector: str,
        batch_events: int,
        fault: Optional[str],
        stall_seconds: float,
        timeout: float,
    ):
        super().__init__(name=f"loadgen-t{index}", daemon=True)
        self.index = index
        self.address = address
        self.events = events
        self.detector = detector
        self.batch_events = batch_events
        self.fault = fault
        self.stall_seconds = stall_seconds
        self.timeout = timeout
        # Fire wire faults mid-stream, kills mid-detector: both land
        # far from the edges so recovery really has state to rebuild.
        self.fault_at = max(1, len(events) // 2)
        self.latencies_ns: List[int] = []
        self.result: Optional[dict] = None
        self.divergent = False
        self.error: Optional[BaseException] = None
        self.client: Optional[Detector] = None

    def run(self) -> None:  # pragma: no cover - exercised via loadgen
        try:
            self._run()
        except BaseException as exc:  # noqa: BLE001 - reported upstream
            self.error = exc

    def _run(self) -> None:
        options = {}
        if self.fault == "kill":
            options["kill_at"] = [self.fault_at]
        client = Detector(
            self.detector,
            address=self.address,
            tenant=f"loadgen-{self.index}",
            batch_events=self.batch_events,
            timeout=self.timeout,
            options=options,
        )
        self.client = client
        if self.fault == "flood":
            # Fire-and-forget streaming: no per-batch sync, so the
            # server's ingest queue fills and the watermark machinery
            # (pause -> resume, shed if stuck) does the flow control.
            client.feed(self.events)
            client.sync()
        else:
            fault_pending = self.fault in (
                DROP_CONNECTION,
                CORRUPT_FRAME,
                STALL_CLIENT,
            )
            pos = 0
            while pos < len(self.events):
                if fault_pending and pos >= self.fault_at:
                    fault_pending = False
                    _misbehave(client, self.fault, self.stall_seconds)
                batch = self.events[pos : pos + self.batch_events]
                client.feed(batch)
                # Monotonic nanosecond clock: coarse wall timestamps
                # under batching used to skew the tail percentiles.
                t0 = time.perf_counter_ns()
                client.sync()
                self.latencies_ns.append(time.perf_counter_ns() - t0)
                pos += len(batch)
        self.result = client.finish()
        baseline = _baseline(self.detector, self.events)
        served = {
            "races": self.result["races"],
            "stats": self.result["stats"],
        }
        self.divergent = P.dumps_canonical(served) != P.dumps_canonical(
            baseline
        )


def _misbehave(client: Detector, fault: str, stall_seconds: float) -> None:
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
        time.sleep(stall_seconds)


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
    server_config: Optional[ServerConfig] = None,
) -> Dict[str, object]:
    """Run the campaign; return (and optionally write) the bench body.

    With ``address=None`` an in-process daemon is started on an
    ephemeral port and torn down afterwards — the default for tests and
    CI.  Without a ``server_config`` its checkpoints go to a temporary
    directory removed at teardown.  Point ``address`` at a running
    ``repro-race serve`` to bench a real deployment (the
    ``stall-client`` fault is skipped unless that server enforces an
    idle timeout).
    """
    if quick:
        # 4 tenants = one clean + kill + drop-connection + flood, so the
        # smoke still covers migration, reconnect and backpressure.
        tenants = min(max(tenants, 4), 4)
        scale = min(scale, 0.08)
        batch_events = min(batch_events, 512)

    handle: Optional[ServerThread] = None
    config: Optional[ServerConfig] = None
    scratch: Optional[str] = None
    stall_seconds = 0.0
    if address is None:
        if server_config is None:
            scratch = tempfile.mkdtemp(prefix="repro-loadgen-")
        config = server_config or ServerConfig(
            checkpoint_root=scratch,
            checkpoint_every=max(256, batch_events // 2),
            idle_timeout=0.5,
            detach_ttl=10.0,
            watchdog_timeout=10.0,
            shed_after=5.0,
            # Tight watermarks so the flood tenant actually exercises
            # pause/resume at bench scale.
            high_watermark=96 << 10,
            low_watermark=32 << 10,
        )
    try:
        if config is not None:
            handle = ServerThread(config).start()
            address = handle.address
            stall_seconds = (config.idle_timeout or 0.5) * 2.5
        in_process = handle is not None

        runs: List[_TenantRun] = []
        for i in range(tenants):
            fault = _FAULT_CYCLE[i % len(_FAULT_CYCLE)] if faults else None
            if fault == STALL_CLIENT and not in_process:
                fault = DROP_CONNECTION  # idle timeout unknown remotely
            runs.append(
                _TenantRun(
                    i,
                    address,
                    _tenant_events(workload, scale, seed + i),
                    detector,
                    batch_events,
                    fault,
                    stall_seconds,
                    timeout,
                )
            )

        t0 = time.perf_counter()
        for run in runs:
            run.start()
        for run in runs:
            run.join(timeout=300)
        wall = time.perf_counter() - t0

        errors = [f"{r.name}: {r.error!r}" for r in runs if r.error]
        if errors:
            raise RuntimeError("loadgen tenants failed: " + "; ".join(errors))

        stats = (
            handle.server.snapshot_stats()
            if handle is not None
            else server_stats(address, timeout=timeout)
        )
    finally:
        if handle is not None:
            handle.stop()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    all_latencies = [ns for r in runs for ns in r.latencies_ns]
    events_total = sum(len(r.events) for r in runs)
    fault_counts: Dict[str, int] = {}
    for r in runs:
        if r.fault:
            fault_counts[r.fault] = fault_counts.get(r.fault, 0) + 1
    divergences = sum(1 for r in runs if r.divergent)

    body: Dict[str, object] = {
        "config": {
            "tenants": tenants,
            "workload": workload,
            "scale": scale,
            "seed": seed,
            "detector": DETECTOR_ALIASES.get(detector, detector),
            "batch_events": batch_events,
            "faults": bool(faults),
            "quick": bool(quick),
            "in_process_server": in_process,
        },
        "events_total": events_total,
        "wall_s": round(wall, 4),
        "throughput_eps": round(events_total / wall, 1) if wall else 0.0,
        "latency_ms": _latency_summary(all_latencies),
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
            "reconnects": sum(r.client.reconnects for r in runs if r.client),
            "sheds_seen": sum(r.client.sheds_seen for r in runs if r.client),
        },
        "tenants": [
            {
                "tenant": f"loadgen-{r.index}",
                "fault": r.fault,
                "events": len(r.events),
                "races": len(r.result["races"]) if r.result else None,
                "reconnects": r.client.reconnects if r.client else 0,
                "divergent": r.divergent,
            }
            for r in runs
        ],
        "recovery_divergences": divergences,
    }
    if out:
        with open(out, "w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return body


# ----------------------------------------------------------------------
# chaos soak: sustained campaign against a daemon pair
# ----------------------------------------------------------------------
#: Chaos actions the controller rotates through between tenant cycles
#: (the daemon-side fault taxonomy from :mod:`repro.runtime.faults`).
_CHAOS_CYCLE = (MIGRATE_TENANT, KILL_DAEMON, DRAIN_DAEMON)

#: Fleet-wide shared key the soak daemons/clients authenticate with —
#: the soak exercises the sealed wire, not key secrecy.
SOAK_KEY = "5c" * 32


class _SoakTenant(threading.Thread):
    """One tenant looping full verified sessions until the deadline.

    Every cycle streams the tenant's events as a fresh session (unique
    tenant id per cycle), acts out one fault from the cycle taxonomy,
    and compares the RESULT against the precomputed local baseline.
    The client is given both daemon addresses, so chaos actions on one
    host surface as failovers/migrations, not errors.
    """

    def __init__(
        self,
        index: int,
        addresses: List[Tuple[str, int]],
        events: List[tuple],
        baseline: dict,
        detector: str,
        batch_events: int,
        key: Optional[str],
        stall_seconds: float,
        timeout: float,
        deadline: float,
    ):
        super().__init__(name=f"soak-t{index}", daemon=True)
        self.index = index
        self.addresses = addresses
        self.events = events
        self.baseline = baseline
        self.detector = detector
        self.batch_events = batch_events
        self.key = key
        self.stall_seconds = stall_seconds
        self.timeout = timeout
        self.deadline = deadline
        self.latencies_ns: List[int] = []
        self.cycles = 0
        self.events_streamed = 0
        self.divergences = 0
        self.divergence_notes: List[str] = []
        self.errors: List[str] = []
        self.reconnects = 0
        self.sheds_seen = 0
        self.migrations_seen = 0
        self.failovers = 0

    def run(self) -> None:  # pragma: no cover - exercised via run_soak
        cycle = 0
        while time.monotonic() < self.deadline:
            fault = _FAULT_CYCLE[(cycle + self.index) % len(_FAULT_CYCLE)]
            try:
                self._one_cycle(cycle, fault)
                self.cycles += 1
                self.events_streamed += len(self.events)
            except BaseException as exc:  # noqa: BLE001 - keep soaking
                self.errors.append(
                    f"cycle {cycle} fault={fault}: {type(exc).__name__}: "
                    f"{exc}"
                )
                time.sleep(0.2)
            cycle += 1

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

    def _one_cycle(self, cycle: int, fault: Optional[str]) -> None:
        options = {}
        fault_at = max(1, len(self.events) // 2)
        if fault == "kill":
            options["kill_at"] = [fault_at]
        client = Detector(
            self.detector,
            addresses=list(self.addresses),
            tenant=f"soak-{self.index}-c{cycle}",
            key=self.key,
            batch_events=self.batch_events,
            timeout=self.timeout,
            options=options,
        )
        try:
            if fault == "flood":
                client.feed(self.events)
                t0 = time.perf_counter_ns()
                client.sync()
                self.latencies_ns.append(time.perf_counter_ns() - t0)
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
                        _misbehave(client, fault, self.stall_seconds)
                    batch = self.events[pos : pos + self.batch_events]
                    client.feed(batch)
                    t0 = time.perf_counter_ns()
                    client.sync()
                    self.latencies_ns.append(time.perf_counter_ns() - t0)
                    pos += len(batch)
            result = client.finish()
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
    checkpoint_root: str = ".repro-race/soak-ckpts",
    out: Optional[str] = "BENCH_server.json",
) -> Dict[str, object]:
    """Sustained chaos campaign against an in-process daemon pair.

    Daemon A is the chaos victim (live migration to B, hard kill +
    restart, SIGTERM-style drain that evacuates to B); daemon B is the
    failover target.  Tenant threads loop verified sessions across both
    until the deadline.  Returns the bench body (also written to
    ``out``); divergence/SLO gating is the caller's job.
    """
    if quick:
        tenants = min(max(tenants, 4), 4)
        scale = min(scale, 0.08)
        batch_events = min(batch_events, 512)
    if chaos_interval is None:
        # Enough actions for several full chaos rotations per soak.
        chaos_interval = max(1.0, seconds / 12.0)
    key = SOAK_KEY if auth else None

    shutil.rmtree(checkpoint_root, ignore_errors=True)
    base = dict(
        checkpoint_every=max(256, batch_events // 2),
        idle_timeout=0.5,
        detach_ttl=5.0,
        shed_after=2.0,
        high_watermark=96 << 10,
        low_watermark=32 << 10,
        auth_keys={"*": key} if key else None,
    )
    b_handle = ServerThread(
        ServerConfig(checkpoint_root=f"{checkpoint_root}/b", **base)
    ).start()
    a_handle = ServerThread(
        ServerConfig(
            checkpoint_root=f"{checkpoint_root}/a",
            peer=b_handle.address,
            **base,
        )
    ).start()
    b_handle.server.config.peer = a_handle.address
    addresses = [a_handle.address, b_handle.address]
    a_port = a_handle.port
    stall_seconds = base["idle_timeout"] * 2.5

    runs: List[_SoakTenant] = []
    deadline = time.monotonic() + seconds
    t0 = time.perf_counter()
    for i in range(tenants):
        events = _tenant_events(workload, scale, seed + i)
        runs.append(
            _SoakTenant(
                i,
                addresses,
                events,
                _baseline(detector, events),
                detector,
                batch_events,
                key,
                stall_seconds,
                timeout,
                deadline,
            )
        )
    for run in runs:
        run.start()

    acc: Dict[str, int] = {}
    chaos_counts = {kind: 0 for kind in _CHAOS_CYCLE}
    chaos_errors: List[str] = []
    migrations_live = 0
    actions = itertools.cycle(_CHAOS_CYCLE)
    next_chaos = time.monotonic() + chaos_interval
    while time.monotonic() < deadline and any(r.is_alive() for r in runs):
        time.sleep(0.2)
        if time.monotonic() < next_chaos:
            continue
        next_chaos = time.monotonic() + chaos_interval
        action = next(actions)
        try:
            if action == MIGRATE_TENANT:
                # Push one live tenant off whichever daemon holds it.
                moved = False
                for src, dst in (
                    (a_handle, b_handle),
                    (b_handle, a_handle),
                ):
                    live = _snapshot(src).get("tenants", {})
                    names = [
                        name
                        for name, row in live.items()
                        if row.get("attached")
                    ]
                    if not names:
                        continue
                    try:
                        migrate_tenant(
                            src.address,
                            names[0],
                            peer=dst.address,
                            key=key,
                            timeout=timeout,
                        )
                        moved = True
                        migrations_live += 1
                        break
                    except (P.ServerError, TimeoutError, OSError):
                        continue  # tenant finished mid-request; fine
                if moved:
                    chaos_counts[MIGRATE_TENANT] += 1
            elif action == KILL_DAEMON:
                a_handle.kill()
                # The loop is stopped; reading the dead incarnation's
                # counters is single-threaded and safe.
                _merge_stats(acc, a_handle.server.snapshot_stats())
                a_handle = _respawn(a_handle.server.config, a_port)
                chaos_counts[KILL_DAEMON] += 1
            elif action == DRAIN_DAEMON:
                # SIGTERM-style drain: with a peer configured this
                # evacuates every live tenant to B before stopping.
                a_handle.stop(drain=True)
                _merge_stats(acc, a_handle.server.snapshot_stats())
                a_handle = _respawn(a_handle.server.config, a_port)
                chaos_counts[DRAIN_DAEMON] += 1
        except Exception as exc:  # noqa: BLE001 - chaos must not abort
            chaos_errors.append(f"{action}: {type(exc).__name__}: {exc}")

    for run in runs:
        run.join(timeout=300)
    wall = time.perf_counter() - t0

    # Guaranteed live migration: if every scheduled one raced a
    # finishing tenant, force one final verified migration round trip.
    if migrations_live == 0:
        forced = _SoakTenant(
            tenants,
            addresses,
            runs[0].events,
            runs[0].baseline,
            detector,
            batch_events,
            key,
            stall_seconds,
            timeout,
            deadline=time.monotonic() + timeout,
        )
        forcer = threading.Thread(
            target=forced._one_cycle, args=(0, None), daemon=True
        )
        forcer.start()
        for _ in range(100):
            live = _snapshot(a_handle).get("tenants", {})
            names = [n for n, r in live.items() if r.get("attached")]
            if names:
                try:
                    migrate_tenant(
                        a_handle.address,
                        names[0],
                        peer=b_handle.address,
                        key=key,
                        timeout=timeout,
                    )
                    migrations_live += 1
                    chaos_counts[MIGRATE_TENANT] += 1
                    break
                except (P.ServerError, TimeoutError, OSError):
                    pass
            time.sleep(0.05)
        forcer.join(timeout=60)
        runs.append(forced)

    a_handle.stop()
    b_handle.stop()
    _merge_stats(acc, a_handle.server.snapshot_stats())
    _merge_stats(acc, b_handle.server.snapshot_stats())

    events_total = sum(r.events_streamed for r in runs)
    divergences = sum(r.divergences for r in runs)
    tenant_errors = [e for r in runs for e in r.errors]
    body: Dict[str, object] = {
        "config": {
            "tenants": tenants,
            "workload": workload,
            "scale": scale,
            "seed": seed,
            "detector": DETECTOR_ALIASES.get(detector, detector),
            "batch_events": batch_events,
            "faults": True,
            "quick": bool(quick),
            "in_process_server": True,
            "auth": bool(key),
        },
        "events_total": events_total,
        "wall_s": round(wall, 4),
        "throughput_eps": round(events_total / wall, 1) if wall else 0.0,
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
        "recovery_divergences": divergences,
    }
    if out:
        with open(out, "w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")
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
    return "\n".join(lines)
