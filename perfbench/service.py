"""Service ingest: two keyed tenants stream traces to ``repro-race serve``.

The daemon runs as a subprocess at its default settings (checkpoint
every 2000 events) with per-tenant ``--keys``.  Each tenant is a
thread driving the client ``Detector`` in a closed loop: send one batch,
wait for the ACK that covers it (``sync()``), send the next.  Traces
are streamed whole, one session per trace; every RESULT is checked
against a local detector run over the same events.

After each live slice the same frames go, the same way, to the bare
transport of ``echo.py``; the service's timings are reported as
slowdowns over it, as the detector's are over the reference loop.

The traced mode feeds the same batches in process through the public
protocol and tenant functions, because the daemon's own work cannot be
timed from outside it.
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.detectors.registry import create_detector
from repro.runtime.vm import dispatch_event
from repro.server import protocol as P
from repro.server.client import Detector, server_stats
from repro.server.tenant import TenantSession
from repro.workloads.base import default_suppression

import echo
from offline import DYNAMIC, DetectorProxy, canonical
from spans import Tracer, median, percentile

TENANTS = ("tenant-a", "tenant-b")
#: events per EVENTS frame: a quarter of the daemon's checkpoint
#: cadence, so one ACK in four carries a checkpoint.  (At 250 the
#: median was steadier but the 95th percentile fell on the steep tail
#: of the checkpoint mode and spread 0.19 between runs.)
BATCH = 500
#: fewest ACK samples that leave ten beyond the 95th percentile
MIN_ACK_SAMPLES = 200

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")
#: servers started and not yet stopped, for :func:`stop_all`
_LIVE: List["Server"] = []


class BenchError(RuntimeError):
    """The service phase could not produce a valid measurement."""


def pin_cpu() -> int:
    """Pin this process to one CPU; servers are started on it too.

    In a closed loop one side always waits for the other, so sharing a
    CPU costs little.  It keeps every hand-off on a CPU that is already
    running instead of waking an idle virtual CPU, whose wake-up delay
    follows the host's load rather than the program's work."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tenant_keys(seed: int) -> Dict[str, str]:
    rng = random.Random(f"keys:{seed}")
    return {t: "%032x" % rng.getrandbits(128) for t in TENANTS}


class Server:
    """A subprocess that prints ``listening on HOST:PORT`` once ready."""

    def __init__(self, argv: List[str], cwd: str, env: Dict[str, str],
                 log: str, cpu: int):
        self.argv = argv
        self.cwd = cwd
        self.env = env
        self.log_path = log
        self.cpu = cpu
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None
        self._log = None

    def start(self, timeout: float = 60.0) -> Tuple[str, int]:
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            self.argv, cwd=self.cwd, env=self.env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        _LIVE.append(self)
        # before the interpreter starts any thread, so all inherit it
        os.sched_setaffinity(self.proc.pid, {self.cpu})
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=0.05)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            m = _LISTENING.search(line)
            if m:
                self.address = (m.group(1), int(m.group(2)))
                return self.address
        raise BenchError(f"{self.argv[1:4]} did not report a listening port")

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)

    def vm_hwm(self) -> int:
        """Peak resident set (``VmHWM``), in bytes."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
        raise BenchError("no VmHWM line for the daemon")

    def stop(self) -> None:
        proc = self.proc
        if proc is not None and proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=5)
        if proc is not None and proc.stdout is not None:
            proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None
        if self in _LIVE:
            _LIVE.remove(self)


class Daemon(Server):
    """``repro-race serve`` on an ephemeral port, keyed per tenant."""

    def __init__(self, root: str, workdir: str, keys: Dict[str, str], cpu: int):
        ckpts = os.path.join(workdir, "ckpts")
        os.makedirs(ckpts, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        super().__init__(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
             "--port", "0", "--checkpoint-root", ckpts,
             "--keys", json.dumps(keys)],
            root, env, os.path.join(workdir, "daemon.log"), cpu,
        )
        self.keys = keys


def echo_server(workdir: str, cpu: int) -> Server:
    return Server([sys.executable, os.path.abspath(echo.__file__)], workdir,
                  dict(os.environ), os.path.join(workdir, "echo.log"), cpu)


def stop_all() -> None:
    """Stop every server still running (called on every exit path)."""
    for d in list(_LIVE):
        try:
            d.stop()
        except Exception:  # noqa: BLE001 - keep stopping the rest
            if d.proc is not None and d.proc.poll() is None:
                d.proc.kill()


def connect(address, tenant: str, key: str) -> Detector:
    return Detector(
        DYNAMIC, address=address, tenant=tenant, key=key,
        batch_events=BATCH, timeout=60.0, options={"suppress": True},
    )


def setup_probe(root: str, workdir: str, keys: Dict[str, str], cpu: int) -> float:
    """Seconds from spawning a daemon until both tenants have their
    WELCOME.  The probe daemon is stopped again."""
    daemon = Daemon(root, workdir, keys, cpu)
    try:
        t0 = time.perf_counter()
        address = daemon.start()
        sessions = [connect(address, t, keys[t]) for t in TENANTS]
        elapsed = time.perf_counter() - t0
        for det in sessions:
            det.close()
    finally:
        daemon.stop()
    return elapsed


class _Session:
    def __init__(self, tenant: str, trace: int):
        self.tenant = tenant
        self.trace = trace
        self.latencies: List[float] = []
        self.result: Optional[dict] = None
        self.first = 0.0
        self.end = 0.0
        self.reconnects = 0
        self.error: Optional[BaseException] = None


def _stream(det: Detector, events: List[tuple], out: _Session) -> None:
    """Closed loop: send a batch, wait for its ACK, send the next."""
    try:
        out.first = time.perf_counter()
        for start in range(0, len(events), BATCH):
            batch = events[start:start + BATCH]
            t0 = time.perf_counter()
            det.feed(batch)
            det.sync()
            out.latencies.append(time.perf_counter() - t0)
        out.result = det.finish()
        out.end = time.perf_counter()
        out.reconnects = det.reconnects
    except Exception as exc:  # noqa: BLE001 - re-raised by the caller
        out.error = exc
        det.close()


def local_result(events: List[tuple]) -> bytes:
    """The RESULT body an uninterrupted local run produces (races +
    stats), in the wire's canonical JSON."""
    det = create_detector(DYNAMIC, suppress=default_suppression)
    for ev in events:
        dispatch_event(det, ev)
    det.finish()
    return P.dumps_canonical(canonical(det.races, det.statistics()))


class ServiceRun:
    """Slices of live streaming against one daemon, and their check.

    A slice opens one session per tenant and streams one whole trace on
    each, both tenants at once; slice ``i`` uses trace ``i mod k``.
    Then the same frames go through the bare transport."""

    def __init__(self, daemon: Daemon, echo_address,
                 traces: Dict[str, List[List[tuple]]]):
        self.daemon = daemon
        self.echo_address = echo_address
        self.traces = traces
        self.sessions: List[_Session] = []
        self.stream_wall = 0.0
        self.echo_wall = 0.0
        #: each live ACK latency over the median bare one of its slice
        self.ack_ratios: List[float] = []
        self.slices = 0
        self.attempted = 0
        self.failures: List[str] = []
        self.stats: dict = {}
        self.rss = 0

    def slice(self) -> None:
        k = self.slices % len(self.traces[TENANTS[0]])
        address, keys = self.daemon.address, self.daemon.keys
        dets = [connect(address, t, keys[t]) for t in TENANTS]
        outs = [_Session(t, k) for t in TENANTS]
        threads = [
            threading.Thread(target=_stream, args=(det, self.traces[t][k], out),
                             daemon=True)
            for t, det, out in zip(TENANTS, dets, outs)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for out in outs:
            if out.error is not None:
                raise BenchError(f"{out.tenant}: {out.error!r}")
        frames = [echo.frames_for(len(self.traces[t][k]), BATCH) for t in TENANTS]
        wall, bare = echo.stream_pair(self.echo_address, frames)
        unit = median(bare)
        self.ack_ratios += [x / unit for o in outs for x in o.latencies]
        self.echo_wall += wall
        self.sessions.extend(outs)
        self.stream_wall += max(o.end for o in outs) - min(o.first for o in outs)
        self.slices += 1

    def daemon_stats(self) -> dict:
        """The STATS frame and peak RSS; call before stopping the daemon."""
        self.stats = server_stats(self.daemon.address)
        self.rss = self.daemon.vm_hwm()
        return self.stats

    def check(self) -> None:
        want: Dict[Tuple[str, int], bytes] = {}
        for s in self.sessions:
            key = (s.tenant, s.trace)
            if key not in want:
                want[key] = local_result(self.traces[s.tenant][s.trace])
            self.attempted += 1
            got = P.dumps_canonical(
                {"races": s.result["races"], "stats": s.result["stats"]}
            )
            if got != want[key]:
                self.failures.append(
                    f"{s.tenant} session on trace {s.trace}: RESULT differs "
                    "from a local run"
                )

    def latencies(self) -> List[float]:
        return [x for s in self.sessions for x in s.latencies]

    def metrics(self) -> Dict[str, float]:
        """Slowdowns over the bare transport, and the absolute figures."""
        lat = self.latencies()
        p95 = percentile(lat, 95)
        if p95.beyond < 10:
            raise BenchError(
                f"{p95.samples} ACK samples leave {p95.beyond} beyond p95 (need 10)"
            )
        return {
            "ingest_slowdown": self.stream_wall / self.echo_wall,
            "ack_p50_slowdown": percentile(self.ack_ratios, 50).value,
            "ack_p95_slowdown": percentile(self.ack_ratios, 95).value,
            "abs.ingest_events_per_s": self.events() / self.stream_wall,
            "abs.ack_p50_ms": 1e3 * percentile(lat, 50).value,
            "abs.ack_p95_ms": 1e3 * p95.value,
            "abs.bare_events_per_s": self.events() / self.echo_wall,
        }

    def events(self) -> int:
        return sum(s.result["events"] for s in self.sessions)

    def shadow_peak(self) -> int:
        """Summed over the RESULT bodies of each distinct trace streamed."""
        first = {}
        for s in self.sessions:
            first.setdefault((s.tenant, s.trace), s.result)
        return sum(r["stats"]["memory"]["total_peak"] for r in first.values())

    def reconnects(self) -> int:
        return sum(s.reconnects for s in self.sessions)


# ----------------------------------------------------------------------
# traced mode: the same batches, in process
# ----------------------------------------------------------------------
_BATCH_PARTS = ("protocol.unseal", "protocol.decode", "tenant.dispatch",
                "tenant.commit", "recovery.checkpoint")


def inprocess_feed(tracer: Tracer, tenant: str, key: str,
                   events: List[tuple], ckpt_dir: str, traced: bool) -> bytes:
    """encode/seal -> unseal/decode -> dispatch_chunk -> commit_chunk ->
    new_races per batch, then finish.  With ``traced`` every step is a
    span and the detector's callbacks are timed through a proxy;
    without it only the steps are spans.  Returns the canonical result."""
    proxies: List[DetectorProxy] = []

    def factory(name):
        proxy = DetectorProxy(create_detector(name, suppress=default_suppression))
        proxies.append(proxy)
        return proxy

    session = TenantSession(
        tenant, DYNAMIC, checkpoint_dir=ckpt_dir,
        suppress=default_suppression,
        detector_factory=factory if traced else None,
    )
    for seq, start in enumerate(range(0, len(events), BATCH)):
        batch = events[start:start + BATCH]
        with tracer.span("service.batch", request=f"{tenant}:{seq}"):
            with tracer.span("protocol.encode"):
                body = P.encode_events(batch)
            with tracer.span("protocol.seal"):
                sealed = P.seal(key, seq, P.T_EVENTS, body)
            tracer.count("protocol.wire_bytes", P.FRAME_HEADER_BYTES + len(sealed))
            with tracer.span("protocol.unseal"):
                body = P.unseal(key, seq, P.T_EVENTS, sealed)
            with tracer.span("protocol.decode"):
                rows = P.decode_events(body)
            with tracer.span("tenant.dispatch") as d:
                session.dispatch_chunk(rows)
                if traced:
                    proxies[-1].emit(tracer, d.start, prefix="tenant.detector")
            before = session.recovery["checkpoints_written"]
            with tracer.span("tenant.commit") as c:
                session.commit_chunk(rows)
                session.new_races()
            if session.recovery["checkpoints_written"] > before:
                c.name = "recovery.checkpoint"
                tracer.count("recovery.checkpoints")
                tracer.count(
                    "recovery.checkpoint_bytes",
                    os.path.getsize(session.checkpoints()[-1]),
                )
    with tracer.span("tenant.finish", request=f"{tenant}:finish") as f:
        result = session.finish()
        if traced:
            proxies[-1].emit(tracer, f.start, prefix="tenant.detector")
    return P.dumps_canonical({"races": result["races"], "stats": result["stats"]})


def batch_times(tracer: Tracer) -> List[float]:
    """In-process time per batch: unseal + decode + dispatch + commit."""
    return list(tracer.by_request(_BATCH_PARTS).values())


def service_layers(traced: Tracer, untraced: Tracer, speed: float,
                   ack_p50_ms: float, stats: dict, reconnects: int,
                   samples: int) -> Dict[str, float]:
    """``speed`` is the reference loop's time in the untraced feeds over
    its time in the traced ones; it rescales the traced batch times to
    the untraced feeds' machine speed before they are compared."""
    selfs = traced.self_times()
    inproc_ms = 1e3 * median(batch_times(untraced))
    traced_ms = 1e3 * median(batch_times(traced)) * speed
    return {
        "recovery.checkpoint_s": selfs.get("recovery.checkpoint", 0.0),
        "recovery.checkpoints": traced.counts["recovery.checkpoints"],
        "recovery.checkpoint_bytes": traced.counts["recovery.checkpoint_bytes"],
        "protocol.encode_s": selfs.get("protocol.encode", 0.0),
        "protocol.seal_s": selfs.get("protocol.seal", 0.0),
        "protocol.unseal_s": selfs.get("protocol.unseal", 0.0),
        "protocol.decode_s": selfs.get("protocol.decode", 0.0),
        "protocol.wire_bytes": traced.counts["protocol.wire_bytes"],
        "tenant.dispatch_s": selfs.get("tenant.dispatch", 0.0),
        "tenant.commit_s": selfs.get("tenant.commit", 0.0),
        "tenant.finish_s": selfs.get("tenant.finish", 0.0),
        "daemon.ack_p50_ms": ack_p50_ms,
        "daemon.inproc_batch_ms": inproc_ms,
        "daemon.overhead_ms": ack_p50_ms - inproc_ms,
        "daemon.sheds": stats.get("sheds", 0) + stats.get("idle_sheds", 0),
        "daemon.retries": stats.get("retries", 0),
        "client.reconnects": reconnects,
        "client.ack_samples": samples,
        "trace.service_overhead_pct": 100.0 * (traced_ms - inproc_ms) / ack_p50_ms,
    }
