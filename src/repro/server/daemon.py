"""The detection daemon: an asyncio, multi-tenant race-detection server.

One process serves many concurrent client sessions.  Each tenant gets
its own detector instance (optionally budget-guarded), its own ingest
queue, its own checkpoint directory and its own failure domain; the
design goal is that **no tenant can hurt another** — not with garbage
bytes, not with a firehose of events, not by wedging its detector, not
by dying mid-stream.

Robustness machinery, per tenant:

*Backpressure* — ingest is accounted in bytes against a high/low
watermark pair.  Above high the connection's transport stops reading
(TCP pushes back on the client); below low it resumes.  A tenant that
stays paused for ``shed_after`` seconds without draining is *shed*: a
typed ``OVERLOADED`` error, the session parked at its last commit
boundary for reconnect-resume, the connection closed.  Daemon memory
per tenant is therefore bounded by ``high_watermark`` + one transport
read buffer (frames already decoded when the pause lands) + the
bounded replay tail — there is no input path that grows without
limit.

*Watchdog* — every dispatch slice runs on an executor thread under a
deadline from the shared monotonic watchdog
(:mod:`repro.recovery.watchdog`).  A slice that blows its deadline is
*abandoned* (the thread's half-fed detector instance becomes garbage —
counters only move at commit boundaries) and the session migrates: a
fresh detector is restored from the newest checkpoint and re-fed the
committed tail, byte-identical to a never-interrupted run, with bounded
exponential backoff between attempts.  Injected ``DetectorKilled``
faults and genuine detector crashes take the same path.

*Typed errors* — malformed frames raise
:class:`~repro.server.protocol.ProtocolError`; the daemon answers with
the typed ``ERROR`` frame and poisons only that session (parked, so an
intact client may reconnect and resume from the acknowledged cursor).

*Drain* — ``shutdown()`` (wired to SIGTERM by the CLI) stops the
listener, quiesces every worker, rolls mid-chunk sessions back to their
commit boundary, checkpoints every live tenant, and notifies attached
clients with ``SHUTTING_DOWN``.  A restarted daemon adopts those
checkpoints when the client reconnects with ``resume: true``.

*Migration* (ALGORITHM.md §15) — a tenant can leave this host entirely:
``MIGRATE_EXPORT`` (operator request, or every live tenant
automatically when a drain runs with a configured ``peer``) quiesces
the session at a commit boundary and ships its newest checkpoint,
replay tail and race cursor to a peer daemon in one
``MIGRATE_IMPORT`` frame.  The peer verifies the checkpoint image,
adopts the session parked, and the source tells its client ``MIGRATED``
with the peer address and a one-time handoff token; the client's
journaled-suffix resend then lands on the new host and the stream
resumes byte-identically.

*Auth* — with per-tenant shared keys configured, HELLO is answered by a
CHALLENGE and the client proves key possession (HMAC, constant-time
compare) before a session exists; every subsequent client frame must
carry a valid integrity tag (``E_TAMPER`` otherwise), and a session can
rotate to a new accepted key mid-stream with REKEY.  Daemons without
keys skip all of it.
"""

from __future__ import annotations

import asyncio
import os
import secrets
import shutil
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.detectors.registry import canonical_name
from repro.recovery.session import DetectorKilled
from repro.recovery.watchdog import shared_watchdog
from repro.server import protocol as P
from repro.server.tenant import TENANT_RE, RecoveryExhausted, TenantSession

_FINISH = object()  # ingest-queue sentinel

@dataclass
class ServerConfig:
    """Tunables for one :class:`RaceServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read RaceServer.port after start
    checkpoint_root: str = "server-ckpts"
    detector: str = "fasttrack-byte"  # default; HELLO may override
    checkpoint_every: int = 2000
    keep_checkpoints: int = 3
    shadow_budget: Optional[int] = None  # per-tenant default budget
    max_frame: int = P.MAX_FRAME
    chunk_events: int = 1024  # dispatch/commit slice
    high_watermark: int = 1 << 20  # pause reading above (bytes queued)
    low_watermark: int = 1 << 18  # resume reading below
    shed_after: float = 5.0  # paused this long without draining -> shed
    out_buffer_cap: int = 8 << 20  # slow race-readers are shed too
    watchdog_timeout: float = 10.0  # per dispatch slice
    max_retries: int = 3
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_max: float = 0.5
    handshake_timeout: float = 5.0
    idle_timeout: Optional[float] = None  # silent mid-stream clients
    detach_ttl: float = 30.0  # parked-session lifetime
    allow_kill_injection: bool = True  # honour HELLO kill_at (tests/bench)
    executor_threads: int = 8
    #: Evacuation target: drain ships every live tenant here instead of
    #: parking it in the local checkpoint directory.
    peer: Optional[Tuple[str, int]] = None
    #: tenant -> shared key (hex string) or list of accepted keys; the
    #: ``"*"`` entry is the fleet-wide default.  None/empty = no auth.
    auth_keys: Optional[Dict[str, object]] = None
    migrate_timeout: float = 15.0  # per cross-host export round trip
    max_migrate_frame: int = P.MIGRATE_MAX_FRAME

    def __post_init__(self):
        if self.low_watermark >= self.high_watermark:
            raise ValueError(
                f"low watermark {self.low_watermark} must be below "
                f"high watermark {self.high_watermark}"
            )
        if self.chunk_events < 1:
            raise ValueError("chunk_events must be >= 1")
        if self.peer is not None:
            self.peer = (str(self.peer[0]), int(self.peer[1]))


def _set_event() -> asyncio.Event:
    ev = asyncio.Event()
    ev.set()
    return ev


@dataclass
class _Tenant:
    """Per-tenant server-side state: session + queue + wiring."""

    session: TenantSession
    worker: Optional[asyncio.Task] = None
    conn: Optional["_Conn"] = None
    queue: Deque[Union[object, tuple]] = field(default_factory=deque)
    waiter: asyncio.Event = field(default_factory=asyncio.Event)
    #: Set while the worker sits at a commit boundary with an empty
    #: queue; cleared while an ingest item is being dispatched.  A
    #: reattach WELCOME must wait for this (see _admit): its cursor is
    #: where the client resumes the resend, and a cursor that predates
    #: in-flight work would make the resent suffix overlap the commit.
    quiet: asyncio.Event = field(default_factory=_set_event)
    pending_bytes: int = 0
    max_pending_bytes: int = 0
    paused: bool = False
    shed_handle: Optional[asyncio.TimerHandle] = None
    detach_handle: Optional[asyncio.TimerHandle] = None
    dirty: bool = False  # a dispatch slice is in flight (not committed)
    gone: bool = False
    migrating: bool = False  # an export is in flight; refuse concurrent ops
    #: One-time token a migrated-in session requires at reattach; the
    #: source daemon hands it to the displaced client in MIGRATED.
    handoff: Optional[str] = None


class _Conn(asyncio.Protocol):
    """One client connection.  Thin: all logic lives on the server."""

    def __init__(self, server: "RaceServer"):
        self.server = server
        self.transport = None
        self.decoder = P.FrameDecoder(
            server.config.max_frame,
            max_large_frame=server.config.max_migrate_frame,
        )
        self.tenant: Optional[str] = None
        self.handshake_handle: Optional[asyncio.TimerHandle] = None
        self.idle_handle: Optional[asyncio.TimerHandle] = None
        self.closed = False
        # -- auth state (ALGORITHM.md §15) -----------------------------
        self.pending_hello: Optional[dict] = None  # parked while challenged
        self.nonce: Optional[bytes] = None
        self.auth_key: Optional[bytes] = None  # set => frames sealed
        self.recv_seq = 0

    # -- asyncio.Protocol ----------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._on_connect(self)

    def data_received(self, data: bytes) -> None:
        self.server._on_data(self, data)

    def connection_lost(self, exc) -> None:
        self.server._on_disconnect(self)

    # -- helpers --------------------------------------------------------
    def send(self, frame: bytes) -> None:
        if self.transport is not None and not self.transport.is_closing():
            self.transport.write(frame)

    def close(self) -> None:
        self.closed = True
        if self.transport is not None and not self.transport.is_closing():
            self.transport.close()


class RaceServer:
    """The daemon.  Create, then either ``await start()`` inside an
    event loop you own, or use :func:`start_server_thread` to run it on
    a background thread (tests, the load generator, embedding)."""

    def __init__(self, config: Optional[ServerConfig] = None, **overrides):
        if config is None:
            config = ServerConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config or keyword overrides")
        self.config = config
        self.port: Optional[int] = None
        self._listener = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tenants: Dict[str, _Tenant] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=config.executor_threads,
            thread_name_prefix="repro-server",
        )
        self._draining = False
        #: test hook: detector factories by name (falls back to registry)
        self.detector_factory = None
        self.stats: Dict[str, int] = {
            "connections_total": 0,
            "connections_open": 0,
            "sessions_started": 0,
            "sessions_finished": 0,
            "sessions_adopted": 0,
            "reconnects": 0,
            "protocol_errors": 0,
            "pauses": 0,
            "sheds": 0,
            "idle_sheds": 0,
            "wedges": 0,
            "kills": 0,
            "crashes": 0,
            "resumes": 0,
            "cold_restarts": 0,
            "retries": 0,
            "recovery_failures": 0,
            "frames": 0,
            "events_total": 0,
            "races_total": 0,
            "max_queue_bytes": 0,
            "drained_tenants": 0,
            "auth_challenges": 0,
            "auth_failures": 0,
            "tamper_rejects": 0,
            "rekeys": 0,
            "migrations_out": 0,
            "migrations_in": 0,
            "migrate_failures": 0,
            "evacuations": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._listener = await self._loop.create_server(
            lambda: _Conn(self), self.config.host, self.config.port
        )
        self.port = self._listener.sockets[0].getsockname()[1]
        os.makedirs(self.config.checkpoint_root, exist_ok=True)

    async def shutdown(self) -> None:
        """Drain: stop accepting, quiesce workers, then either evacuate
        every live tenant to the configured peer (``MIGRATED`` tells the
        client where to go) or checkpoint it locally at a commit
        boundary and notify with ``SHUTTING_DOWN``."""
        self._draining = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        for name, st in list(self._tenants.items()):
            if (
                self.config.peer is not None
                and not st.session.finished
                and not st.migrating
            ):
                ok, _detail = await self._migrate_tenant(
                    name, st, self.config.peer, evacuating=True
                )
                if ok:
                    self.stats["evacuations"] += 1
                    continue
                # Export failed: fall back to the local-park drain path.
            await self._quiesce(st)
            if not st.session.finished:
                try:
                    if st.dirty:
                        # Mid-chunk when cancelled: roll back to the
                        # committed boundary before snapshotting.
                        st.session.resume()
                        st.dirty = False
                    st.session.checkpoint_now()
                    self.stats["drained_tenants"] += 1
                except (RecoveryExhausted, Exception):  # noqa: BLE001
                    pass  # drain is best-effort per tenant
            if st.conn is not None:
                st.conn.send(
                    P.error_frame(
                        P.E_SHUTTING_DOWN, "server draining", fatal=True
                    )
                )
                st.conn.close()
            self._drop_tenant(name, st)
        self._pool.shutdown(wait=False, cancel_futures=True)

    async def _quiesce(self, st: _Tenant) -> None:
        if st.worker is not None and not st.worker.done():
            st.worker.cancel()
            try:
                await st.worker
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass

    async def serve_forever(self) -> None:
        """start() + run until cancelled (the CLI wires SIGTERM/SIGINT
        to :meth:`shutdown` around this)."""
        await self.start()
        try:
            await self._listener.serve_forever()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # connection events
    # ------------------------------------------------------------------
    def _on_connect(self, conn: _Conn) -> None:
        self.stats["connections_total"] += 1
        self.stats["connections_open"] += 1
        if self._draining:
            conn.send(
                P.error_frame(P.E_SHUTTING_DOWN, "server draining", True)
            )
            conn.close()
            return
        conn.handshake_handle = self._loop.call_later(
            self.config.handshake_timeout, self._handshake_expired, conn
        )

    def _handshake_expired(self, conn: _Conn) -> None:
        if conn.tenant is None and not conn.closed:
            conn.send(
                P.error_frame(
                    P.E_IDLE_TIMEOUT, "no HELLO within handshake window", True
                )
            )
            conn.close()

    def _reset_idle(self, conn: _Conn) -> None:
        timeout = self.config.idle_timeout
        if timeout is None:
            return
        if conn.idle_handle is not None:
            conn.idle_handle.cancel()
        conn.idle_handle = self._loop.call_later(
            timeout, self._idle_expired, conn
        )

    def _idle_expired(self, conn: _Conn) -> None:
        """A mid-stream client went silent (the ``stall-client`` fault):
        shed the connection, park the session for reconnect-resume."""
        if conn.closed or conn.tenant is None:
            return
        st = self._tenants.get(conn.tenant)
        if st is not None and (st.queue or st.dirty):
            # The *detector* is still catching up; that is backpressure
            # territory, not client silence.
            self._reset_idle(conn)
            return
        self.stats["idle_sheds"] += 1
        conn.send(
            P.error_frame(
                P.E_IDLE_TIMEOUT,
                f"no data for {self.config.idle_timeout}s",
                True,
            )
        )
        conn.close()

    def _on_disconnect(self, conn: _Conn) -> None:
        self.stats["connections_open"] -= 1
        for handle in (conn.handshake_handle, conn.idle_handle):
            if handle is not None:
                handle.cancel()
        if conn.tenant is None:
            return
        st = self._tenants.get(conn.tenant)
        if st is None or st.conn is not conn:
            return
        st.conn = None
        st.paused = False
        if st.shed_handle is not None:
            st.shed_handle.cancel()
            st.shed_handle = None
        if st.session.finished or st.gone:
            return
        # Park for reconnect-resume; finalize if the client never
        # returns.
        st.detach_handle = self._loop.call_later(
            self.config.detach_ttl,
            lambda: asyncio.ensure_future(self._finalize_detached(conn.tenant)),
        )

    async def _finalize_detached(self, tenant: str) -> None:
        st = self._tenants.get(tenant)
        if st is None or st.conn is not None:
            return
        await self._quiesce(st)
        if st.conn is not None or st.gone or st.migrating:
            # A client reattached (or a drain/migration took over) while
            # the worker was being quiesced.  The session is live again:
            # put the worker back — its cancellation above would
            # otherwise strand the reattached client with an undrained
            # queue and no acks — and leave the state alone.
            if st.conn is not None and not st.gone and (
                st.worker is None or st.worker.done()
            ):
                st.worker = self._loop.create_task(self._worker(tenant, st))
            return
        try:
            if st.dirty:
                st.session.resume()
                st.dirty = False
            if not st.session.finished:
                st.session.checkpoint_now()
        except (RecoveryExhausted, Exception):  # noqa: BLE001
            pass
        self._drop_tenant(tenant, st)

    def _drop_tenant(self, tenant: str, st: _Tenant) -> None:
        st.gone = True
        if st.detach_handle is not None:
            st.detach_handle.cancel()
        if st.shed_handle is not None:
            st.shed_handle.cancel()
        st.quiet.set()  # release any reattach waiting on the boundary
        self._tenants.pop(tenant, None)

    # ------------------------------------------------------------------
    # frame handling
    # ------------------------------------------------------------------
    def _on_data(self, conn: _Conn, data: bytes) -> None:
        self._reset_idle(conn)
        try:
            frames = conn.decoder.feed(data)
            for ftype, payload in frames:
                self._on_frame(conn, ftype, payload)
        except P.ProtocolError as exc:
            self._poison(conn, exc)

    def _poison(self, conn: _Conn, exc: P.ProtocolError) -> None:
        """Typed error for this session only; everyone else unaffected."""
        self.stats["protocol_errors"] += 1
        conn.send(P.error_frame(exc.code, exc.message, fatal=True))
        conn.close()  # _on_disconnect parks the session, if any

    def _on_frame(self, conn: _Conn, ftype: int, payload: bytes) -> None:
        self.stats["frames"] += 1
        if conn.tenant is None and ftype in (
            P.T_MIGRATE_EXPORT,
            P.T_MIGRATE_IMPORT,
        ):
            # Operator / daemon-to-daemon ops: sessionless, no HELLO.
            if conn.handshake_handle is not None:
                conn.handshake_handle.cancel()
            if ftype == P.T_MIGRATE_EXPORT:
                self._on_migrate_export(conn, payload)
            else:
                self._on_migrate_import(conn, payload)
            return
        if conn.pending_hello is not None:
            if ftype != P.T_AUTH:
                raise P.ProtocolError(
                    P.E_AUTH,
                    f"expected AUTH after CHALLENGE, got "
                    f"{P.TYPE_NAMES.get(ftype, hex(ftype))}",
                )
            self._on_auth(conn, payload)
            return
        if conn.auth_key is not None and ftype in P.SEALED_TYPES:
            try:
                payload = P.unseal(
                    conn.auth_key, conn.recv_seq, ftype, payload
                )
            except P.ProtocolError:
                self.stats["tamper_rejects"] += 1
                raise
            conn.recv_seq += 1
        if ftype == P.T_STATS_REQ:
            conn.send(P.pack_frame(P.T_STATS, P.dumps_canonical(self.snapshot_stats())))
            return
        if conn.tenant is None:
            if ftype != P.T_HELLO:
                raise P.ProtocolError(
                    P.E_BAD_FRAME,
                    f"{P.TYPE_NAMES.get(ftype, hex(ftype))} before HELLO",
                )
            self._on_hello(conn, payload)
            return
        if ftype == P.T_HELLO:
            raise P.ProtocolError(P.E_BAD_HELLO, "duplicate HELLO")
        if ftype == P.T_REKEY:
            self._on_rekey(conn, payload)
            return
        st = self._tenants.get(conn.tenant)
        if st is None or st.conn is not conn:
            return  # session already gone; ignore the straggler
        if ftype == P.T_EVENTS:
            rows = P.decode_events(payload)
            if rows:
                self._enqueue(st, rows, len(payload))
        elif ftype == P.T_FINISH:
            self._enqueue(st, _FINISH, 0)
        else:
            raise P.ProtocolError(
                P.E_BAD_FRAME,
                f"unexpected {P.TYPE_NAMES.get(ftype, hex(ftype))} "
                "from a client",
            )

    # -- auth -----------------------------------------------------------
    def _keys_for(self, tenant: str) -> List[bytes]:
        """Accepted keys for a tenant: its own entry, or the ``"*"``
        fleet-wide default when it has none — a dedicated key *replaces*
        the fleet key rather than adding to it, so the fleet key cannot
        open a specially-keyed tenant.  Either form may be a single key
        or a rotation list.  Empty list = unauthenticated."""
        conf = self.config.auth_keys
        if not conf:
            return []
        entry = conf.get(tenant)
        if entry is None:
            entry = conf.get("*")
        if entry is None:
            return []
        if isinstance(entry, (list, tuple)):
            return [P.as_key(k) for k in entry]
        return [P.as_key(entry)]

    def add_key(self, tenant: str, key) -> None:
        """Accept an additional key for ``tenant`` — the rotation flow:
        the operator adds the new key fleet-wide, live sessions REKEY to
        it without disconnecting, then the old key is removed."""
        if self.config.auth_keys is None:
            self.config.auth_keys = {}
        conf = self.config.auth_keys
        entry = conf.get(tenant)
        if entry is None:
            conf[tenant] = [key]
        elif isinstance(entry, list):
            entry.append(key)
        else:
            conf[tenant] = [entry, key]

    def _on_auth(self, conn: _Conn, payload: bytes) -> None:
        options, conn.pending_hello = conn.pending_hello, None
        tenant = str(options["tenant"])
        body = P.loads_json(payload)
        mac = str(body.get("mac", ""))
        for key in self._keys_for(tenant):
            if P.macs_equal(mac, P.hello_mac(key, conn.nonce, tenant)):
                conn.auth_key = key
                break
        else:
            self.stats["auth_failures"] += 1
            raise P.ProtocolError(
                P.E_AUTH, f"bad authentication response for {tenant!r}"
            )
        self._admit(conn, options)

    def _on_rekey(self, conn: _Conn, payload: bytes) -> None:
        """Rotate the session key mid-stream: the (old-key-sealed) REKEY
        proves possession of another accepted key, bound to this
        connection's nonce; subsequent frames seal under the new key."""
        if conn.auth_key is None:
            raise P.ProtocolError(
                P.E_BAD_FRAME, "REKEY on an unauthenticated connection"
            )
        body = P.loads_json(payload)
        proof = str(body.get("proof", ""))
        for key in self._keys_for(conn.tenant):
            if P.macs_equal(
                proof, P.rekey_proof(key, conn.nonce, conn.tenant)
            ):
                conn.auth_key = key
                self.stats["rekeys"] += 1
                return
        self.stats["auth_failures"] += 1
        raise P.ProtocolError(
            P.E_AUTH, "rekey proof matches no accepted key"
        )

    # -- HELLO ----------------------------------------------------------
    def _on_hello(self, conn: _Conn, payload: bytes) -> None:
        options = P.decode_hello(payload)
        tenant = str(options["tenant"])
        if not TENANT_RE.match(tenant):
            raise P.ProtocolError(
                P.E_BAD_HELLO, f"invalid tenant id {tenant!r}"
            )
        if self._draining:
            conn.send(
                P.error_frame(P.E_SHUTTING_DOWN, "server draining", True)
            )
            conn.close()
            return
        if self._keys_for(tenant) and conn.auth_key is None:
            # Authenticated tenant: prove key possession before any
            # session state exists.
            conn.pending_hello = options
            conn.nonce = secrets.token_bytes(P.NONCE_BYTES)
            self.stats["auth_challenges"] += 1
            conn.send(
                P.pack_frame(
                    P.T_CHALLENGE,
                    P.dumps_canonical({"nonce": conn.nonce.hex()}),
                )
            )
            return
        self._admit(conn, options)

    def _admit(self, conn: _Conn, options: dict) -> None:
        tenant = str(options["tenant"])
        st = self._tenants.get(tenant)
        if st is not None:
            if st.conn is not None or st.migrating:
                raise P.ProtocolError(
                    P.E_TENANT_BUSY,
                    f"tenant {tenant!r} already has a live connection",
                )
            if st.handoff is not None:
                # Migrated-in session: only the displaced client may
                # claim it — by the token MIGRATED handed it, or (a
                # client that lost the connection before MIGRATED could
                # be delivered) by proving the tenant key, which is a
                # strictly stronger credential than the token.
                supplied = str(options.get("handoff") or "")
                if conn.auth_key is None and not P.macs_equal(
                    supplied, st.handoff
                ):
                    self.stats["auth_failures"] += 1
                    raise P.ProtocolError(
                        P.E_AUTH,
                        f"bad or missing handoff token for {tenant!r}",
                    )
                st.handoff = None  # one-time
            # Reconnect to a parked session.
            if st.detach_handle is not None:
                st.detach_handle.cancel()
                st.detach_handle = None
            st.conn = conn
            conn.tenant = tenant
            if st.queue or st.dirty or not st.quiet.is_set():
                # The worker still holds items the previous attachment
                # delivered.  The WELCOME cursor is where the client
                # resumes its resend, so it must wait for the commit
                # boundary: a cursor that predates in-flight work would
                # make the resent suffix overlap what is about to
                # commit — the overlap dispatched twice, the cursor
                # inflated past the journal, and a later window of the
                # stream silently skipped.
                self._loop.create_task(self._finish_reattach(conn, st))
                return
            st.session.reattach()
            self.stats["reconnects"] += 1
            self._welcome(conn, st, "reattached")
            self._flush_races(st)
            return
        session = self._build_session(tenant, options)
        st = _Tenant(session=session)
        st.conn = conn
        conn.tenant = tenant
        self._tenants[tenant] = st
        return self._admit_new(conn, st)

    async def _finish_reattach(self, conn: _Conn, st: _Tenant) -> None:
        """Complete a reattach once the worker drains the previous
        attachment's pending items (see _admit).  The client is blocked
        waiting for WELCOME, so nothing new is enqueued meanwhile; acks
        and races the worker streams while catching up go to the
        already-claimed connection and are consumed pre-WELCOME."""
        while True:
            await st.quiet.wait()
            if not st.queue:
                break
            # The worker is about to pop the next item and clear the
            # flag again; yield until the boundary is real.
            await asyncio.sleep(0)
        if conn.closed or st.conn is not conn:
            return
        if st.gone:
            # The session retired while we waited (drained, finished,
            # or failed); send a steering error so the client retries
            # and takes the fresh-session or failover path.
            code = P.E_SHUTTING_DOWN if self._draining else P.E_OVERLOADED
            conn.send(
                P.error_frame(code, "session retired during reattach", True)
            )
            conn.close()
            return
        st.session.reattach()
        self.stats["reconnects"] += 1
        self._welcome(conn, st, "reattached")
        self._flush_races(st)

    def _admit_new(self, conn: _Conn, st: _Tenant) -> None:
        st.worker = self._loop.create_task(
            self._worker(st.session.tenant, st)
        )
        self.stats["sessions_started"] += 1
        kind = "adopted" if st.session.events_done else "new"
        if kind == "adopted":
            self.stats["sessions_adopted"] += 1
        self._welcome(conn, st, kind)
        if conn.handshake_handle is not None:
            conn.handshake_handle.cancel()

    def _build_session(self, tenant: str, options: dict) -> TenantSession:
        cfg = self.config
        detector = str(options.get("detector", cfg.detector))
        try:
            detector = canonical_name(detector)
        except ValueError:
            raise P.ProtocolError(
                P.E_UNKNOWN_DETECTOR, f"unknown detector {detector!r}"
            ) from None
        suppress = None
        if options.get("suppress"):
            from repro.workloads.base import default_suppression

            suppress = default_suppression
        kill_at = None
        if cfg.allow_kill_injection and options.get("kill_at"):
            raw = options["kill_at"]
            if not isinstance(raw, list) or not all(
                isinstance(k, int) and k >= 0 for k in raw
            ):
                raise P.ProtocolError(
                    P.E_BAD_HELLO, "kill_at must be a list of event indices"
                )
            kill_at = raw
        budget = options.get("shadow_budget", cfg.shadow_budget)
        if budget is not None and (
            not isinstance(budget, int) or budget < 1
        ):
            raise P.ProtocolError(
                P.E_BAD_HELLO, f"bad shadow_budget {budget!r}"
            )
        ckpt_dir = os.path.join(cfg.checkpoint_root, tenant)
        resume = bool(options.get("resume"))
        if not resume and os.path.isdir(ckpt_dir):
            # A fresh session must not inherit a previous incarnation's
            # checkpoints.
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        try:
            session = TenantSession(
                tenant,
                detector,
                checkpoint_dir=ckpt_dir,
                checkpoint_every=int(
                    options.get("checkpoint_every", cfg.checkpoint_every)
                ),
                shadow_budget=budget,
                suppress=suppress,
                kill_at=kill_at,
                keep_checkpoints=cfg.keep_checkpoints,
                detector_factory=self.detector_factory,
            )
        except (TypeError, ValueError) as exc:
            raise P.ProtocolError(P.E_BAD_HELLO, str(exc)) from exc
        if resume:
            session.adopt()
        return session

    def _welcome(self, conn: _Conn, st: _Tenant, kind: str) -> None:
        conn.send(
            P.pack_frame(
                P.T_WELCOME,
                P.dumps_canonical(
                    {
                        "tenant": st.session.tenant,
                        "detector": st.session.detector_name,
                        "events_done": st.session.events_done,
                        "races_sent": st.session.races_sent,
                        "session": kind,
                    }
                ),
            )
        )

    # ------------------------------------------------------------------
    # cross-host migration (ALGORITHM.md §15)
    # ------------------------------------------------------------------
    def _on_migrate_export(self, conn: _Conn, payload: bytes) -> None:
        """Operator request: push one live tenant to a peer daemon."""
        body = P.loads_json(payload)
        tenant = str(body.get("tenant", ""))
        peer = body.get("peer") or self.config.peer
        if not peer:
            conn.send(
                P.error_frame(
                    P.E_MIGRATE_FAILED,
                    "no peer given and none configured",
                    True,
                )
            )
            conn.close()
            return
        peer = (str(peer[0]), int(peer[1]))
        keys = self._keys_for(tenant)
        if keys:
            mac = str(body.get("mac", ""))
            if not any(
                P.macs_equal(mac, P.export_mac(k, tenant, peer))
                for k in keys
            ):
                self.stats["auth_failures"] += 1
                raise P.ProtocolError(
                    P.E_AUTH, f"migrate export of {tenant!r} not authorized"
                )
        st = self._tenants.get(tenant)
        if st is None:
            conn.send(
                P.error_frame(
                    P.E_NO_SUCH_TENANT, f"no live tenant {tenant!r}", True
                )
            )
            conn.close()
            return
        if st.migrating or st.session.finished:
            conn.send(
                P.error_frame(
                    P.E_MIGRATE_FAILED,
                    f"tenant {tenant!r} is finishing or already migrating",
                    True,
                )
            )
            conn.close()
            return
        self._loop.create_task(
            self._migrate_and_report(conn, tenant, st, peer)
        )

    async def _migrate_and_report(
        self, conn: _Conn, tenant: str, st: _Tenant, peer: Tuple[str, int]
    ) -> None:
        ok, detail = await self._migrate_tenant(tenant, st, peer)
        if ok:
            conn.send(
                P.pack_frame(P.T_MIGRATE_ACK, P.dumps_canonical(detail))
            )
        else:
            conn.send(P.error_frame(P.E_MIGRATE_FAILED, str(detail), True))
        conn.close()

    async def _migrate_tenant(
        self,
        tenant: str,
        st: _Tenant,
        peer: Tuple[str, int],
        evacuating: bool = False,
    ):
        """Quiesce at a commit boundary, ship checkpoint + tail + race
        cursor to ``peer``, await its MIGRATE_ACK, then displace the
        attached client (MIGRATED + peer address + handoff token) and
        forget the tenant.  On any failure the session stays here: the
        worker restarts (unless we are draining anyway) and the source
        remains authoritative — the tenant only ever exists on one host.
        Returns ``(ok, ack_or_reason)``."""
        st.migrating = True
        try:
            await self._quiesce(st)
            session = st.session
            if session.finished:
                return False, "session already finished"
            if st.dirty:
                # Mid-chunk when cancelled: roll back to the committed
                # boundary so the export is exactly the committed state.
                await self._loop.run_in_executor(self._pool, session.resume)
                st.dirty = False
            header, ckpt_blob, tail = await self._loop.run_in_executor(
                self._pool, session.export_state
            )
            # A handoff token only matters if there is a displaced
            # client to give it to; unattended sessions rely on the
            # shared key (if any) at reattach time.
            token = secrets.token_hex(16) if st.conn is not None else ""
            header["token"] = token
            keys = self._keys_for(tenant)
            if keys:
                header["mac"] = P.import_mac(
                    keys[0], tenant, token, ckpt_blob
                )
            payload = P.encode_migrate_import(header, ckpt_blob, tail)
            try:
                ack = await asyncio.wait_for(
                    self._ship_import(peer, payload),
                    self.config.migrate_timeout,
                )
            except Exception as exc:  # noqa: BLE001 - source keeps tenant
                self.stats["migrate_failures"] += 1
                if not evacuating and not st.gone:
                    st.worker = self._loop.create_task(
                        self._worker(tenant, st)
                    )
                return False, f"{type(exc).__name__}: {exc}"
            self.stats["migrations_out"] += 1
            if st.conn is not None:
                st.conn.send(
                    P.error_frame(
                        P.E_MIGRATED,
                        f"tenant {tenant!r} migrated to "
                        f"{peer[0]}:{peer[1]}",
                        True,
                        peer=[peer[0], peer[1]],
                        token=token,
                    )
                )
                st.conn.close()
            self._drop_tenant(tenant, st)
            return True, ack
        finally:
            st.migrating = False

    async def _ship_import(
        self, peer: Tuple[str, int], payload: bytes
    ) -> dict:
        reader, writer = await asyncio.open_connection(peer[0], peer[1])
        try:
            writer.write(P.pack_frame(P.T_MIGRATE_IMPORT, payload))
            await writer.drain()
            decoder = P.FrameDecoder(self.config.max_frame)
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    raise ConnectionError(
                        "peer closed before acknowledging the import"
                    )
                for ftype, body in decoder.feed(data):
                    if ftype == P.T_MIGRATE_ACK:
                        return P.loads_json(body)
                    if ftype == P.T_ERROR:
                        err = P.loads_json(body)
                        raise ConnectionError(
                            f"peer refused import: {err.get('code')}: "
                            f"{err.get('message')}"
                        )
        finally:
            writer.close()

    def _on_migrate_import(self, conn: _Conn, payload: bytes) -> None:
        """Adopt a session another daemon exported: verify, land the
        checkpoint image, restore, park for the displaced client."""
        header, ckpt_blob, tail = P.decode_migrate_import(payload)
        tenant = str(header["tenant"])
        if not TENANT_RE.match(tenant):
            raise P.ProtocolError(
                P.E_BAD_PAYLOAD, f"invalid tenant id {tenant!r}"
            )
        token = str(header.get("token") or "")
        keys = self._keys_for(tenant)
        if keys:
            mac = str(header.get("mac", ""))
            if not any(
                P.macs_equal(mac, P.import_mac(k, tenant, token, ckpt_blob))
                for k in keys
            ):
                self.stats["auth_failures"] += 1
                raise P.ProtocolError(
                    P.E_AUTH, f"migrate import of {tenant!r} not authorized"
                )
        if self._draining:
            conn.send(
                P.error_frame(P.E_SHUTTING_DOWN, "server draining", True)
            )
            conn.close()
            return
        if tenant in self._tenants:
            conn.send(
                P.error_frame(
                    P.E_TENANT_BUSY,
                    f"tenant {tenant!r} is already live on this host",
                    True,
                )
            )
            conn.close()
            return
        cfg = self.config
        ckpt_dir = os.path.join(cfg.checkpoint_root, tenant)
        # The imported image is the authoritative state; a stale local
        # directory from a previous incarnation must not shadow it.
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        try:
            session = TenantSession(
                tenant,
                str(header["detector"]),
                checkpoint_dir=ckpt_dir,
                checkpoint_every=int(
                    header.get("checkpoint_every", cfg.checkpoint_every)
                ),
                shadow_budget=header.get("shadow_budget"),
                keep_checkpoints=cfg.keep_checkpoints,
                detector_factory=self.detector_factory,
            )
            session.adopt_import(header, ckpt_blob, tail)
        except Exception as exc:  # noqa: BLE001 - refuse, keep serving
            self.stats["migrate_failures"] += 1
            conn.send(P.error_frame(P.E_MIGRATE_FAILED, str(exc), True))
            conn.close()
            return
        st = _Tenant(session=session)
        st.handoff = token or None
        self._tenants[tenant] = st
        st.worker = self._loop.create_task(self._worker(tenant, st))
        self.stats["migrations_in"] += 1
        self.stats["sessions_started"] += 1
        self.stats["sessions_adopted"] += 1
        # Parked: the displaced client has detach_ttl to show up.
        st.detach_handle = self._loop.call_later(
            cfg.detach_ttl,
            lambda: asyncio.ensure_future(self._finalize_detached(tenant)),
        )
        conn.send(
            P.pack_frame(
                P.T_MIGRATE_ACK,
                P.dumps_canonical(
                    {
                        "tenant": tenant,
                        "events_done": session.events_done,
                        "races_sent": session.races_sent,
                    }
                ),
            )
        )
        conn.close()

    # ------------------------------------------------------------------
    # ingest queue + backpressure
    # ------------------------------------------------------------------
    def _enqueue(self, st: _Tenant, item, nbytes: int) -> None:
        st.queue.append((item, nbytes))
        st.pending_bytes += nbytes
        st.max_pending_bytes = max(st.max_pending_bytes, st.pending_bytes)
        self.stats["max_queue_bytes"] = max(
            self.stats["max_queue_bytes"], st.pending_bytes
        )
        st.waiter.set()
        if (
            not st.paused
            and st.conn is not None
            and st.pending_bytes > self.config.high_watermark
        ):
            st.paused = True
            self.stats["pauses"] += 1
            try:
                st.conn.transport.pause_reading()
            except Exception:  # noqa: BLE001 - transport already gone
                pass
            st.shed_handle = self._loop.call_later(
                self.config.shed_after, self._maybe_shed, st
            )

    def _consumed(self, st: _Tenant, nbytes: int) -> None:
        st.pending_bytes -= nbytes
        if (
            st.paused
            and st.pending_bytes < self.config.low_watermark
        ):
            st.paused = False
            if st.shed_handle is not None:
                st.shed_handle.cancel()
                st.shed_handle = None
            if st.conn is not None:
                try:
                    st.conn.transport.resume_reading()
                except Exception:  # noqa: BLE001
                    pass

    def _maybe_shed(self, st: _Tenant) -> None:
        """Still paused after the grace window: the tenant's detector is
        not keeping up with its client.  Shed the connection (typed
        OVERLOADED), drop the *unprocessed* queue, park the session at
        its commit boundary for reconnect-resume."""
        st.shed_handle = None
        if not st.paused or st.conn is None:
            return
        self.stats["sheds"] += 1
        st.conn.send(
            P.error_frame(
                P.E_OVERLOADED,
                f"ingest stalled above watermark for "
                f"{self.config.shed_after}s; reconnect to resume from the "
                f"acknowledged cursor",
                fatal=True,
            )
        )
        # Unprocessed frames are discarded — the client resends from the
        # WELCOME cursor on reconnect.  A FINISH sentinel must survive.
        st.queue = deque(
            (item, n) for item, n in st.queue if item is _FINISH
        )
        st.pending_bytes = 0
        st.paused = False
        st.conn.close()

    # ------------------------------------------------------------------
    # the per-tenant worker
    # ------------------------------------------------------------------
    async def _worker(self, tenant: str, st: _Tenant) -> None:
        session = st.session
        cfg = self.config
        try:
            if st.dirty:
                # Restarted after a quiesce cancelled a dispatch whose
                # thread may still feed the detector: roll back to the
                # committed boundary before re-dispatching the rest.
                await self._loop.run_in_executor(self._pool, session.resume)
                st.dirty = False
            while True:
                while not st.queue:
                    st.quiet.set()
                    st.waiter.clear()
                    await st.waiter.wait()
                st.quiet.clear()
                item, nbytes = st.queue.popleft()
                if item is _FINISH:
                    result = session.finish()
                    self.stats["sessions_finished"] += 1
                    self.stats["races_total"] += len(result["races"])
                    self._merge_recovery(session)
                    if st.conn is not None:
                        st.conn.send(
                            P.pack_frame(
                                P.T_RESULT, P.dumps_canonical(result)
                            )
                        )
                        st.conn.close()
                    self._drop_tenant(tenant, st)
                    return
                rows = item
                for start in range(0, len(rows), cfg.chunk_events):
                    chunk = rows[start : start + cfg.chunk_events]
                    try:
                        await self._dispatch_guarded(st, chunk)
                    except asyncio.CancelledError:
                        # Quiesced mid-item (export, drain, detach): put
                        # the uncommitted remainder back, or a restarted
                        # worker would commit the next item at this
                        # item's cursor and skip a window of the stream.
                        st.queue.appendleft((rows[start:], nbytes))
                        raise
                    session.commit_chunk(chunk)
                    st.dirty = False
                    self.stats["events_total"] += len(chunk)
                    self._flush_races(st)
                self._consumed(st, nbytes)
                if st.conn is not None:
                    st.conn.send(
                        P.ack_frame(session.events_done, session.races_sent)
                    )
        except asyncio.CancelledError:
            raise
        except RecoveryExhausted as exc:
            self.stats["recovery_failures"] += 1
            self._merge_recovery(session)
            if st.conn is not None:
                st.conn.send(
                    P.error_frame(P.E_RECOVERY_FAILED, str(exc), True)
                )
                st.conn.close()
            self._drop_tenant(tenant, st)
        except Exception as exc:  # noqa: BLE001 - never kill the daemon
            if self._draining:
                # A hard-killed or draining daemon tears the executor
                # out from under in-flight workers; that is the injected
                # crash, not a recovery failure of this tenant — and the
                # client must fail over, not abort.  INTERNAL is fatal
                # client-side; SHUTTING_DOWN steers it to a peer.
                code = P.E_SHUTTING_DOWN
            else:
                self.stats["recovery_failures"] += 1
                code = P.E_INTERNAL
            if st.conn is not None:
                st.conn.send(P.error_frame(code, str(exc), True))
                st.conn.close()
            self._drop_tenant(tenant, st)

    def _flush_races(self, st: _Tenant) -> None:
        """Stream newly found races; only advance the cursor when a
        connection is attached, so races found while parked are
        delivered on reattach."""
        if st.conn is None:
            return
        if (
            st.conn.transport is not None
            and st.conn.transport.get_write_buffer_size()
            > self.config.out_buffer_cap
        ):
            # The client is not reading its race stream: shed rather
            # than buffer without bound.
            self.stats["sheds"] += 1
            st.conn.send(
                P.error_frame(
                    P.E_OVERLOADED, "race stream not being consumed", True
                )
            )
            st.conn.close()
            return
        for race in st.session.new_races():
            st.conn.send(
                P.pack_frame(P.T_RACE, P.dumps_canonical({"race": race.as_list()}))
            )

    def _merge_recovery(self, session: TenantSession) -> None:
        rec = session.recovery
        self.stats["resumes"] += rec["resumes"]
        self.stats["cold_restarts"] += rec["cold_restarts"]
        self.stats["kills"] += rec["kills_fired"]
        self.stats["wedges"] += rec["wedges"]
        self.stats["crashes"] += rec["crashes"]
        self.stats["retries"] += rec["retries"]

    # -- guarded dispatch ----------------------------------------------
    async def _dispatch_guarded(self, st: _Tenant, chunk: List[tuple]) -> None:
        """Run one dispatch slice under the watchdog; on wedge, crash or
        injected kill, migrate the session (resume from checkpoint +
        tail) with bounded exponential backoff."""
        session = st.session
        cfg = self.config
        failures = 0
        while True:
            st.dirty = True
            wedged = self._loop.create_future()
            handle = shared_watchdog().arm(
                cfg.watchdog_timeout,
                on_expire=lambda: self._loop.call_soon_threadsafe(
                    lambda: wedged.done() or wedged.set_result(True)
                ),
            )
            fut = self._loop.run_in_executor(
                self._pool, session.bind_chunk(chunk)
            )
            try:
                done, _pending = await asyncio.wait(
                    {fut, wedged}, return_when=asyncio.FIRST_COMPLETED
                )
            except asyncio.CancelledError:
                handle.cancel()
                fut.add_done_callback(lambda f: f.exception())
                raise
            if fut in done:
                handle.cancel()
                if not wedged.done():
                    wedged.cancel()
                try:
                    fut.result()
                    return  # dispatched clean; caller commits
                except DetectorKilled:
                    pass  # planned: migrate without burning retry budget
                except Exception:  # noqa: BLE001
                    session.recovery["crashes"] += 1
                    failures += 1
            else:
                # Wedged: abandon the executor thread (its detector
                # instance is orphaned by resume()).
                session.recovery["wedges"] += 1
                failures += 1
                fut.add_done_callback(lambda f: f.exception())
            if failures > cfg.max_retries:
                raise RecoveryExhausted(
                    f"tenant {session.tenant}: giving up after "
                    f"{cfg.max_retries} retries"
                )
            if failures:
                session.recovery["retries"] += 1
                delay = min(
                    cfg.backoff_base * (cfg.backoff_factor ** (failures - 1)),
                    cfg.backoff_max,
                )
                if delay > 0:
                    await asyncio.sleep(delay)
            # Migrate: fresh detector at the committed boundary.
            await self._loop.run_in_executor(self._pool, session.resume)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def snapshot_stats(self) -> Dict[str, int]:
        live = {
            name: {
                "events_done": st.session.events_done,
                "pending_bytes": st.pending_bytes,
                "paused": st.paused,
                "attached": st.conn is not None,
            }
            for name, st in self._tenants.items()
        }
        out = dict(self.stats)
        out["tenants_live"] = len(live)
        out["tenants"] = live
        out["draining"] = self._draining
        return out


# ----------------------------------------------------------------------
# background-thread harness (tests, load generator, embedding)
# ----------------------------------------------------------------------
class ServerThread:
    """Run a :class:`RaceServer` on a dedicated thread + event loop."""

    def __init__(self, config: Optional[ServerConfig] = None, **overrides):
        import threading

        self.server = RaceServer(config, **overrides)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-server-loop", daemon=True
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot():
            await self.server.start()
            self._started.set()

        self._loop.run_until_complete(boot())
        self._loop.run_forever()
        # Drain any leftover callbacks scheduled during shutdown.
        self._loop.run_until_complete(asyncio.sleep(0))
        self._loop.close()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("server failed to start within 10s")
        return self

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self):
        return (self.server.config.host, self.server.port)

    def call(self, coro_factory):
        """Run a coroutine on the server loop, synchronously."""
        fut = asyncio.run_coroutine_threadsafe(coro_factory(), self._loop)
        return fut.result(timeout=30)

    def drain(self) -> None:
        """SIGTERM-equivalent: checkpoint every tenant and stop."""
        self.call(self.server.shutdown)

    def stop(self, drain: bool = True) -> None:
        """Drain (unless ``drain=False``) and stop; a no-op once the
        loop thread has exited, so a second stop, or a stop after
        :meth:`kill`, is safe."""
        if not self._thread.is_alive():
            return
        if drain and not self.server._draining:
            try:
                self.drain()
            except Exception:  # noqa: BLE001 - stop must succeed
                pass
        self._halt()

    def kill(self) -> None:
        """Hard-kill: abort every connection and stop with no drain and
        no checkpointing beyond what already hit disk — the host crash
        the soak harness injects.  Clients see a reset, fail over or
        reconnect-resume, and their journal resend covers whatever the
        lost incarnation had not committed.  A no-op once the loop
        thread has exited."""
        if not self._thread.is_alive():
            return

        async def _abort():
            srv = self.server
            srv._draining = True
            if srv._listener is not None:
                srv._listener.close()
            for st in list(srv._tenants.values()):
                if st.conn is not None and st.conn.transport is not None:
                    try:
                        st.conn.transport.abort()
                    except Exception:  # noqa: BLE001
                        pass
            srv._pool.shutdown(wait=False, cancel_futures=True)

        try:
            self.call(_abort)
        except Exception:  # noqa: BLE001 - kill must succeed
            pass
        self._halt()

    def _halt(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
