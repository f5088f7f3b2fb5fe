"""Daemon integration tests: multi-tenant robustness over real sockets.

Covers the acceptance criteria of the detection-as-a-service PR:

* a killed (injected or wedged) tenant resumes **byte-identical** to an
  uninterrupted run,
* backpressure pauses and then sheds — with a typed ``OVERLOADED``
  reply and without queue growth past the watermark,
* one malformed session never poisons another,
* SIGTERM drain checkpoints live tenants, and a restarted daemon adopts
  those checkpoints.
"""

import json
import os
import socket
import struct
import time

import pytest

from repro.server import protocol as P
from repro.server.client import Detector
from repro.server.daemon import ServerConfig, ServerThread
from repro.workloads.registry import build_trace

DETECTOR = "fasttrack-byte"


def _events(name="streamcluster", scale=0.05, seed=0):
    return [tuple(ev) for ev in build_trace(name, scale=scale, seed=seed).events]


def _body(result):
    return P.dumps_canonical(
        {"races": result["races"], "stats": result["stats"]}
    )


def _server(tmp_path, **overrides):
    overrides.setdefault("checkpoint_root", str(tmp_path / "ckpts"))
    overrides.setdefault("checkpoint_every", 400)
    return ServerThread(ServerConfig(**overrides))


class _Raw:
    """Socket-level client for protocol-abuse tests."""

    def __init__(self, address, tenant=None, timeout=10.0, **options):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.dec = P.FrameDecoder()
        if tenant is not None:
            options["tenant"] = tenant
            self.send(P.pack_frame(P.T_HELLO, P.encode_hello(options)))

    def send(self, data):
        self.sock.sendall(data)

    def expect(self, ftype, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("closed")
            for got, payload in self.dec.feed(data):
                if got == ftype:
                    return payload
        raise TimeoutError(f"no {P.TYPE_NAMES.get(ftype)} frame")

    def expect_error(self, timeout=10.0):
        return P.loads_json(self.expect(P.T_ERROR, timeout))

    def close(self):
        self.sock.close()


class TestBasicService:
    def test_single_session_byte_identical(self, tmp_path, local_baseline):
        events = _events()
        with _server(tmp_path) as h:
            det = Detector(
                "fasttrack", address=h.address, batch_events=512
            )
            streamed = []
            det.on_race(streamed.append)
            det.feed(events)
            result = det.finish()
        base = local_baseline(events)
        assert _body(result) == P.dumps_canonical(base)
        assert [r.as_list() for r in streamed] == base["races"]
        assert result["events"] == len(events)

    def test_many_concurrent_tenants_are_isolated(
        self, tmp_path, local_baseline
    ):
        import threading

        jobs = [("streamcluster", 0), ("x264", 1), ("canneal", 2),
                ("raytrace", 3)]
        results = {}
        with _server(tmp_path) as h:
            def run(name, seed):
                evs = _events(name, 0.05, seed)
                det = Detector(
                    "fasttrack",
                    address=h.address,
                    tenant=f"{name}-{seed}",
                    batch_events=256,
                )
                det.feed(evs)
                results[name] = (evs, det.finish())

            threads = [
                threading.Thread(target=run, args=job) for job in jobs
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert len(results) == len(jobs)
        for name, (evs, result) in results.items():
            want = P.dumps_canonical(local_baseline(evs))
            assert _body(result) == want, name

    def test_stats_frame(self, tmp_path):
        with _server(tmp_path) as h:
            raw = _Raw(h.address)
            raw.send(P.pack_frame(P.T_STATS_REQ))
            stats = P.loads_json(raw.expect(P.T_STATS))
            raw.close()
        assert stats["connections_total"] >= 1
        assert "tenants_live" in stats


class TestTypedErrors:
    def test_garbage_poisons_only_its_session(self, tmp_path, local_baseline):
        events = _events("raytrace", 0.05, 0)
        with _server(tmp_path) as h:
            good = Detector(
                "fasttrack", address=h.address, tenant="good",
                batch_events=64,
            )
            good.feed(events[: len(events) // 2])
            good.sync()
            bad = _Raw(h.address, tenant="bad")
            bad.expect(P.T_WELCOME)
            bad.send(b"\xde\xad\xbe\xef" * 8)
            err = bad.expect_error()
            assert err["code"] == P.E_BAD_FRAME
            # The good tenant is entirely unaffected.
            good.feed(events[len(events) // 2 :])
            result = good.finish()
            assert h.server.stats["protocol_errors"] == 1
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_oversized_frame_rejected_from_header(self, tmp_path):
        with _server(tmp_path, max_frame=4096) as h:
            raw = _Raw(h.address, tenant="big")
            raw.expect(P.T_WELCOME)
            raw.send(struct.pack("<BI", P.T_EVENTS, 1 << 28))
            err = raw.expect_error()
        assert err["code"] == P.E_FRAME_TOO_LARGE

    def test_events_before_hello(self, tmp_path):
        with _server(tmp_path) as h:
            raw = _Raw(h.address)
            raw.send(P.pack_frame(P.T_EVENTS, P.encode_events([(0, 0, 1, 1, 0)])))
            err = raw.expect_error()
        assert err["code"] == P.E_BAD_FRAME

    def test_unknown_detector(self, tmp_path):
        with _server(tmp_path) as h:
            raw = _Raw(h.address, tenant="x", detector="no-such-detector")
            err = raw.expect_error()
        assert err["code"] == P.E_UNKNOWN_DETECTOR

    def test_detector_aliases_resolve(self, tmp_path):
        with _server(tmp_path) as h:
            for i, (alias, canonical) in enumerate(
                (("dynamic", "fasttrack-dynamic"),
                 ("fasttrack", "fasttrack-byte"))
            ):
                raw = _Raw(h.address, tenant=f"a{i}", detector=alias)
                welcome = P.loads_json(raw.expect(P.T_WELCOME))
                raw.close()
                assert welcome["detector"] == canonical

    def test_budget_over_a_sampler_refused(self, tmp_path):
        with _server(tmp_path) as h:
            raw = _Raw(h.address, tenant="x", detector="pacer",
                       shadow_budget=32)
            err = raw.expect_error()
            raw.close()
        assert err["code"] == P.E_BAD_HELLO
        assert "cannot be enforced" in err["message"]

    def test_tenant_busy(self, tmp_path):
        with _server(tmp_path) as h:
            first = _Raw(h.address, tenant="dup")
            first.expect(P.T_WELCOME)
            second = _Raw(h.address, tenant="dup")
            err = second.expect_error()
            first.close()
        assert err["code"] == P.E_TENANT_BUSY

    def test_handshake_timeout(self, tmp_path):
        with _server(tmp_path, handshake_timeout=0.2) as h:
            raw = _Raw(h.address)  # never says HELLO
            err = raw.expect_error()
        assert err["code"] == P.E_IDLE_TIMEOUT

    def test_bad_hello_option(self, tmp_path):
        with _server(tmp_path) as h:
            raw = _Raw(h.address, tenant="x", shadow_budget="lots")
            err = raw.expect_error()
        assert err["code"] == P.E_BAD_HELLO


class TestMigration:
    def test_injected_kill_resumes_byte_identical(
        self, tmp_path, local_baseline
    ):
        events = _events()
        with _server(tmp_path) as h:
            det = Detector(
                "fasttrack",
                address=h.address,
                batch_events=256,
                options={"kill_at": [700, 2100]},
            )
            streamed = []
            det.on_race(streamed.append)
            det.feed(events)
            result = det.finish()
        base = local_baseline(events)
        assert _body(result) == P.dumps_canonical(base)
        # Races reach the client exactly once despite two migrations.
        assert [r.as_list() for r in streamed] == base["races"]
        rec = result["recovery"]
        assert rec["kills_fired"] == 2
        assert rec["resumes"] == 2

    def test_wedged_dispatch_is_killed_and_migrated(
        self, tmp_path, local_baseline
    ):
        """A detector that blocks forever trips the monotonic watchdog;
        the daemon abandons the dispatch thread, restores the newest
        checkpoint, and the result is still byte-identical."""
        events = _events("raytrace", 0.3, 0)

        class _Wedging:
            def __init__(self, inner, tripped):
                self._inner = inner
                self._tripped = tripped
                self._n = 0

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def on_write(self, tid, addr, size, site):
                self._n += 1
                if not self._tripped["done"] and self._n >= 50:
                    self._tripped["done"] = True
                    time.sleep(4.0)  # way past the watchdog deadline
                return self._inner.on_write(tid, addr, size, site)

        tripped = {"done": False}

        def factory(name):
            from repro.detectors.registry import create_detector

            return _Wedging(create_detector(DETECTOR), tripped)

        handle = _server(
            tmp_path, watchdog_timeout=0.3, checkpoint_every=100
        )
        handle.server.detector_factory = factory
        with handle as h:
            det = Detector(
                DETECTOR, address=h.address, batch_events=64, timeout=30
            )
            det.feed(events)
            result = det.finish()
            assert h.server.stats["wedges"] >= 1
        assert tripped["done"]
        rec = result["recovery"]
        assert rec["wedges"] >= 1
        # Early wedges may land before the first checkpoint: either a
        # checkpoint resume or a cold restart rebuilds the boundary.
        assert rec["resumes"] + rec["cold_restarts"] >= 1
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_drop_connection_reconnect_resumes(self, tmp_path, local_baseline):
        events = _events()
        with _server(tmp_path, detach_ttl=30.0) as h:
            det = Detector(
                "fasttrack", address=h.address, tenant="dropper",
                batch_events=256,
            )
            half = len(events) // 2
            det.feed(events[:half])
            det.sync()
            det._close_socket()  # vanish without a goodbye
            det._reconnect()
            assert det.welcome["session"] == "reattached"
            assert det.welcome["events_done"] == half
            det.feed(events[half:])
            result = det.finish()
            assert h.server.stats["reconnects"] == 1
        assert _body(result) == P.dumps_canonical(local_baseline(events))


class TestReattachBoundary:
    def test_reattach_mid_item_welcome_waits_for_commit(
        self, tmp_path, local_baseline, slow_factory
    ):
        """A reconnect that lands while the worker is still digesting
        the previous attachment's frames must not be welcomed at the
        stale committed cursor.  If it were, the client would resend
        from there, the in-flight items would commit anyway, and the
        overlap would be dispatched twice — inflating the cursor past
        the client's journal so a later window of the stream is
        silently skipped (double window + missing window, with the
        final event count exactly right: the chaos-soak divergence)."""
        events = _events()
        head = 2048
        handle = _server(tmp_path, detach_ttl=30.0, chunk_events=64)
        handle.server.detector_factory = slow_factory()  # ~0.4s for the head
        with handle as h:
            det = Detector(
                "fasttrack", address=h.address, tenant="midflight",
                batch_events=512,
            )
            det.feed(events[:head])  # flushed, NOT synced
            det._close_socket()      # vanish with the server mid-item
            det._reconnect()
            # The welcome waited for the commit boundary: every event
            # the old attachment delivered is already accounted for.
            assert det.welcome["session"] == "reattached"
            assert det.welcome["events_done"] == head
            det.feed(events[head:])
            result = det.finish()
            assert h.server.stats["reconnects"] == 1
        assert result["events"] == len(events)
        assert _body(result) == P.dumps_canonical(local_baseline(events))


class TestDetachFinalizeRace:
    def test_reattach_during_finalize_quiesce_survives(
        self, tmp_path, local_baseline
    ):
        """A client reattaching exactly while the detach-TTL finalizer
        sits in its quiesce gap must get a live session back.  Without
        the post-quiesce re-check the finalizer drops the tenant it
        just welcomed: the client's frames then hit the straggler guard
        and are silently ignored, and its sync stalls until timeout."""
        import asyncio as aio

        events = _events()
        half = len(events) // 2
        with _server(tmp_path, detach_ttl=30.0) as h:
            det = Detector(
                "fasttrack", address=h.address, tenant="lazarus",
                batch_events=256,
            )
            det.feed(events[:half])
            det.sync()
            det._close_socket()

            gate = {"used": False}

            async def _start():
                srv = h.server
                gate["ev"] = aio.Event()
                orig = srv._quiesce

                async def gated_quiesce(st):
                    await orig(st)
                    if not gate["used"]:
                        gate["used"] = True
                        await gate["ev"].wait()

                srv._quiesce = gated_quiesce
                gate["task"] = srv._loop.create_task(
                    srv._finalize_detached("lazarus")
                )

            h.call(_start)
            det._reconnect()  # lands inside the finalizer's gap
            assert det.welcome["session"] == "reattached"
            assert det.welcome["events_done"] == half

            async def _release():
                gate["ev"].set()
                await gate["task"]
                st = h.server._tenants.get("lazarus")
                return (
                    st is not None
                    and not st.gone
                    and st.worker is not None
                    and not st.worker.done()
                )

            assert h.call(_release), (
                "finalizer dropped a session a client had reattached to"
            )
            det.feed(events[half:])
            result = det.finish()
            assert h.server.stats["reconnects"] == 1
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_reattach_during_finalize_mid_item_dispatches_once(
        self, tmp_path, local_baseline, slow_factory
    ):
        """The same reattach, with the finalizer's quiesce cancelling a
        dispatch mid-item.  The restarted worker re-dispatches the
        item's uncommitted remainder, so it must first roll the session
        back to the committed boundary: the abandoned executor thread
        has already fed part of that remainder to the detector."""
        import asyncio as aio

        events = _events()[:2048]
        handle = _server(tmp_path, detach_ttl=30.0)
        handle.server.detector_factory = slow_factory()
        with handle as h:
            det = Detector(
                "fasttrack", address=h.address, tenant="midway",
                batch_events=256,
            )
            det.feed(events)  # eight frames in flight, no sync
            deadline = time.monotonic() + 10.0
            st = None
            while time.monotonic() < deadline:
                st = h.server._tenants.get("midway")
                if st is not None and st.dirty and st.queue:
                    break
                time.sleep(0.005)
            assert st is not None and st.dirty and st.queue
            det._close_socket()
            while st.conn is not None and time.monotonic() < deadline:
                time.sleep(0.005)
            assert st.conn is None

            gate = {}

            async def _start():
                srv = h.server
                orig = srv._quiesce

                async def gated_quiesce(tst):
                    await orig(tst)
                    gate["dirty"] = tst.dirty
                    # Hold the finalizer's gap open until the client
                    # has reattached.
                    while tst.conn is None:
                        await aio.sleep(0.005)
                    srv._quiesce = orig

                srv._quiesce = gated_quiesce
                gate["task"] = srv._loop.create_task(
                    srv._finalize_detached("midway")
                )

            h.call(_start)
            det._reconnect()  # WELCOME waits for the restarted worker
            assert det.welcome["session"] == "reattached"
            assert gate["dirty"], "the quiesce did not land mid-item"
            result = det.finish()
            assert h.server.stats["reconnects"] == 1
        assert result["events"] == len(events)
        assert _body(result) == P.dumps_canonical(local_baseline(events))


class TestBackpressure:
    def test_pause_then_shed_with_bounded_queue(self, tmp_path, slow_factory):
        """Flood a deliberately slow tenant: reading pauses at the high
        watermark and, once the grace window lapses without draining,
        the session is shed with a typed OVERLOADED error — the queue
        never grows past watermark + one frame."""
        high = 40 * 1024
        handle = _server(
            tmp_path,
            high_watermark=high,
            low_watermark=8 * 1024,
            shed_after=0.3,
            chunk_events=64,
        )
        handle.server.detector_factory = slow_factory(0.003)  # cannot keep up
        with handle as h:
            raw = _Raw(h.address, tenant="firehose")
            raw.expect(P.T_WELCOME)
            payload = P.encode_events([(1, 0, 4096, 1, 0)] * 256)
            raw.sock.settimeout(0.2)
            sent = 0
            err = None
            for _ in range(600):  # ~6 MiB if nothing pushed back
                try:
                    raw.send(P.pack_frame(P.T_EVENTS, payload))
                    sent += len(payload)
                except (socket.timeout, OSError):
                    break
            raw.sock.settimeout(10.0)
            try:
                err = raw.expect_error()
            except ConnectionError:
                pass
            stats = h.server.stats
            assert stats["pauses"] >= 1
            assert stats["sheds"] >= 1
            # Bounded ingest memory: pause stops further reads, but the
            # transport may already have decoded up to one read buffer
            # (<= 256 KiB in asyncio's selector transport).  The client
            # pushed ~6 MiB; none of it got past the bound.
            assert stats["max_queue_bytes"] <= high + 256 * 1024
            assert sent > high  # the flood really exceeded the watermark
            if err is not None:
                assert err["code"] == P.E_OVERLOADED

    def test_fast_consumer_never_pauses(self, tmp_path):
        events = _events("raytrace", 0.1, 0)
        with _server(tmp_path, high_watermark=1 << 22) as h:
            det = Detector("fasttrack", address=h.address, batch_events=128)
            det.feed(events)
            det.finish()
            assert h.server.stats["pauses"] == 0
            assert h.server.stats["sheds"] == 0


class TestDrain:
    def test_drain_checkpoints_and_restart_adopts(
        self, tmp_path, local_baseline
    ):
        events = _events()
        root = str(tmp_path / "ckpts")
        half = len(events) // 2

        with _server(tmp_path, checkpoint_root=root) as h:
            det = Detector(
                "fasttrack", address=h.address, tenant="durable",
                batch_events=256, max_reconnects=0,
            )
            det.feed(events[:half])
            det.sync()
            h.drain()  # SIGTERM-equivalent
            assert h.server.stats["drained_tenants"] == 1

        # A new daemon process over the same checkpoint root adopts the
        # drained state when the client asks to resume.
        with _server(tmp_path, checkpoint_root=root) as h2:
            det2 = Detector(
                "fasttrack",
                address=h2.address,
                tenant="durable",
                batch_events=256,
                options={"resume": True},
            )
            assert det2.welcome["session"] == "adopted"
            assert det2.welcome["events_done"] == half
            assert h2.server.stats["sessions_adopted"] == 1
            det2.feed(events)  # journal refill; only the suffix is sent
            result = det2.finish()
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    @pytest.mark.parametrize("damage", ["garbage", "foreign-manifest"])
    def test_restart_adopts_previous_generation_past_a_bad_newest(
        self, tmp_path, local_baseline, damage
    ):
        """A newest checkpoint that cannot be read, or that reads but
        belongs to another detector, is skipped: the restarted daemon
        adopts the previous generation and WELCOME carries its cursor."""
        events = _events()
        root = str(tmp_path / "ckpts")
        half = len(events) // 2
        with _server(tmp_path, checkpoint_root=root) as h:
            det = Detector(
                "fasttrack", address=h.address, tenant="durable",
                batch_events=256, max_reconnects=0,
            )
            det.feed(events[:half])
            det.sync()
            h.drain()
        tenant_dir = os.path.join(root, "durable")
        found = sorted(os.listdir(tenant_dir))
        assert len(found) >= 2
        newest = os.path.join(tenant_dir, found[-1])
        with open(newest, "rb") as fh:
            blob = fh.read()
        if damage == "garbage":
            blob = b"garbage"
        else:
            head, manifest, payload = blob.split(b"\n", 2)
            manifest = json.loads(manifest)
            manifest["detector"] = "dynamic"
            blob = b"\n".join(
                [head, json.dumps(manifest).encode(), payload]
            )
        with open(newest, "wb") as fh:
            fh.write(blob)
        previous = int(found[-2][len("ckpt-"):-len(".ckpt")])
        assert previous < half

        with _server(tmp_path, checkpoint_root=root) as h2:
            det2 = Detector(
                "fasttrack",
                address=h2.address,
                tenant="durable",
                batch_events=256,
                options={"resume": True},
            )
            assert det2.welcome["session"] == "adopted"
            assert det2.welcome["events_done"] == previous
            det2.feed(events)
            result = det2.finish()
        assert result["recovery"]["bad_checkpoints"] == 1
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_draining_server_refuses_new_sessions(self, tmp_path):
        with _server(tmp_path) as h:
            h.drain()
            try:
                raw = _Raw(h.address, tenant="late")
                err = raw.expect_error()
                assert err["code"] == P.E_SHUTTING_DOWN
            except (ConnectionError, OSError):
                pass  # listener already closed: equally fine


class TestFreshSessionHygiene:
    def test_new_session_does_not_inherit_stale_checkpoints(
        self, tmp_path, local_baseline
    ):
        events = _events("raytrace", 0.2, 0)
        root = str(tmp_path / "ckpts")
        with _server(tmp_path, checkpoint_root=root, checkpoint_every=50) as h:
            det = Detector(
                "fasttrack", address=h.address, tenant="t", batch_events=64
            )
            det.feed(events)
            det.sync()
            det._close_socket()
            # Wait for the detach TTL cleanup? No: reconnect as a FRESH
            # session (no resume flag) — stale checkpoints must be wiped.
            time.sleep(0.1)
        with _server(tmp_path, checkpoint_root=root, checkpoint_every=50) as h2:
            det2 = Detector(
                "fasttrack", address=h2.address, tenant="t", batch_events=64
            )
            assert det2.welcome["session"] == "new"
            assert det2.welcome["events_done"] == 0
            det2.feed(events)
            result = det2.finish()
        assert _body(result) == P.dumps_canonical(local_baseline(events))


class TestServerThreadLifecycle:
    @pytest.mark.parametrize(
        "first,second",
        [("stop", "stop"), ("kill", "stop"), ("stop", "kill"), ("kill", "kill")],
    )
    def test_stop_and_kill_are_no_ops_once_stopped(
        self, tmp_path, first, second
    ):
        h = _server(tmp_path).start()
        getattr(h, first)()
        assert not h._thread.is_alive()
        getattr(h, second)()  # must not raise "Event loop is closed"
        assert not h._thread.is_alive()
