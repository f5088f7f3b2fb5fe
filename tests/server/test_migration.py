"""Cross-host migration: byte-identity survives changing daemons.

The contract (ALGORITHM.md §15): a tenant session live-migrated to a
peer daemon — operator-initiated or as a SIGTERM drain evacuation —
reports races and statistics byte-identical to a session that never
moved, and the displaced client lands on the new host carrying a
one-time handoff token that keeps anyone else from claiming the
session in the gap.
"""

import threading
import time

import pytest

from repro.server import protocol as P
from repro.server.client import Detector, migrate_tenant
from repro.server.daemon import ServerConfig, ServerThread

KEY = "a1" * 32

#: The golden byte-identity sweep: migrate each of these mid-stream
#: and demand the uninterrupted twin's exact output.
GOLDEN = [
    ("streamcluster", 0.05, 0),
    ("raytrace", 0.1, 1),
    ("canneal", 0.05, 2),
    ("x264", 0.05, 3),
]


def _events(name, scale, seed):
    from repro.workloads.registry import build_trace

    return [tuple(ev) for ev in build_trace(name, scale=scale, seed=seed).events]


def _body(result):
    return P.dumps_canonical(
        {"races": result["races"], "stats": result["stats"]}
    )


def _server(tmp_path, tag, **overrides):
    overrides.setdefault("checkpoint_root", str(tmp_path / f"ckpts-{tag}"))
    overrides.setdefault("checkpoint_every", 400)
    overrides.setdefault("detach_ttl", 30.0)
    return ServerThread(ServerConfig(**overrides))


class TestOperatorMigration:
    @pytest.mark.parametrize("name,scale,seed", GOLDEN)
    def test_golden_sweep_byte_identical(
        self, tmp_path, name, scale, seed, local_baseline
    ):
        """Mid-stream migration over every golden workload: the moved
        session's output is the uninterrupted twin's, byte for byte."""
        events = _events(name, scale, seed)
        half = len(events) // 2
        with _server(tmp_path, "a") as a, _server(tmp_path, "b") as b:
            det = Detector(
                "fasttrack",
                addresses=[a.address, b.address],
                tenant="golden",
                batch_events=256,
            )
            det.feed(events[:half])
            det.sync()
            ack = migrate_tenant(a.address, "golden", peer=b.address)
            assert ack["events_done"] == half
            det.feed(events[half:])
            result = det.finish()
            assert det.migrations_seen == 1
            assert a.server.stats["migrations_out"] == 1
            assert b.server.stats["migrations_in"] == 1
        assert _body(result) == P.dumps_canonical(local_baseline(events))
        assert result["recovery"]["migrations"] == 1

    def test_migrate_back_and_forth(self, tmp_path, local_baseline):
        """Two hops — A to B to A — still byte-identical."""
        events = _events("streamcluster", 0.05, 0)
        third = len(events) // 3
        with _server(tmp_path, "a") as a, _server(tmp_path, "b") as b:
            det = Detector(
                "fasttrack",
                addresses=[a.address, b.address],
                tenant="pingpong",
                batch_events=256,
            )
            det.feed(events[:third])
            det.sync()
            migrate_tenant(a.address, "pingpong", peer=b.address)
            det.feed(events[third : 2 * third])
            det.sync()
            migrate_tenant(b.address, "pingpong", peer=a.address)
            det.feed(events[2 * third :])
            result = det.finish()
            assert det.migrations_seen == 2
        assert _body(result) == P.dumps_canonical(local_baseline(events))
        assert result["recovery"]["migrations"] == 2

    def test_races_reported_exactly_once_across_hosts(
        self, tmp_path, local_baseline
    ):
        """The race cursor travels with the session: races streamed
        before the move are not re-sent by the new host."""
        events = _events("raytrace", 0.2, 0)
        base = local_baseline(events)
        if not base["races"]:
            pytest.skip("workload produced no races at this scale")
        half = len(events) // 2
        with _server(tmp_path, "a") as a, _server(tmp_path, "b") as b:
            det = Detector(
                "fasttrack",
                addresses=[a.address, b.address],
                tenant="cursor",
                batch_events=128,
            )
            streamed = []
            det.on_race(streamed.append)
            det.feed(events[:half])
            det.sync()
            migrate_tenant(a.address, "cursor", peer=b.address)
            det.feed(events[half:])
            result = det.finish()
        assert [r.as_list() for r in streamed] == base["races"]
        assert _body(result) == P.dumps_canonical(base)

    def test_no_such_tenant(self, tmp_path):
        with _server(tmp_path, "a") as a, _server(tmp_path, "b") as b:
            with pytest.raises(P.ServerError) as err:
                migrate_tenant(a.address, "ghost", peer=b.address)
            assert err.value.code == P.E_NO_SUCH_TENANT

    def test_no_peer_anywhere(self, tmp_path):
        with _server(tmp_path, "a") as a:
            det = Detector(
                "fasttrack", address=a.address, tenant="stuck",
                batch_events=64,
            )
            det.feed(_events("streamcluster", 0.05, 0)[:200])
            det.sync()
            with pytest.raises(P.ServerError) as err:
                migrate_tenant(a.address, "stuck")
            assert err.value.code == P.E_MIGRATE_FAILED
            det.finish()

    def test_unreachable_peer_keeps_session_alive(
        self, tmp_path, local_baseline
    ):
        """A failed export must not lose the session: the daemon counts
        the failure and the client finishes in place."""
        events = _events("streamcluster", 0.05, 0)
        half = len(events) // 2
        with _server(tmp_path, "a") as a:
            det = Detector(
                "fasttrack", address=a.address, tenant="survivor",
                batch_events=256,
            )
            det.feed(events[:half])
            det.sync()
            with pytest.raises(P.ServerError) as err:
                migrate_tenant(
                    a.address, "survivor", peer=("127.0.0.1", 1),
                    timeout=10.0,
                )
            assert err.value.code == P.E_MIGRATE_FAILED
            assert a.server.stats["migrate_failures"] == 1
            det.feed(events[half:])
            result = det.finish()
        assert _body(result) == P.dumps_canonical(local_baseline(events))


    def test_failed_export_mid_item_loses_no_frames(
        self, tmp_path, local_baseline, slow_factory
    ):
        """An export that quiesces the worker mid-item and then fails
        must not drop the item: the frames queued behind it would
        otherwise commit at its cursor, skipping a window of the stream
        that a later resend fills twice."""
        events = _events("streamcluster", 0.05, 0)[:2048]
        handle = _server(tmp_path, "a")
        handle.server.detector_factory = slow_factory
        with handle as a:
            det = Detector(
                "fasttrack", address=a.address, tenant="pipelined",
                batch_events=256,
            )
            det.feed(events)  # eight frames in flight, no sync
            deadline = time.monotonic() + 10.0
            st = None
            while time.monotonic() < deadline:
                st = a.server._tenants.get("pipelined")
                if st is not None and st.dirty and st.queue:
                    break
                time.sleep(0.005)
            assert st is not None and st.dirty and st.queue
            with pytest.raises(P.ServerError) as err:
                migrate_tenant(
                    a.address, "pipelined", peer=("127.0.0.1", 1),
                    timeout=10.0,
                )
            assert err.value.code == P.E_MIGRATE_FAILED
            result = det.finish()
        assert result["events"] == len(events)
        assert _body(result) == P.dumps_canonical(local_baseline(events))


class TestDrainEvacuation:
    def test_sigterm_drain_evacuates_to_peer(self, tmp_path, local_baseline):
        """Drain with a configured peer live-migrates the tenant; the
        client fails over and finishes byte-identical."""
        events = _events("streamcluster", 0.05, 0)
        half = len(events) // 2
        with _server(tmp_path, "b") as b:
            with _server(tmp_path, "a", peer=b.address) as a:
                det = Detector(
                    "fasttrack",
                    addresses=[a.address, b.address],
                    tenant="evac",
                    batch_events=256,
                )
                det.feed(events[:half])
                det.sync()
                a.drain()  # SIGTERM-equivalent
                assert a.server.stats["evacuations"] == 1
                det.feed(events[half:])
                result = det.finish()
                assert det.migrations_seen == 1
                assert b.server.stats["migrations_in"] == 1
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_drain_with_inflight_dispatch_and_queued_reconnect(
        self, tmp_path, local_baseline
    ):
        """The hard case: SIGTERM lands while a dispatch is in flight
        and the client is mid-stream (its reconnect races the drain).
        Whatever interleaving wins, adoption on the peer must be
        byte-identical."""
        events = _events("raytrace", 0.2, 0)
        half = len(events) // 2
        with _server(tmp_path, "b") as b:
            with _server(
                tmp_path, "a", peer=b.address, checkpoint_every=200
            ) as a:
                det = Detector(
                    "fasttrack",
                    addresses=[a.address, b.address],
                    tenant="inflight",
                    batch_events=128,
                    timeout=30.0,
                )
                det.feed(events[:half])
                det.sync()
                det.feed(events[half:])  # queued client-side
                drainer = threading.Thread(target=a.drain)
                drainer.start()  # races the flush below
                result = det.finish()
                drainer.join(timeout=60)
                assert not drainer.is_alive()
                # The session finished on one of the two hosts; if the
                # drain won the race it finished on B via evacuation.
                finished = (
                    a.server.stats["sessions_finished"]
                    + b.server.stats["sessions_finished"]
                )
                assert finished == 1
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_drain_without_peer_still_parks_locally(
        self, tmp_path, local_baseline
    ):
        """No peer configured: drain falls back to local checkpoint
        parking (the PR 7 behavior) and a restart adopts it."""
        events = _events("streamcluster", 0.05, 0)
        half = len(events) // 2
        root = str(tmp_path / "shared")
        with _server(tmp_path, "a", checkpoint_root=root) as a:
            det = Detector(
                "fasttrack", address=a.address, tenant="parked",
                batch_events=256, max_reconnects=0,
            )
            det.feed(events[:half])
            det.sync()
            a.drain()
            assert a.server.stats["drained_tenants"] == 1
            assert a.server.stats["evacuations"] == 0
        with _server(tmp_path, "a2", checkpoint_root=root) as a2:
            det2 = Detector(
                "fasttrack", address=a2.address, tenant="parked",
                batch_events=256, options={"resume": True},
            )
            assert det2.welcome["session"] == "adopted"
            assert det2.welcome["events_done"] == half
            det2.feed(events)
            result = det2.finish()
        assert _body(result) == P.dumps_canonical(local_baseline(events))


class TestHandoffToken:
    def test_squatter_cannot_claim_migrated_session(
        self, tmp_path, local_baseline
    ):
        """Between MIGRATED and the displaced client's reattach, nobody
        without the token may claim the session on the new host."""
        events = _events("streamcluster", 0.05, 0)
        half = len(events) // 2
        with _server(tmp_path, "a") as a, _server(tmp_path, "b") as b:
            det = Detector(
                "fasttrack",
                addresses=[a.address, b.address],
                tenant="guarded",
                batch_events=256,
            )
            det.feed(events[:half])
            det.sync()
            migrate_tenant(a.address, "guarded", peer=b.address)
            # An unauthenticated squatter races the displaced client.
            with pytest.raises(P.ServerError) as err:
                Detector(
                    "fasttrack",
                    address=b.address,
                    tenant="guarded",
                    max_reconnects=0,
                    options={"resume": True},
                )
            assert err.value.code == P.E_AUTH
            assert b.server.stats["auth_failures"] == 1
            # The real client carries the token from MIGRATED and wins.
            det.feed(events[half:])
            result = det.finish()
            assert det.migrations_seen == 1
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_token_is_one_time(self, tmp_path, local_baseline):
        """Once the displaced client reattaches, the token is burned:
        a later tokenless reattach follows the normal busy/park rules
        instead of the handoff gate."""
        events = _events("streamcluster", 0.05, 0)
        half = len(events) // 2
        with _server(tmp_path, "a") as a, _server(tmp_path, "b") as b:
            det = Detector(
                "fasttrack",
                addresses=[a.address, b.address],
                tenant="once",
                batch_events=256,
            )
            det.feed(events[:half])
            det.sync()
            migrate_tenant(a.address, "once", peer=b.address)
            # Force a round trip so the client consumes MIGRATED and
            # reattaches on B with its token.
            det.feed(events[half : half + 1])
            det.sync()
            assert det.migrations_seen == 1
            # The token was consumed; the live session is simply busy
            # (a failover code, so the client reports exhaustion).
            with pytest.raises(ConnectionError, match="TENANT_BUSY"):
                Detector(
                    "fasttrack", address=b.address, tenant="once",
                    max_reconnects=0, options={"resume": True},
                )
            det.feed(events[half + 1 :])
            result = det.finish()
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_authenticated_client_may_reattach_without_token(
        self, tmp_path, local_baseline
    ):
        """A client that lost the MIGRATED frame (connection died first)
        can still claim its session by proving the tenant key — a
        strictly stronger credential than the token."""
        events = _events("streamcluster", 0.05, 0)
        half = len(events) // 2
        keys = {"*": KEY}
        with _server(tmp_path, "a", auth_keys=dict(keys)) as a:
            with _server(tmp_path, "b", auth_keys=dict(keys)) as b:
                det = Detector(
                    "fasttrack",
                    addresses=[a.address],
                    tenant="orphan",
                    key=KEY,
                    batch_events=256,
                )
                det.feed(events[:half])
                det.sync()
                migrate_tenant(
                    a.address, "orphan", peer=b.address, key=KEY
                )
                # The MIGRATED frame (and its token) never arrives.
                det._close_socket()
                det2 = Detector(
                    "fasttrack",
                    address=b.address,
                    tenant="orphan",
                    key=KEY,
                    batch_events=256,
                    options={"resume": True},
                )
                assert det2.welcome["events_done"] == half
                det2.feed(events)  # journal refill; suffix is sent
                result = det2.finish()
        assert _body(result) == P.dumps_canonical(local_baseline(events))


class TestAuthenticatedMigration:
    def test_keyed_export_requires_mac(self, tmp_path, local_baseline):
        """On a keyed daemon an export request without a valid MAC is
        refused — migration moves checkpoints across hosts and must not
        be triggerable by strangers."""
        keys = {"*": KEY}
        events = _events("streamcluster", 0.05, 0)
        with _server(tmp_path, "a", auth_keys=dict(keys)) as a:
            with _server(tmp_path, "b", auth_keys=dict(keys)) as b:
                det = Detector(
                    "fasttrack", address=a.address, tenant="keyed",
                    key=KEY, batch_events=256,
                )
                det.feed(events[: len(events) // 2])
                det.sync()
                with pytest.raises(P.ServerError) as err:
                    migrate_tenant(a.address, "keyed", peer=b.address)
                assert err.value.code == P.E_AUTH
                ack = migrate_tenant(
                    a.address, "keyed", peer=b.address, key=KEY
                )
                assert ack["events_done"] == len(events) // 2
                det.feed(events[len(events) // 2 :])
                result = det.finish()
        assert _body(result) == P.dumps_canonical(local_baseline(events))
