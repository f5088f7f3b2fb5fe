"""Authenticated wire: HMAC hello, sealed frames, key rotation.

A keyed daemon challenges every HELLO and admits only clients that
prove possession of an accepted tenant key; once admitted, the
state-changing frames (EVENTS/FINISH/STATS/REKEY) travel sealed with
per-frame integrity tags over a sequence counter, so tampering and
splicing surface as typed ``TAMPER`` errors that poison only the
offending session.  Keys rotate without dropping the connection.
"""

import socket
import time

import pytest

from repro.server import protocol as P
from repro.server.client import Detector
from repro.server.daemon import ServerConfig, ServerThread
from repro.workloads.registry import build_trace

KEY = "0f" * 32
OTHER = "e7" * 32


def _events(name="streamcluster", scale=0.05, seed=0):
    return [tuple(ev) for ev in build_trace(name, scale=scale, seed=seed).events]


def _body(result):
    return P.dumps_canonical(
        {"races": result["races"], "stats": result["stats"]}
    )


def _server(tmp_path, **overrides):
    overrides.setdefault("checkpoint_root", str(tmp_path / "ckpts"))
    overrides.setdefault("checkpoint_every", 400)
    overrides.setdefault("auth_keys", {"*": KEY})
    return ServerThread(ServerConfig(**overrides))


class _Raw:
    """Socket-level client that can complete the challenge by hand."""

    def __init__(self, address, timeout=10.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.dec = P.FrameDecoder()

    def hello(self, tenant, key=None, **options):
        options["tenant"] = tenant
        self.sock.sendall(P.pack_frame(P.T_HELLO, P.encode_hello(options)))
        ftype, payload = self.expect((P.T_CHALLENGE, P.T_ERROR))
        if ftype != P.T_CHALLENGE:
            return ftype, P.loads_json(payload)
        nonce = bytes.fromhex(P.loads_json(payload)["nonce"])
        mac = P.hello_mac(key, nonce, tenant) if key else "00" * 32
        self.sock.sendall(
            P.pack_frame(P.T_AUTH, P.dumps_canonical({"mac": mac}))
        )
        ftype, payload = self.expect((P.T_WELCOME, P.T_ERROR))
        return ftype, P.loads_json(payload)

    def expect(self, ftypes, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("closed")
            for got, payload in self.dec.feed(data):
                if got in ftypes:
                    return got, payload
        raise TimeoutError(f"none of {ftypes} arrived")

    def close(self):
        self.sock.close()


class TestHandshake:
    def test_keyed_session_byte_identical(self, tmp_path, local_baseline):
        events = _events()
        with _server(tmp_path) as h:
            det = Detector(
                "fasttrack", address=h.address, key=KEY, batch_events=256
            )
            det.feed(events)
            result = det.finish()
            assert h.server.stats["auth_challenges"] == 1
            assert h.server.stats["auth_failures"] == 0
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_wrong_key_rejected(self, tmp_path):
        with _server(tmp_path) as h:
            raw = _Raw(h.address)
            ftype, body = raw.hello("intruder", key=OTHER)
            raw.close()
            assert ftype == P.T_ERROR
            assert body["code"] == P.E_AUTH
            assert h.server.stats["auth_failures"] == 1

    def test_keyless_client_rejected(self, tmp_path):
        with _server(tmp_path) as h:
            with pytest.raises(P.ServerError) as err:
                Detector(
                    "fasttrack", address=h.address, max_reconnects=0
                )
            assert err.value.code == P.E_AUTH

    def test_per_tenant_key_overrides_fleet_default(self, tmp_path):
        events = _events()
        keys = {"*": KEY, "special": OTHER}
        with _server(tmp_path, auth_keys=keys) as h:
            det = Detector(
                "fasttrack", address=h.address, tenant="special",
                key=OTHER, batch_events=256,
            )
            det.feed(events)
            det.finish()
            # The fleet key no longer opens the per-tenant door.
            raw = _Raw(h.address)
            ftype, body = raw.hello("special", key=KEY)
            raw.close()
            assert ftype == P.T_ERROR
            assert body["code"] == P.E_AUTH

    def test_unkeyed_daemon_never_challenges(self, tmp_path, local_baseline):
        events = _events()
        with _server(tmp_path, auth_keys=None) as h:
            det = Detector(
                "fasttrack", address=h.address, batch_events=256
            )
            det.feed(events)
            result = det.finish()
            assert h.server.stats["auth_challenges"] == 0
        assert _body(result) == P.dumps_canonical(local_baseline(events))


class TestSealedFrames:
    def test_tampered_frame_poisons_only_its_session(
        self, tmp_path, local_baseline
    ):
        events = _events()
        half = len(events) // 2
        with _server(tmp_path) as h:
            good = Detector(
                "fasttrack", address=h.address, tenant="good", key=KEY,
                batch_events=256,
            )
            good.feed(events[:half])
            good.sync()

            bad = _Raw(h.address)
            ftype, _ = bad.hello("bad", key=KEY)
            assert ftype == P.T_WELCOME
            sealed = bytearray(
                P.seal(KEY, 0, P.T_EVENTS,
                       P.encode_events([(1, 0, 4096, 4, 0)]))
            )
            sealed[-1] ^= 0x01  # flip one tag bit in flight
            bad.sock.sendall(P.pack_frame(P.T_EVENTS, bytes(sealed)))
            _, payload = bad.expect((P.T_ERROR,))
            err = P.loads_json(payload)
            assert err["code"] == P.E_TAMPER
            bad.close()

            good.feed(events[half:])
            result = good.finish()
            assert h.server.stats["tamper_rejects"] == 1
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_replayed_frame_rejected(self, tmp_path):
        """A captured sealed frame re-sent verbatim fails the sequence
        check: tags bind (seq, type, body), so splicing is tampering."""
        with _server(tmp_path) as h:
            raw = _Raw(h.address)
            ftype, _ = raw.hello("replay", key=KEY)
            assert ftype == P.T_WELCOME
            frame = P.pack_frame(
                P.T_EVENTS,
                P.seal(KEY, 0, P.T_EVENTS,
                       P.encode_events([(1, 0, 4096, 4, 0)])),
            )
            raw.sock.sendall(frame)
            raw.expect((P.T_ACK,))
            raw.sock.sendall(frame)  # replay of seq 0
            _, payload = raw.expect((P.T_ERROR,))
            raw.close()
            assert P.loads_json(payload)["code"] == P.E_TAMPER

    def test_unsealed_frame_on_keyed_session_rejected(self, tmp_path):
        with _server(tmp_path) as h:
            raw = _Raw(h.address)
            ftype, _ = raw.hello("naked", key=KEY)
            assert ftype == P.T_WELCOME
            raw.sock.sendall(
                P.pack_frame(
                    P.T_EVENTS, P.encode_events([(1, 0, 4096, 4, 0)])
                )
            )
            _, payload = raw.expect((P.T_ERROR,))
            raw.close()
            assert P.loads_json(payload)["code"] == P.E_TAMPER


class TestKeyRotation:
    def test_rotate_without_disconnect(self, tmp_path, local_baseline):
        events = _events()
        half = len(events) // 2
        with _server(tmp_path) as h:
            det = Detector(
                "fasttrack", address=h.address, tenant="rotor", key=KEY,
                batch_events=256,
            )
            det.feed(events[:half])
            det.sync()
            h.call(lambda: _async_add_key(h.server, "rotor", OTHER))
            det.rotate_key(OTHER)
            det.feed(events[half:])
            result = det.finish()
            assert h.server.stats["rekeys"] == 1
            assert h.server.stats["reconnects"] == 0
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_rotation_proof_must_use_accepted_key(self, tmp_path):
        """REKEY is fire-and-forget client-side; rotating to a key the
        daemon never registered surfaces as a fatal AUTH error on the
        next round trip."""
        events = _events()
        with _server(tmp_path) as h:
            det = Detector(
                "fasttrack", address=h.address, tenant="rotor", key=KEY,
                batch_events=256,
            )
            det.feed(events[:200])
            det.sync()
            det.rotate_key(OTHER)  # never registered server-side
            with pytest.raises(P.ServerError) as err:
                det.feed(events[200:400])
                det.sync()
            assert err.value.code == P.E_AUTH


async def _async_add_key(server, tenant, key):
    server.add_key(tenant, key)


class TestPrimitives:
    def test_seal_unseal_roundtrip(self):
        body = b"payload-bytes"
        sealed = P.seal(KEY, 7, P.T_EVENTS, body)
        assert P.unseal(KEY, 7, P.T_EVENTS, sealed) == body

    @pytest.mark.parametrize("seq,ftype", [(8, P.T_EVENTS), (7, P.T_FINISH)])
    def test_unseal_binds_seq_and_type(self, seq, ftype):
        sealed = P.seal(KEY, 7, P.T_EVENTS, b"x")
        with pytest.raises(P.ProtocolError) as err:
            P.unseal(KEY, seq, ftype, sealed)
        assert err.value.code == P.E_TAMPER

    def test_unseal_rejects_flipped_payload_bit(self):
        sealed = bytearray(P.seal(KEY, 0, P.T_EVENTS, b"abcdef"))
        sealed[P.TAG_BYTES + 2] ^= 0x40
        with pytest.raises(P.ProtocolError) as err:
            P.unseal(KEY, 0, P.T_EVENTS, bytes(sealed))
        assert err.value.code == P.E_TAMPER

    def test_hello_mac_binds_nonce_and_tenant(self):
        nonce = b"\x01" * P.NONCE_BYTES
        assert P.hello_mac(KEY, nonce, "a") != P.hello_mac(KEY, nonce, "b")
        assert P.hello_mac(KEY, nonce, "a") != P.hello_mac(
            KEY, b"\x02" * P.NONCE_BYTES, "a"
        )
