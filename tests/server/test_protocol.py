"""Framing robustness: every malformed input gets a *typed* rejection.

The daemon-level guarantee (one bad session never hurts another) starts
here — the decoder must reject garbage from the header bytes alone,
never buffer unbounded input, and classify every failure with a stable
error code a client can act on.
"""

import struct

import pytest

from repro.server import protocol as P
from repro.workloads.registry import workload_names


def _frames(*chunks):
    dec = P.FrameDecoder()
    out = []
    for chunk in chunks:
        out.extend(dec.feed(chunk))
    return out


class TestFrameDecoder:
    def test_roundtrip_single(self):
        frame = P.pack_frame(P.T_FINISH)
        assert _frames(frame) == [(P.T_FINISH, b"")]

    def test_roundtrip_payload(self):
        frame = P.pack_frame(P.T_EVENTS, b"x" * 80)
        assert _frames(frame) == [(P.T_EVENTS, b"x" * 80)]

    def test_byte_at_a_time(self):
        frame = P.pack_frame(P.T_RESULT, b"{}")
        dec = P.FrameDecoder()
        got = []
        for i in range(len(frame)):
            got.extend(dec.feed(frame[i : i + 1]))
        assert got == [(P.T_RESULT, b"{}")]

    def test_coalesced_frames(self):
        blob = P.pack_frame(P.T_FINISH) + P.pack_frame(P.T_STATS_REQ)
        assert [t for t, _ in _frames(blob)] == [P.T_FINISH, P.T_STATS_REQ]

    def test_truncated_frame_is_incomplete_not_error(self):
        frame = P.pack_frame(P.T_EVENTS, b"y" * 200)
        dec = P.FrameDecoder()
        assert dec.feed(frame[:50]) == []
        assert dec.feed(frame[50:]) == [(P.T_EVENTS, b"y" * 200)]

    def test_unknown_type_rejected(self):
        with pytest.raises(P.ProtocolError) as err:
            _frames(struct.pack("<BI", 0xEE, 0))
        assert err.value.code == P.E_BAD_FRAME

    def test_oversized_rejected_from_header(self):
        dec = P.FrameDecoder(max_frame=1024)
        header = struct.pack("<BI", P.T_EVENTS, 1 << 30)
        with pytest.raises(P.ProtocolError) as err:
            dec.feed(header)  # no payload bytes needed to reject
        assert err.value.code == P.E_FRAME_TOO_LARGE

    def test_buffer_stays_bounded(self):
        dec = P.FrameDecoder(max_frame=1024)
        dec.feed(struct.pack("<BI", P.T_EVENTS, 1024))
        dec.feed(b"z" * 500)
        assert dec.buffered <= 1024

    def test_garbage_bytes_rejected(self):
        with pytest.raises(P.ProtocolError):
            _frames(b"\xde\xad\xbe\xef" * 10)


class TestEventCodec:
    def test_roundtrip(self):
        events = [(1, 0, 4096, 4, 7), (0, 3, 8192, 8, 9)]
        assert P.decode_events(P.encode_events(events)) == events

    def test_empty(self):
        assert P.decode_events(b"") == []

    def test_ragged_payload(self):
        with pytest.raises(P.ProtocolError) as err:
            P.decode_events(b"a" * (P.EVENT_BYTES + 1))
        assert err.value.code == P.E_BAD_EVENT

    def test_unknown_opcode(self):
        payload = P.encode_events([(200, 0, 0, 0, 0)])
        with pytest.raises(P.ProtocolError) as err:
            P.decode_events(payload)
        assert err.value.code == P.E_BAD_EVENT

    def test_negative_tid(self):
        payload = P.encode_events([(1, -4, 0, 0, 0)])
        with pytest.raises(P.ProtocolError) as err:
            P.decode_events(payload)
        assert err.value.code == P.E_BAD_EVENT

    def test_negative_size(self):
        payload = P.encode_events([(1, 0, 4096, -1, 0)])
        with pytest.raises(P.ProtocolError) as err:
            P.decode_events(payload)
        assert err.value.code == P.E_BAD_EVENT
        assert "negative size" in err.value.message

    def test_op_code_checked_before_thread_id(self):
        """Each check runs over the whole payload before the next: an
        unknown op code in row 1 wins over a negative thread id in row 0."""
        payload = P.encode_events([(1, -4, 0, 4, 0), (9, 0, 0, 4, 0)])
        with pytest.raises(P.ProtocolError) as err:
            P.decode_events(payload)
        assert err.value.code == P.E_BAD_EVENT
        assert err.value.message == "unknown op code 9"

    def test_encode_rejects_short_row(self):
        with pytest.raises(ValueError):
            P.encode_events([(1, 0, 4096, 4)])

    def test_encode_rejects_non_integer_field(self):
        """A float op code is refused, not truncated (1.7 would become
        op 1, a write)."""
        with pytest.raises(ValueError):
            P.encode_events([(1.7, 0, 4096, 4, 0)])

    def test_chunking(self):
        events = [(0, 0, i, 1, 0) for i in range(10)]
        chunks = list(P.iter_event_chunks(events, 4))
        assert [len(c) // P.EVENT_BYTES for c in chunks] == [4, 4, 2]
        rejoined = [e for c in chunks for e in P.decode_events(c)]
        assert rejoined == events

    @pytest.mark.parametrize("workload", workload_names())
    def test_binlog_row_compatibility(self, workload):
        """EVENTS payloads are binlog rows: a recorded trace's binary
        form streams to the server without re-encoding."""
        from repro.workloads.registry import build_trace

        from repro.perf.binlog import _EVENTS_OFF, EVENT_RECORD_BYTES

        trace = build_trace(workload, scale=0.05, seed=0)
        payload = P.encode_events([tuple(ev) for ev in trace.events])
        rows = trace.binlog()[
            _EVENTS_OFF : _EVENTS_OFF + len(trace) * EVENT_RECORD_BYTES
        ]
        assert payload == rows
        assert P.decode_events(payload) == [tuple(ev) for ev in trace.events]


class TestHello:
    def test_roundtrip(self):
        options = {"tenant": "t1", "detector": "fasttrack-byte"}
        assert P.decode_hello(P.encode_hello(options)) == options

    def test_bad_magic(self):
        with pytest.raises(P.ProtocolError) as err:
            P.decode_hello(b"NOTMAGIC" + b"{}")
        assert err.value.code == P.E_BAD_MAGIC

    def test_bad_version(self):
        payload = P.HELLO_MAGIC + struct.pack("<H", 99) + b'{"tenant":"x"}'
        with pytest.raises(P.ProtocolError) as err:
            P.decode_hello(payload)
        assert err.value.code == P.E_BAD_VERSION

    def test_truncated(self):
        with pytest.raises(P.ProtocolError) as err:
            P.decode_hello(P.HELLO_MAGIC)
        assert err.value.code == P.E_BAD_HELLO

    def test_missing_tenant(self):
        payload = P.HELLO_MAGIC + struct.pack("<H", 1) + b"{}"
        with pytest.raises(P.ProtocolError) as err:
            P.decode_hello(payload)
        assert err.value.code == P.E_BAD_HELLO

    def test_undecodable_json(self):
        payload = P.HELLO_MAGIC + struct.pack("<H", 1) + b"\xff\xfe"
        with pytest.raises(P.ProtocolError) as err:
            P.decode_hello(payload)
        assert err.value.code == P.E_BAD_PAYLOAD


class TestControlFrames:
    def test_ack_roundtrip(self):
        ftype, payload = _frames(P.ack_frame(12345, 7))[0]
        assert ftype == P.T_ACK
        assert P.decode_ack(payload) == (12345, 7)

    def test_short_ack_rejected(self):
        with pytest.raises(P.ProtocolError):
            P.decode_ack(b"123")

    def test_error_frame_is_typed(self):
        _t, payload = _frames(P.error_frame(P.E_OVERLOADED, "queue full"))[0]
        body = P.loads_json(payload)
        assert body["code"] == P.E_OVERLOADED
        assert body["fatal"] is True

    def test_canonical_json_is_deterministic(self):
        a = P.dumps_canonical({"b": 1, "a": [2, {"d": 3, "c": 4}]})
        b = P.dumps_canonical({"a": [2, {"c": 4, "d": 3}], "b": 1})
        assert a == b
        assert b" " not in a


class TestDecoderFuzz:
    """Property corpus: arbitrary mutations of real traffic produce only
    typed :class:`ProtocolError`\\ s, bounded buffering, and poison only
    the stream that carried them — never a crash, hang, or unbounded
    allocation."""

    def _corpus(self):
        hello = P.pack_frame(
            P.T_HELLO,
            P.encode_hello({"tenant": "fuzzee", "detector": "fasttrack"}),
        )
        events = P.pack_frame(
            P.T_EVENTS,
            P.encode_events([(1, t, 4096 + t, 4, t) for t in range(40)]),
        )
        finish = P.pack_frame(P.T_FINISH)
        stats = P.pack_frame(P.T_STATS_REQ)
        return hello + events + stats + events + finish

    def _drive(self, blob, max_frame=1 << 16):
        """Feed in random-sized chunks; return (frames, error-or-None),
        asserting the decoder never buffers past its cap."""
        import random as _random

        dec = P.FrameDecoder(max_frame=max_frame)
        rng = _random.Random(len(blob))
        frames = []
        pos = 0
        while pos < len(blob):
            step = rng.randint(1, 97)
            try:
                frames.extend(dec.feed(blob[pos : pos + step]))
            except P.ProtocolError as err:
                assert err.code, "protocol errors must carry a code"
                return frames, err
            assert dec.buffered <= max_frame + 5  # header + one payload
            pos += step
        return frames, None

    def test_clean_corpus_roundtrips(self):
        frames, err = self._drive(self._corpus())
        assert err is None
        assert [t for t, _ in frames] == [
            P.T_HELLO, P.T_EVENTS, P.T_STATS_REQ, P.T_EVENTS, P.T_FINISH,
        ]

    def test_bitflip_sweep_only_typed_errors(self):
        """Flip every byte of the corpus (one at a time): each mutant
        either still parses or dies with a typed ProtocolError."""
        blob = self._corpus()
        outcomes = {"ok": 0, "typed": 0}
        for i in range(len(blob)):
            mutant = bytearray(blob)
            mutant[i] ^= 0xFF
            _frames, err = self._drive(bytes(mutant))
            outcomes["typed" if err else "ok"] += 1
        # Both outcomes occur across the sweep; nothing else ever does.
        assert outcomes["ok"] > 0
        assert outcomes["typed"] > 0

    def test_random_truncation_and_splice(self):
        import random as _random

        blob = self._corpus()
        rng = _random.Random(0xC0FFEE)
        for trial in range(200):
            cut = rng.randrange(len(blob))
            if trial % 3 == 0:
                mutant = blob[:cut]  # truncation
            elif trial % 3 == 1:
                splice = rng.randrange(len(blob))
                mutant = blob[:cut] + blob[splice:]  # splice
            else:
                junk = bytes(rng.randrange(256) for _ in range(16))
                mutant = blob[:cut] + junk + blob[cut:]  # injection
            frames, err = self._drive(mutant)
            # Every fully-delivered prefix frame was decoded intact.
            if err is None and mutant == blob[:cut]:
                assert len(frames) <= 5

    def test_pure_garbage_never_allocates_per_claimed_length(self):
        """Length fields claiming gigabytes are rejected from the header
        alone — buffered bytes stay tiny."""
        import random as _random

        rng = _random.Random(7)
        dec = P.FrameDecoder(max_frame=4096)
        rejected = 0
        for _ in range(100):
            frame = struct.pack(
                "<BI", rng.choice([P.T_EVENTS, P.T_HELLO, 0x7F]),
                rng.randrange(1 << 20, 1 << 31),
            )
            try:
                dec.feed(frame)
            except P.ProtocolError as err:
                rejected += 1
                assert err.code in (P.E_FRAME_TOO_LARGE, P.E_BAD_FRAME)
                dec = P.FrameDecoder(max_frame=4096)  # poisoned; new one
            assert dec.buffered < 64
        assert rejected == 100

    def test_large_type_cap_applies_only_to_migrate(self):
        dec = P.FrameDecoder(max_frame=4096, max_large_frame=1 << 20)
        # EVENTS past max_frame: rejected.
        with pytest.raises(P.ProtocolError):
            dec.feed(struct.pack("<BI", P.T_EVENTS, 1 << 19))
        # MIGRATE_IMPORT within the large cap: accepted (incomplete).
        dec = P.FrameDecoder(max_frame=4096, max_large_frame=1 << 20)
        assert dec.feed(struct.pack("<BI", P.T_MIGRATE_IMPORT, 1 << 19)) == []


class TestMigrateImportCodec:
    def _payload(self, **overrides):
        header = {
            "tenant": "t", "detector": "fasttrack-byte",
            "events_done": 1200, "races_sent": 3, "tail_base": 800,
        }
        header.update(overrides)
        tail = [(1, 0, 4096 + i, 4, i) for i in range(10)]
        return P.encode_migrate_import(header, b"CKPTBYTES" * 100, tail)

    def test_roundtrip(self):
        header, blob, tail = P.decode_migrate_import(self._payload())
        assert header["tenant"] == "t"
        assert header["events_done"] == 1200
        assert blob == b"CKPTBYTES" * 100
        assert len(tail) == 10

    def test_empty_tail_roundtrips(self):
        payload = P.encode_migrate_import(
            {"tenant": "t", "detector": "d", "events_done": 400,
             "races_sent": 0, "tail_base": 400},
            b"x", [],
        )
        _header, _blob, tail = P.decode_migrate_import(payload)
        assert tail == []

    def test_missing_header_field_rejected(self):
        header = {"tenant": "t", "detector": "d", "events_done": 1}
        payload = P.encode_migrate_import(header, b"x", [])
        with pytest.raises(P.ProtocolError):
            P.decode_migrate_import(payload)

    def test_truncations_rejected_typed(self):
        payload = self._payload()
        for cut in range(0, len(payload) - 1, 37):
            try:
                P.decode_migrate_import(payload[:cut])
            except P.ProtocolError as err:
                assert err.code
            # Some cuts still parse (tail is self-delimiting); fine.

    def test_ragged_tail_rejected(self):
        payload = self._payload() + b"x"  # no longer row-aligned
        with pytest.raises(P.ProtocolError):
            P.decode_migrate_import(payload)
