"""Wire protocol of the detection daemon: length-prefixed binary frames.

Every frame is ``<B type><I length>`` (5 bytes, little-endian) followed
by ``length`` payload bytes.  Event payloads reuse the canonical binlog
record format (:mod:`repro.perf.binlog`): each event is one 40-byte
``<5q`` row ``(op, tid, addr, size, site)`` — the exact bytes
``Trace.binlog()`` stores, so a recorded trace streams to the server
with no re-encoding.  Rows are packed and unpacked by the one
:data:`EVENT_STRUCT`; this module needs only the standard library, so
the daemon's import path loads no numpy.  Everything else
(handshakes, results, errors) is canonical JSON: sorted keys, no
whitespace — deterministic bytes, so result frames inherit the
recovery subsystem's byte-identity contract.

Robustness rules, enforced by :class:`FrameDecoder` and the codecs:

* A frame longer than ``max_frame`` is rejected *from its header* —
  the decoder never buffers unbounded garbage (``FRAME_TOO_LARGE``).
  Migration frames (``MIGRATE_IMPORT``) carry a whole checkpoint and
  get their own, larger bound; every other type stays at ``max_frame``.
* Unknown frame types, short/ragged event payloads, out-of-range op
  codes and undecodable JSON all raise :class:`ProtocolError` with a
  stable machine-readable ``code``.
* A :class:`ProtocolError` poisons only the session that sent the bad
  bytes; the daemon converts it into a typed ``ERROR`` frame on that
  connection and keeps serving everyone else.

Authentication (ALGORITHM.md §15).  A daemon configured with per-tenant
shared keys answers HELLO with a CHALLENGE (16 random bytes); the
client proves key possession with ``hello_mac`` (HMAC-SHA256 over the
nonce and tenant id) in an AUTH frame, compared constant-time.  After
that every client frame is *sealed*: the payload carries a trailing
16-byte truncated HMAC tag over ``(sequence, frame type, body)``, so
bit-flips, splices and replays on the ingest path surface as typed
``E_TAMPER`` errors instead of silently corrupting detection state.
``rekey_proof`` lets a session switch to a rotated key mid-stream
without dropping the connection.  Unauthenticated daemons (no keys)
skip the whole layer — frames travel bare, as before.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import json
import struct
from typing import Iterator, List, Optional, Tuple

#: First bytes of every HELLO payload: protocol magic + version.
HELLO_MAGIC = b"RRSRV1\n"
PROTO_VERSION = 1

_FRAME_HEADER = struct.Struct("<BI")
FRAME_HEADER_BYTES = _FRAME_HEADER.size  # 5
_HELLO_HEAD = struct.Struct("<H")  # version, after the magic

#: One event row on the wire: (op, tid, addr, size, site) little-endian
#: int64 — identical to a binlog event record.
EVENT_STRUCT = struct.Struct("<5q")
EVENT_BYTES = EVENT_STRUCT.size  # 40

#: Default per-frame byte cap (payload), server- and client-side.
MAX_FRAME = 4 * 1024 * 1024

#: Cap for MIGRATE_IMPORT frames — one checkpoint + replay tail.
MIGRATE_MAX_FRAME = 64 * 1024 * 1024

#: Truncated HMAC-SHA256 tag appended to sealed payloads.
TAG_BYTES = 16

#: Challenge nonce length.
NONCE_BYTES = 16

_N_OPS = 8  # READ..FREE, repro.runtime.events

# -- frame types -------------------------------------------------------
# client -> server
T_HELLO = 0x01
T_EVENTS = 0x02
T_FINISH = 0x03
T_STATS_REQ = 0x04
T_AUTH = 0x05
T_REKEY = 0x06
T_MIGRATE_EXPORT = 0x07  # operator -> daemon: push a tenant to a peer
T_MIGRATE_IMPORT = 0x08  # daemon -> peer daemon: the shipped session
# server -> client
T_WELCOME = 0x10
T_ACK = 0x11
T_RACE = 0x12
T_RESULT = 0x13
T_ERROR = 0x14
T_STATS = 0x15
T_CHALLENGE = 0x16
T_MIGRATE_ACK = 0x17

FRAME_TYPES = (
    T_HELLO,
    T_EVENTS,
    T_FINISH,
    T_STATS_REQ,
    T_AUTH,
    T_REKEY,
    T_MIGRATE_EXPORT,
    T_MIGRATE_IMPORT,
    T_WELCOME,
    T_ACK,
    T_RACE,
    T_RESULT,
    T_ERROR,
    T_STATS,
    T_CHALLENGE,
    T_MIGRATE_ACK,
)

TYPE_NAMES = {
    T_HELLO: "HELLO",
    T_EVENTS: "EVENTS",
    T_FINISH: "FINISH",
    T_STATS_REQ: "STATS_REQ",
    T_AUTH: "AUTH",
    T_REKEY: "REKEY",
    T_MIGRATE_EXPORT: "MIGRATE_EXPORT",
    T_MIGRATE_IMPORT: "MIGRATE_IMPORT",
    T_WELCOME: "WELCOME",
    T_ACK: "ACK",
    T_RACE: "RACE",
    T_RESULT: "RESULT",
    T_ERROR: "ERROR",
    T_STATS: "STATS",
    T_CHALLENGE: "CHALLENGE",
    T_MIGRATE_ACK: "MIGRATE_ACK",
}

#: Frame types allowed to exceed ``max_frame`` up to the migrate cap.
LARGE_TYPES = (T_MIGRATE_IMPORT,)

#: Client frames that must carry an integrity tag once authenticated.
SEALED_TYPES = (T_EVENTS, T_FINISH, T_STATS_REQ, T_REKEY)

# -- typed error codes -------------------------------------------------
E_BAD_MAGIC = "BAD_MAGIC"
E_BAD_VERSION = "BAD_VERSION"
E_BAD_FRAME = "BAD_FRAME"
E_FRAME_TOO_LARGE = "FRAME_TOO_LARGE"
E_BAD_PAYLOAD = "BAD_PAYLOAD"
E_BAD_EVENT = "BAD_EVENT"
E_BAD_HELLO = "BAD_HELLO"
E_UNKNOWN_DETECTOR = "UNKNOWN_DETECTOR"
E_TENANT_BUSY = "TENANT_BUSY"
E_OVERLOADED = "OVERLOADED"
E_IDLE_TIMEOUT = "IDLE_TIMEOUT"
E_RECOVERY_FAILED = "RECOVERY_FAILED"
E_SHUTTING_DOWN = "SHUTTING_DOWN"
E_INTERNAL = "INTERNAL"
E_AUTH = "AUTH"
E_TAMPER = "TAMPER"
E_MIGRATED = "MIGRATED"
E_MIGRATE_FAILED = "MIGRATE_FAILED"
E_NO_SUCH_TENANT = "NO_SUCH_TENANT"

ERROR_CODES = (
    E_BAD_MAGIC,
    E_BAD_VERSION,
    E_BAD_FRAME,
    E_FRAME_TOO_LARGE,
    E_BAD_PAYLOAD,
    E_BAD_EVENT,
    E_BAD_HELLO,
    E_UNKNOWN_DETECTOR,
    E_TENANT_BUSY,
    E_OVERLOADED,
    E_IDLE_TIMEOUT,
    E_RECOVERY_FAILED,
    E_SHUTTING_DOWN,
    E_INTERNAL,
    E_AUTH,
    E_TAMPER,
    E_MIGRATED,
    E_MIGRATE_FAILED,
    E_NO_SUCH_TENANT,
)


class ProtocolError(Exception):
    """A malformed frame (or stream).  ``code`` is one of
    :data:`ERROR_CODES`; the daemon echoes it in the ERROR frame it
    sends before dropping the offending session."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServerError(Exception):
    """Client-side: the server replied with an ERROR frame.  ``extra``
    carries any additional body fields — ``MIGRATED`` errors ship the
    peer address and the handoff token there."""

    def __init__(
        self,
        code: str,
        message: str,
        fatal: bool = True,
        extra: Optional[dict] = None,
    ):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.fatal = fatal
        self.extra = dict(extra or {})


# ----------------------------------------------------------------------
# canonical JSON
# ----------------------------------------------------------------------
def dumps_canonical(obj: object) -> bytes:
    """Deterministic JSON bytes (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def loads_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(E_BAD_PAYLOAD, f"undecodable JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            E_BAD_PAYLOAD, f"expected JSON object, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def pack_frame(ftype: int, payload: bytes = b"") -> bytes:
    """One wire frame: header + payload."""
    return _FRAME_HEADER.pack(ftype, len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser for one connection.

    Feed arbitrary byte chunks; iterate complete ``(type, payload)``
    frames.  Validation is front-loaded: a bad type or oversized length
    raises from the 5 header bytes alone, before any payload is
    buffered, so a hostile client cannot make the daemon allocate more
    than ``max_frame`` per connection.
    """

    def __init__(
        self,
        max_frame: int = MAX_FRAME,
        max_large_frame: Optional[int] = None,
    ):
        self.max_frame = max_frame
        #: Cap for :data:`LARGE_TYPES` (migration payloads).  ``None``
        #: disables large frames entirely — they fall under
        #: ``max_frame`` like everything else, so endpoints that never
        #: expect an import (plain clients) keep the tight bound.
        self.max_large_frame = max_large_frame
        self._buf = bytearray()
        self._need: Optional[Tuple[int, int]] = None  # (ftype, length)

    @property
    def buffered(self) -> int:
        """Bytes currently held (bounded by header + the frame cap)."""
        return len(self._buf)

    def _cap(self, ftype: int) -> int:
        if self.max_large_frame is not None and ftype in LARGE_TYPES:
            return max(self.max_frame, self.max_large_frame)
        return self.max_frame

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Append ``data``; return every frame it completed."""
        self._buf.extend(data)
        frames: List[Tuple[int, bytes]] = []
        while True:
            if self._need is None:
                if len(self._buf) < FRAME_HEADER_BYTES:
                    break
                ftype, length = _FRAME_HEADER.unpack_from(self._buf, 0)
                if ftype not in TYPE_NAMES:
                    raise ProtocolError(
                        E_BAD_FRAME, f"unknown frame type 0x{ftype:02x}"
                    )
                if length > self._cap(ftype):
                    raise ProtocolError(
                        E_FRAME_TOO_LARGE,
                        f"{TYPE_NAMES[ftype]} frame of {length} bytes "
                        f"exceeds the {self._cap(ftype)}-byte cap",
                    )
                del self._buf[:FRAME_HEADER_BYTES]
                self._need = (ftype, length)
            ftype, length = self._need
            if len(self._buf) < length:
                break
            payload = bytes(self._buf[:length])
            del self._buf[:length]
            self._need = None
            frames.append((ftype, payload))
        return frames


# ----------------------------------------------------------------------
# event payloads (binlog row format)
# ----------------------------------------------------------------------
def encode_events(events) -> bytes:
    """Pack event 5-tuples into consecutive ``<5q`` rows.

    Raises :class:`ValueError` on a row that is not five integers
    (``struct`` refuses floats and out-of-range values rather than
    truncating them)."""
    pack = EVENT_STRUCT.pack
    try:
        return b"".join([pack(*ev) for ev in events])
    except struct.error as exc:
        raise ValueError(f"bad event row: {exc}") from exc


def decode_events(payload: bytes) -> List[tuple]:
    """Unpack and validate an EVENTS payload into event 5-tuples.

    Rejects ragged payloads (not a multiple of the 40-byte record),
    unknown op codes, negative thread ids and negative sizes — checked
    in that order over the whole payload, each with a typed
    :class:`ProtocolError` so one malformed batch can only ever poison
    its own session.
    """
    if len(payload) == 0:
        return []
    if len(payload) % EVENT_BYTES:
        raise ProtocolError(
            E_BAD_EVENT,
            f"events payload of {len(payload)} bytes is not a multiple "
            f"of the {EVENT_BYTES}-byte record",
        )
    rows = list(EVENT_STRUCT.iter_unpack(payload))
    ops, tids, _, sizes, _ = zip(*rows)
    if min(ops) < 0 or max(ops) >= _N_OPS:
        bad = next(op for op in ops if op < 0 or op >= _N_OPS)
        raise ProtocolError(E_BAD_EVENT, f"unknown op code {bad}")
    if min(tids) < 0:
        raise ProtocolError(E_BAD_EVENT, "negative thread id")
    if min(sizes) < 0:
        raise ProtocolError(E_BAD_EVENT, "negative size")
    return rows


def iter_event_chunks(
    events, chunk_events: int
) -> Iterator[bytes]:
    """Split an event list into EVENTS payloads of at most
    ``chunk_events`` rows (client-side streaming helper)."""
    for start in range(0, len(events), chunk_events):
        yield encode_events(events[start : start + chunk_events])


# ----------------------------------------------------------------------
# control payloads
# ----------------------------------------------------------------------
def encode_hello(options: dict) -> bytes:
    """HELLO payload: magic + version + canonical-JSON options."""
    return HELLO_MAGIC + _HELLO_HEAD.pack(PROTO_VERSION) + dumps_canonical(
        options
    )


def decode_hello(payload: bytes) -> dict:
    head = len(HELLO_MAGIC)
    if payload[:head] != HELLO_MAGIC:
        raise ProtocolError(
            E_BAD_MAGIC, f"bad hello magic {bytes(payload[:head])!r}"
        )
    if len(payload) < head + _HELLO_HEAD.size:
        raise ProtocolError(E_BAD_HELLO, "hello truncated before version")
    (version,) = _HELLO_HEAD.unpack_from(payload, head)
    if version != PROTO_VERSION:
        raise ProtocolError(
            E_BAD_VERSION,
            f"protocol version {version}, this server speaks "
            f"{PROTO_VERSION}",
        )
    options = loads_json(payload[head + _HELLO_HEAD.size :])
    if "tenant" not in options or not str(options["tenant"]):
        raise ProtocolError(E_BAD_HELLO, "hello options missing 'tenant'")
    return options


def error_frame(
    code: str, message: str, fatal: bool = True, **extra: object
) -> bytes:
    body = {"code": code, "message": message, "fatal": fatal}
    body.update(extra)
    return pack_frame(T_ERROR, dumps_canonical(body))


_ACK = struct.Struct("<2Q")  # events_done, races_so_far


def ack_frame(events_done: int, races: int) -> bytes:
    return pack_frame(T_ACK, _ACK.pack(events_done, races))


def decode_ack(payload: bytes) -> Tuple[int, int]:
    if len(payload) != _ACK.size:
        raise ProtocolError(E_BAD_PAYLOAD, f"ack of {len(payload)} bytes")
    done, races = _ACK.unpack(payload)
    return done, races


# ----------------------------------------------------------------------
# authenticated wire: HMAC challenge/response + per-frame sealing
# ----------------------------------------------------------------------
def as_key(key) -> bytes:
    """Normalize a shared key (hex string or raw bytes) to bytes."""
    if isinstance(key, (bytes, bytearray)):
        return bytes(key)
    text = str(key)
    try:
        return bytes.fromhex(text)
    except ValueError:
        return text.encode("utf-8")


def hello_mac(key, nonce: bytes, tenant: str) -> str:
    """The AUTH response: proof of key possession bound to this
    connection's nonce and the tenant being claimed."""
    mac = _hmac.new(
        as_key(key), b"hello|" + nonce + b"|" + tenant.encode("utf-8"),
        hashlib.sha256,
    )
    return mac.hexdigest()


def rekey_proof(new_key, nonce: bytes, tenant: str) -> str:
    """REKEY body: proof of possession of the *rotated* key, bound to
    the same session nonce so a captured proof is useless elsewhere."""
    mac = _hmac.new(
        as_key(new_key), b"rekey|" + nonce + b"|" + tenant.encode("utf-8"),
        hashlib.sha256,
    )
    return mac.hexdigest()


def macs_equal(a: str, b: str) -> bool:
    """Constant-time hex-MAC comparison."""
    return _hmac.compare_digest(str(a), str(b))


_SEQ = struct.Struct("<Q")


def _frame_tag(key: bytes, seq: int, ftype: int, body: bytes) -> bytes:
    mac = _hmac.new(key, digestmod=hashlib.sha256)
    mac.update(b"frame|")
    mac.update(_SEQ.pack(seq))
    mac.update(bytes([ftype]))
    mac.update(body)
    return mac.digest()[:TAG_BYTES]


def seal(key, seq: int, ftype: int, body: bytes) -> bytes:
    """Sealed payload: body + truncated HMAC over (seq, type, body).
    The sequence number makes replayed or reordered frames detectable —
    both sides count sealed frames per connection."""
    return body + _frame_tag(as_key(key), seq, ftype, body)


def unseal(key, seq: int, ftype: int, payload: bytes) -> bytes:
    """Verify and strip a frame tag; :data:`E_TAMPER` on any mismatch."""
    if len(payload) < TAG_BYTES:
        raise ProtocolError(
            E_TAMPER,
            f"sealed {TYPE_NAMES.get(ftype, hex(ftype))} frame of "
            f"{len(payload)} bytes is shorter than its tag",
        )
    body, tag = payload[:-TAG_BYTES], payload[-TAG_BYTES:]
    want = _frame_tag(as_key(key), seq, ftype, body)
    if not _hmac.compare_digest(tag, want):
        raise ProtocolError(
            E_TAMPER,
            f"bad integrity tag on {TYPE_NAMES.get(ftype, hex(ftype))} "
            f"frame (seq {seq})",
        )
    return body


def export_mac(key, tenant: str, peer: Tuple[str, int]) -> str:
    """Authorization tag on an operator MIGRATE_EXPORT request."""
    blob = f"export|{tenant}|{peer[0]}:{peer[1]}".encode("utf-8")
    return _hmac.new(as_key(key), blob, hashlib.sha256).hexdigest()


def import_mac(key, tenant: str, token: str, ckpt_blob: bytes) -> str:
    """Authorization tag on a daemon-to-daemon MIGRATE_IMPORT frame,
    binding tenant, handoff token and the exact checkpoint bytes."""
    mac = _hmac.new(as_key(key), digestmod=hashlib.sha256)
    mac.update(b"import|")
    mac.update(tenant.encode("utf-8"))
    mac.update(b"|")
    mac.update(str(token).encode("utf-8"))
    mac.update(b"|")
    mac.update(hashlib.sha256(ckpt_blob).digest())
    return mac.hexdigest()


# ----------------------------------------------------------------------
# migration payloads
# ----------------------------------------------------------------------
_MIG_LEN = struct.Struct("<I")


def encode_migrate_import(
    header: dict, ckpt_blob: bytes, tail_rows
) -> bytes:
    """MIGRATE_IMPORT payload: length-prefixed canonical-JSON header,
    length-prefixed checkpoint file bytes, then the replay tail as
    consecutive ``<5q`` event rows."""
    head = dumps_canonical(header)
    return (
        _MIG_LEN.pack(len(head))
        + head
        + _MIG_LEN.pack(len(ckpt_blob))
        + ckpt_blob
        + encode_events(tail_rows)
    )


def decode_migrate_import(payload: bytes) -> Tuple[dict, bytes, List[tuple]]:
    """Unpack and validate a MIGRATE_IMPORT payload."""
    if len(payload) < _MIG_LEN.size:
        raise ProtocolError(E_BAD_PAYLOAD, "migrate import truncated")
    (head_len,) = _MIG_LEN.unpack_from(payload, 0)
    pos = _MIG_LEN.size
    if head_len > len(payload) - pos:
        raise ProtocolError(
            E_BAD_PAYLOAD,
            f"migrate header of {head_len} bytes overruns the payload",
        )
    header = loads_json(payload[pos : pos + head_len])
    pos += head_len
    if len(payload) - pos < _MIG_LEN.size:
        raise ProtocolError(
            E_BAD_PAYLOAD, "migrate import truncated before checkpoint"
        )
    (ckpt_len,) = _MIG_LEN.unpack_from(payload, pos)
    pos += _MIG_LEN.size
    if ckpt_len > len(payload) - pos:
        raise ProtocolError(
            E_BAD_PAYLOAD,
            f"migrate checkpoint of {ckpt_len} bytes overruns the payload",
        )
    ckpt_blob = payload[pos : pos + ckpt_len]
    tail_rows = decode_events(payload[pos + ckpt_len :])
    for field in ("tenant", "detector", "events_done", "races_sent",
                  "tail_base"):
        if field not in header:
            raise ProtocolError(
                E_BAD_PAYLOAD, f"migrate header missing {field!r}"
            )
    return header, ckpt_blob, tail_rows
