"""Canonical binary trace encoding.

``encode_trace``/``decode_trace`` pack a
:class:`~repro.runtime.trace.Trace` into one ``bytes`` blob: an 8-byte
magic, a fixed header, the event list as a dense ``(n, 5)`` little-endian
``int64`` matrix, and three deterministic side tables (utf-8 name,
sorted heap-stats table, canonical-JSON fault records).  Every field is
written in a single canonical order, so ``encode(decode(b)) == b`` and
the blob doubles as the trace's identity: ``Trace.digest()`` hashes it.
The wire protocol's EVENTS payload reuses the same ``<5q`` row format,
and both pack and unpack it with one ``struct``
(:data:`repro.server.protocol.EVENT_STRUCT`), so the codec needs only
the standard library.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Tuple

from repro.server.protocol import EVENT_STRUCT

MAGIC = b"RRBLOG1\n"
_HEADER = struct.Struct("<5Q")  # n_events, n_threads, name, heap, faults lens
_HEADER_OFF = len(MAGIC)
_EVENTS_OFF = _HEADER_OFF + _HEADER.size  # 48, 8-byte aligned
EVENT_RECORD_BYTES = EVENT_STRUCT.size  # (op, tid, addr, size, site)

_HEAP_COUNT = struct.Struct("<I")
_HEAP_KEY = struct.Struct("<I")
_HEAP_VAL = struct.Struct("<q")


class BinlogError(ValueError):
    """A blob failed structural validation during decode."""


# ----------------------------------------------------------------------
# canonical trace codec
# ----------------------------------------------------------------------
def _encode_heap(heap_stats: Dict[str, int]) -> bytes:
    parts = [_HEAP_COUNT.pack(len(heap_stats))]
    for key in sorted(heap_stats):
        kb = key.encode("utf-8")
        parts.append(_HEAP_KEY.pack(len(kb)))
        parts.append(kb)
        parts.append(_HEAP_VAL.pack(int(heap_stats[key])))
    return b"".join(parts)


def _decode_heap(blob: bytes) -> Dict[str, int]:
    (count,) = _HEAP_COUNT.unpack_from(blob, 0)
    off = _HEAP_COUNT.size
    out: Dict[str, int] = {}
    for _ in range(count):
        (klen,) = _HEAP_KEY.unpack_from(blob, off)
        off += _HEAP_KEY.size
        key = blob[off : off + klen].decode("utf-8")
        off += klen
        (val,) = _HEAP_VAL.unpack_from(blob, off)
        off += _HEAP_VAL.size
        out[key] = val
    if off != len(blob):
        raise BinlogError(
            f"heap table has {len(blob) - off} trailing bytes"
        )
    return out


def encode_trace(trace) -> bytes:
    """Pack ``trace`` into the canonical binlog blob."""
    n = len(trace.events)
    pack = EVENT_STRUCT.pack
    rows = b"".join([pack(*ev) for ev in trace.events])
    name_b = trace.name.encode("utf-8")
    heap_b = _encode_heap(trace.heap_stats)
    faults_b = (
        json.dumps(
            trace.faults, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        if trace.faults
        else b""
    )
    header = _HEADER.pack(
        n, trace.n_threads, len(name_b), len(heap_b), len(faults_b)
    )
    return b"".join((MAGIC, header, rows, name_b, heap_b, faults_b))


def decode_header(blob: bytes) -> Tuple[int, int, int, int, int]:
    """Validate magic + header; return the five header counts."""
    if blob[:_HEADER_OFF] != MAGIC:
        raise BinlogError(f"bad magic {bytes(blob[:_HEADER_OFF])!r}")
    n, n_threads, name_len, heap_len, faults_len = _HEADER.unpack_from(
        blob, _HEADER_OFF
    )
    expected = (
        _EVENTS_OFF + n * EVENT_RECORD_BYTES + name_len + heap_len + faults_len
    )
    if len(blob) != expected:
        raise BinlogError(
            f"blob is {len(blob)} bytes, header implies {expected}"
        )
    return n, n_threads, name_len, heap_len, faults_len


def decode_trace(blob: bytes):
    """Rebuild the :class:`Trace` a blob encodes (inverse of
    :func:`encode_trace`, byte-identical on re-encode)."""
    from repro.runtime.trace import Trace

    n, n_threads, name_len, heap_len, faults_len = decode_header(blob)
    off = _EVENTS_OFF + n * EVENT_RECORD_BYTES
    events = list(EVENT_STRUCT.iter_unpack(memoryview(blob)[_EVENTS_OFF:off]))
    name = bytes(blob[off : off + name_len]).decode("utf-8")
    off += name_len
    heap_stats = _decode_heap(bytes(blob[off : off + heap_len]))
    off += heap_len
    faults = (
        json.loads(bytes(blob[off : off + faults_len]).decode("utf-8"))
        if faults_len
        else []
    )
    return Trace(
        events,
        name=name,
        n_threads=n_threads,
        heap_stats=heap_stats,
        faults=faults,
    )
