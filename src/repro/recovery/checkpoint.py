"""Checkpoint file format: versioned, checksummed detector state.

Layout (all on disk, one file per checkpoint)::

    MAGIC                       b"RRCKPT1\\n"
    manifest-JSON line          schema, detector, cursors, trace digest
                                (sha256 of the trace's canonical binary
                                form, ``Trace.binlog()``), payload
                                sha256 + length
    payload                     zlib(deterministic JSON of
                                ``detector.snapshot_state()``)

The manifest line is readable with ``head -2`` for triage; the payload
is compressed because shadow state for a large trace is big but highly
repetitive.  Schema 2 stores each shadow-table bucket as runs
``[first_slot, length, record]`` (:meth:`ShadowTable.snapshot
<repro.shadow.hash_table.ShadowTable.snapshot>`), so a group shared
over many bytes is written once per bucket instead of once per byte;
schema 1 wrote one ``[slot, record]`` pair per occupied slot and is
refused like any other unknown version.  Writes are atomic (temp file
+ ``os.replace``), so a kill mid-write — the exact fault this
subsystem injects on purpose — leaves either the previous file or
none, never a truncated one.

Every load failure is a typed :class:`CheckpointError`: bad magic,
truncation, checksum mismatch, undecodable payload, unknown schema
version, or a manifest that does not match the session (wrong trace
digest, wrong detector, wrong dispatch mode).  A session restoring its
newest good generation treats any of them as "this checkpoint is gone"
and falls back to the previous one.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import zlib
from typing import List, Optional, Tuple

from repro.detectors.guards import GuardedDetector

MAGIC = b"RRCKPT1\n"

#: Bump when the state encoding changes incompatibly.  Loaders refuse
#: other versions outright — silently misinterpreting shadow state
#: would be far worse than redoing the replay.
SCHEMA_VERSION = 2


#: checkpoint file names: ``ckpt-<event cursor>.ckpt``
_CKPT_RE = re.compile(r"^ckpt-(\d+)\.ckpt$")


class CheckpointError(Exception):
    """A checkpoint file that must not be restored (corrupt, truncated,
    wrong schema version, or written for a different trace/detector)."""


class CheckpointDir:
    """One session's checkpoint generations: ``ckpt-<cursor>.ckpt``
    files in ``path``, keyed by the event cursor they were taken at.

    Shared by the replay session and the service tenants.  Files that
    failed to load are discarded and not offered again, even when
    deleting them failed, until a good checkpoint is written to the
    same path (:meth:`written`).
    """

    def __init__(self, path: str, keep: int):
        self.path = path
        self.keep = keep
        self._bad: set = set()

    def path_for(self, cursor: int) -> str:
        return os.path.join(self.path, f"ckpt-{cursor:012d}.ckpt")

    @staticmethod
    def cursor_of(path: str) -> int:
        """The event cursor a checkpoint path was written at."""
        return int(_CKPT_RE.match(os.path.basename(path)).group(1))

    def paths(self) -> List[str]:
        """Existing non-discarded checkpoint paths, oldest first."""
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        hits = []
        for name in names:
            m = _CKPT_RE.match(name)
            if m:
                path = os.path.join(self.path, name)
                if path not in self._bad:
                    hits.append((int(m.group(1)), path))
        return [path for _c, path in sorted(hits)]

    def discard(self, path: str) -> None:
        """Drop a checkpoint that failed to load: delete the file and
        remember it so :meth:`paths` skips it even if deletion failed."""
        self._bad.add(path)
        try:
            os.unlink(path)
        except OSError:
            pass

    def written(self, path: str) -> None:
        """A good checkpoint now sits at ``path``: list it (and let
        :meth:`prune` delete it) even if an earlier file there was
        discarded."""
        self._bad.discard(path)

    def prune(self) -> Tuple[int, List[str]]:
        """Keep only the newest ``keep`` generations; returns the number
        of files removed and the paths left, oldest first (what
        :meth:`paths` would list next, without listing again).

        Each deletion is a single ``unlink`` (atomic — a crash mid-prune
        leaves extra generations, never a half-deleted one), oldest
        first, so the retained window is always the newest suffix and
        generation fallback keeps working.  A file that cannot be
        removed is still listed next time and retried then.
        """
        found = self.paths()
        stale = found[: -self.keep]
        left = []
        for path in stale:
            try:
                os.unlink(path)
            except OSError:
                left.append(path)
        left.extend(found[len(stale) :])
        return len(found) - len(left), left


def wrap_detector(inner, shadow_budget: Optional[int]):
    """``inner`` as a session runs it: wrapped in a
    :class:`~repro.detectors.guards.GuardedDetector` when a shadow
    budget is set."""
    if shadow_budget is None:
        return inner
    return GuardedDetector(inner, shadow_budget=shadow_budget)


def restore_detector(det, state: dict) -> None:
    """Restore checkpoint ``state`` into ``det``.

    A guarded state (from a budgeted session) restores into an
    unguarded detector as its inner state.
    """
    if state.get("kind") == "guarded" and not isinstance(det, GuardedDetector):
        state = state["inner"]
    det.restore_state(state)


def _dumps(obj: object) -> bytes:
    """Deterministic JSON: sorted keys, no whitespace.

    Detector snapshots emit dicts/lists with sorted contents, so equal
    logical state always serializes to equal bytes — which makes the
    byte-identity invariant testable at the file level too.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def write_checkpoint(
    path: str,
    state: dict,
    *,
    detector: str,
    event_cursor: int,
    feed_cursor: int,
    trace_digest: str,
    trace_name: str = "",
    batched: bool = False,
    batch_span: Optional[int] = None,
) -> dict:
    """Write ``state`` to ``path`` atomically; returns the manifest.

    ``event_cursor`` counts *original trace events* consumed;
    ``feed_cursor`` is the index into the (possibly coalesced) dispatch
    feed the session will resume from.  The two differ under batched
    dispatch, where one feed item can cover many events.
    """
    payload = zlib.compress(_dumps(state), 6)
    manifest = {
        "schema": SCHEMA_VERSION,
        "detector": detector,
        "event_cursor": event_cursor,
        "feed_cursor": feed_cursor,
        "trace_digest": trace_digest,
        "trace_name": trace_name,
        "batched": bool(batched),
        "batch_span": batch_span,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(_dumps(manifest))
            fh.write(b"\n")
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return manifest


def read_manifest(path: str) -> dict:
    """The manifest alone (no payload verification) — cheap triage."""
    manifest, _payload = _read_raw(path)
    return manifest


def read_checkpoint(path: str) -> Tuple[dict, dict]:
    """Load and fully verify a checkpoint: ``(manifest, state)``.

    Raises :class:`CheckpointError` on any corruption or version
    mismatch; a state dict is only ever returned when the payload's
    checksum, length, compression and JSON all verified.
    """
    return _verify(_read_raw(path), path)


def read_checkpoint_bytes(blob: bytes, label: str = "<bytes>") -> Tuple[dict, dict]:
    """:func:`read_checkpoint` over an in-memory checkpoint image — the
    form a cross-host migration ships over the wire.  Same verification,
    same :class:`CheckpointError` taxonomy; ``label`` only names the
    blob in error messages."""
    return _verify(_parse_blob(blob, label), label)


def _verify(parsed: Tuple[dict, bytes], label: str) -> Tuple[dict, dict]:
    manifest, payload = parsed
    if len(payload) != manifest["payload_bytes"]:
        raise CheckpointError(
            f"{label}: truncated payload "
            f"({len(payload)} of {manifest['payload_bytes']} bytes)"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest["payload_sha256"]:
        raise CheckpointError(f"{label}: payload checksum mismatch")
    try:
        state = json.loads(zlib.decompress(payload))
    except (zlib.error, ValueError) as exc:
        raise CheckpointError(f"{label}: undecodable payload: {exc}") from exc
    if not isinstance(state, dict):
        raise CheckpointError(f"{label}: payload is not a state dict")
    return manifest, state


def _read_raw(path: str) -> Tuple[dict, bytes]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable: {exc}") from exc
    return _parse_blob(blob, path)


def _parse_blob(blob: bytes, path: str) -> Tuple[dict, bytes]:
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    newline = blob.find(b"\n", len(MAGIC))
    if newline < 0:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(blob[len(MAGIC) : newline])
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: corrupt manifest (not an object)")
    schema = manifest.get("schema")
    if schema != SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: schema version {schema!r} not supported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    required = (
        "detector",
        "event_cursor",
        "feed_cursor",
        "trace_digest",
        "payload_sha256",
        "payload_bytes",
    )
    missing = [k for k in required if k not in manifest]
    if missing:
        raise CheckpointError(f"{path}: manifest missing fields {missing}")
    return manifest, blob[newline + 1 :]


def validate_manifest(
    manifest: dict,
    *,
    path: str,
    trace_digest: str,
    detector: str,
    batched: bool,
    batch_span: Optional[int],
) -> None:
    """Refuse a checkpoint that does not belong to this session.

    Digest mismatch means a different trace; detector or dispatch-mode
    mismatch means the resumed replay would diverge from the prefix the
    checkpoint captured — all are :class:`CheckpointError`.
    """
    if manifest["trace_digest"] != trace_digest:
        raise CheckpointError(
            f"{path}: checkpoint is for a different trace "
            f"(digest {manifest['trace_digest'][:12]}… != {trace_digest[:12]}…)"
        )
    if manifest["detector"] != detector:
        raise CheckpointError(
            f"{path}: checkpoint is for detector {manifest['detector']!r}, "
            f"this session runs {detector!r}"
        )
    # Dispatch mode changes the feed indexing, so the stored
    # feed_cursor would point at the wrong item.
    if bool(manifest.get("batched")) != bool(batched) or (
        batched and manifest.get("batch_span") != batch_span
    ):
        raise CheckpointError(
            f"{path}: checkpoint was taken under "
            f"batched={manifest.get('batched')} "
            f"span={manifest.get('batch_span')}, session uses "
            f"batched={batched} span={batch_span}"
        )
    # Older writers recorded a shard count; a state split across
    # several shard detectors cannot restore into one detector.
    # Checkpoints arrive from disk and over the migration wire, so this
    # stays refused rather than trusted.
    if manifest.get("shards", 1) != 1:
        raise CheckpointError(
            f"{path}: checkpoint state is {manifest['shards']!r}-way "
            f"sharded, this session runs one detector"
        )
