"""Tests for the checkpoint file format (recovery/checkpoint.py)."""

import hashlib
import json
import os
import pathlib
import zlib

import pytest

from repro.recovery.checkpoint import (
    MAGIC,
    SCHEMA_VERSION,
    CheckpointDir,
    CheckpointError,
    read_checkpoint,
    read_manifest,
    validate_manifest,
    write_checkpoint,
)
from repro.server.tenant import TenantSession
from repro.workloads.registry import build_trace

STATE = {"kind": "demo", "table": [[1, 2], [3, 4]], "clock": [0, 5, 7]}


def _write(path, **overrides):
    kwargs = dict(
        detector="dynamic",
        event_cursor=123,
        feed_cursor=45,
        trace_digest="d" * 64,
        trace_name="demo",
    )
    kwargs.update(overrides)
    return write_checkpoint(str(path), STATE, **kwargs)


def test_round_trip(tmp_path):
    path = tmp_path / "ckpt-000000000123.ckpt"
    manifest = _write(path)
    got_manifest, got_state = read_checkpoint(str(path))
    assert got_state == STATE
    assert got_manifest == manifest
    assert got_manifest["schema"] == SCHEMA_VERSION
    assert got_manifest["event_cursor"] == 123
    assert got_manifest["feed_cursor"] == 45
    assert read_manifest(str(path)) == manifest


def test_equal_state_serializes_to_equal_bytes(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    _write(a)
    _write(b)
    assert a.read_bytes() == b.read_bytes()


def test_write_is_atomic_no_temp_left_behind(tmp_path):
    path = tmp_path / "ckpt.ckpt"
    _write(path)
    assert sorted(os.listdir(tmp_path)) == ["ckpt.ckpt"]


def test_overwrite_replaces_whole_file(tmp_path):
    path = tmp_path / "ckpt.ckpt"
    _write(path, event_cursor=1)
    _write(path, event_cursor=2)
    manifest, state = read_checkpoint(str(path))
    assert manifest["event_cursor"] == 2
    assert state == STATE


def test_missing_file_is_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="unreadable"):
        read_checkpoint(str(tmp_path / "nope.ckpt"))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "ckpt.ckpt"
    _write(path)
    blob = path.read_bytes()
    path.write_bytes(b"GARBAGE!" + blob[len(MAGIC):])
    with pytest.raises(CheckpointError, match="bad magic"):
        read_checkpoint(str(path))


@pytest.mark.parametrize("offset_from", ["manifest", "payload"])
def test_flipped_byte_rejected(tmp_path, offset_from):
    path = tmp_path / "ckpt.ckpt"
    _write(path)
    blob = bytearray(path.read_bytes())
    newline = blob.index(b"\n", len(MAGIC))
    offset = len(MAGIC) + 2 if offset_from == "manifest" else newline + 3
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        read_checkpoint(str(path))


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "ckpt.ckpt"
    _write(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CheckpointError, match="truncated payload"):
        read_checkpoint(str(path))


def test_truncated_manifest_rejected(tmp_path):
    path = tmp_path / "ckpt.ckpt"
    _write(path)
    path.write_bytes(path.read_bytes()[: len(MAGIC) + 10])
    with pytest.raises(CheckpointError, match="truncated manifest"):
        read_checkpoint(str(path))


def test_unknown_schema_version_rejected(tmp_path):
    path = tmp_path / "ckpt.ckpt"
    _write(path)
    blob = path.read_bytes()
    newline = blob.index(b"\n", len(MAGIC))
    manifest_bytes = blob[len(MAGIC):newline]
    hacked = manifest_bytes.replace(
        b'"schema":%d' % SCHEMA_VERSION, b'"schema":999'
    )
    assert hacked != manifest_bytes
    path.write_bytes(MAGIC + hacked + blob[newline:])
    with pytest.raises(CheckpointError, match="schema version 999"):
        read_checkpoint(str(path))


def test_checksum_catches_silent_payload_swap(tmp_path):
    path = tmp_path / "ckpt.ckpt"
    _write(path)
    blob = path.read_bytes()
    newline = blob.index(b"\n", len(MAGIC))
    fake = zlib.compress(b'{"kind":"evil"}')
    # Same length? Unlikely — pad the honest way: rewrite payload only.
    path.write_bytes(blob[: newline + 1] + fake)
    with pytest.raises(CheckpointError):
        read_checkpoint(str(path))


def test_validate_manifest_wrong_trace(tmp_path):
    path = tmp_path / "ckpt.ckpt"
    manifest = _write(path)
    with pytest.raises(CheckpointError, match="different trace"):
        validate_manifest(
            manifest,
            path=str(path),
            trace_digest="e" * 64,
            detector="dynamic",
            batched=False,
            batch_span=None,
        )


def test_validate_manifest_wrong_detector(tmp_path):
    path = tmp_path / "ckpt.ckpt"
    manifest = _write(path)
    with pytest.raises(CheckpointError, match="detector"):
        validate_manifest(
            manifest,
            path=str(path),
            trace_digest="d" * 64,
            detector="fasttrack-byte",
            batched=False,
            batch_span=None,
        )


def test_validate_manifest_dispatch_mode_mismatch(tmp_path):
    path = tmp_path / "ckpt.ckpt"
    manifest = _write(path, batched=True, batch_span=4096)
    # batched checkpoint into an unbatched session
    with pytest.raises(CheckpointError, match="batched"):
        validate_manifest(
            manifest,
            path=str(path),
            trace_digest="d" * 64,
            detector="dynamic",
            batched=False,
            batch_span=None,
        )
    # batched, but a different span
    with pytest.raises(CheckpointError, match="span"):
        validate_manifest(
            manifest,
            path=str(path),
            trace_digest="d" * 64,
            detector="dynamic",
            batched=True,
            batch_span=1024,
        )
    # exact match passes
    validate_manifest(
        manifest,
        path=str(path),
        trace_digest="d" * 64,
        detector="dynamic",
        batched=True,
        batch_span=4096,
    )


def _validate(manifest, path):
    validate_manifest(
        manifest,
        path=str(path),
        trace_digest="d" * 64,
        detector="dynamic",
        batched=False,
        batch_span=None,
    )


def test_manifest_shard_count_mismatch_is_a_checkpoint_error(tmp_path):
    """Older writers recorded a shard count; a state split across
    several shard detectors must not restore into one detector, whether
    it comes from disk or over the migration wire."""
    path = tmp_path / "ckpt.ckpt"
    _write(path)
    blob = path.read_bytes()
    newline = blob.index(b"\n", len(MAGIC))
    manifest = json.loads(blob[len(MAGIC):newline])
    hacked = json.dumps(
        dict(manifest, shards=4), sort_keys=True, separators=(",", ":")
    ).encode("ascii")
    path.write_bytes(MAGIC + hacked + blob[newline:])
    got, state = read_checkpoint(str(path))
    assert got["shards"] == 4 and state == STATE
    with pytest.raises(CheckpointError, match="4-way sharded"):
        _validate(got, path)
    for shards in (2, 0, "4", None):
        with pytest.raises(CheckpointError, match="sharded"):
            _validate(dict(manifest, shards=shards), path)
    # an explicit single-detector count still loads
    _validate(dict(manifest, shards=1), path)


def test_manifest_without_shard_field_loads(tmp_path):
    path = tmp_path / "ckpt.ckpt"
    written = _write(path)
    assert "shards" not in written
    got, state = read_checkpoint(str(path))
    assert "shards" not in got and state == STATE
    _validate(got, path)


def _as_schema_1(path):
    """Rewrite a schema-2 checkpoint of a dynamic detector as schema 1
    wrote it: one ``[slot, record]`` pair per occupied table slot and
    ``"schema":1`` in the manifest (payload checksum and length kept
    valid, so only the version can refuse it)."""
    manifest, state = read_checkpoint(str(path))
    for manager in ("wg", "rg"):
        table = state[manager]["table"]
        table["buckets"] = [
            [key, full, [[i, gid] for a, n, gid in runs for i in range(a, a + n)]]
            for key, full, runs in table["buckets"]
        ]
    payload = zlib.compress(
        json.dumps(state, sort_keys=True, separators=(",", ":")).encode("ascii")
    )
    manifest.update(
        schema=1,
        payload_sha256=hashlib.sha256(payload).hexdigest(),
        payload_bytes=len(payload),
    )
    head = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    path.write_bytes(MAGIC + head.encode("ascii") + b"\n" + payload)


def _tenant(tmp_path):
    return TenantSession(
        "t1",
        "fasttrack-dynamic",
        checkpoint_dir=str(tmp_path / "ck"),
        checkpoint_every=300,
    )


def _stream(session, rows, chunk=100):
    for start in range(0, len(rows), chunk):
        session.dispatch_chunk(rows[start : start + chunk])
        session.commit_chunk(rows[start : start + chunk])


@pytest.fixture
def stream_rows():
    trace = build_trace("streamcluster", scale=0.05, seed=0)
    return [tuple(ev) for ev in trace.events[:1200]]


def test_schema_1_per_slot_checkpoint_is_refused(tmp_path, stream_rows):
    assert SCHEMA_VERSION == 2
    session = _tenant(tmp_path)
    _stream(session, stream_rows)
    path = pathlib.Path(session.checkpoints()[-1])
    _as_schema_1(path)
    with pytest.raises(CheckpointError, match="schema version 1 not supported"):
        read_checkpoint(str(path))


def test_adopt_over_only_schema_1_checkpoints_restarts_cold(
    tmp_path, stream_rows
):
    _stream(_tenant(tmp_path), stream_rows)
    old = sorted((tmp_path / "ck").glob("ckpt-*.ckpt"))
    assert len(old) == 3
    for path in old:
        _as_schema_1(path)
    heir = _tenant(tmp_path)
    heir.adopt()
    assert heir.recovery["bad_checkpoints"] == 3
    assert heir.recovery["cold_restarts"] == 1
    assert heir.events_done == heir.feed_done == 0
    assert heir.checkpoints() == []
    # The cold session streams from event 0 and checkpoints schema 2.
    _stream(heir, stream_rows[:300])
    manifest, _state = read_checkpoint(heir.checkpoints()[-1])
    assert manifest["schema"] == 2


def test_prune_returns_the_retained_paths(tmp_path, monkeypatch):
    store = CheckpointDir(str(tmp_path), keep=2)
    for cursor in (100, 200, 300, 400):
        _write(store.path_for(cursor), event_cursor=cursor)
    assert store.prune() == (2, [store.path_for(300), store.path_for(400)])
    assert store.paths() == [store.path_for(300), store.path_for(400)]
    _write(store.path_for(500), event_cursor=500)
    _write(store.path_for(600), event_cursor=600)
    stuck = store.path_for(300)
    real_unlink = os.unlink

    def unlink(path):
        if path == stuck:
            raise PermissionError(path)
        real_unlink(path)

    monkeypatch.setattr(os, "unlink", unlink)
    removed, left = store.prune()
    assert removed == 1
    assert left == store.paths()
    assert left == [stuck, store.path_for(500), store.path_for(600)]


def test_checkpoint_lists_the_directory_once(
    tmp_path, stream_rows, monkeypatch
):
    session = _tenant(tmp_path)
    _stream(session, stream_rows[:1100])
    assert session.recovery["checkpoints_gced"] == 0
    listings = []
    real_listdir = os.listdir
    monkeypatch.setattr(
        os, "listdir", lambda path: listings.append(path) or real_listdir(path)
    )
    session.checkpoint_now()
    assert listings == [session.checkpoint_dir]
    assert session.recovery["checkpoints_gced"] == 1
    assert [CheckpointDir.cursor_of(p) for p in session.checkpoints()] == [
        600,
        900,
        1100,
    ]
    assert session._tail_base == 600
