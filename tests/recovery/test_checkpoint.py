"""Tests for the checkpoint file format (recovery/checkpoint.py)."""

import json
import os
import zlib

import pytest

from repro.recovery.checkpoint import (
    MAGIC,
    SCHEMA_VERSION,
    CheckpointError,
    read_checkpoint,
    read_manifest,
    validate_manifest,
    write_checkpoint,
)

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
