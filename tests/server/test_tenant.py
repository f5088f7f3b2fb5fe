"""TenantSession unit tests: the streaming kill-and-resume invariant.

The contract under test (ALGORITHM.md §13): a tenant session killed at
any point and resumed from its newest good checkpoint — replaying the
retained tail — reports races and statistics byte-identical to a
session that was never interrupted, while holding only a bounded
window of events in memory.
"""

import os

import pytest

from repro.recovery.session import DetectorKilled
from repro.server.protocol import dumps_canonical
from repro.server.tenant import RecoveryExhausted, TenantSession
from repro.workloads.registry import build_trace

DETECTOR = "fasttrack-byte"


def _events(name="streamcluster", scale=0.05, seed=0):
    return [tuple(ev) for ev in build_trace(name, scale=scale, seed=seed).events]


def _stream(session, events, chunk=256):
    for start in range(0, len(events), chunk):
        rows = events[start : start + chunk]
        session.dispatch_chunk(rows)
        session.commit_chunk(rows)


def _result_body(result):
    return dumps_canonical({"races": result["races"], "stats": result["stats"]})


@pytest.fixture
def events():
    return _events()


def _session(tmp_path, **kw):
    kw.setdefault("checkpoint_every", 400)
    return TenantSession(
        "t1", DETECTOR, checkpoint_dir=str(tmp_path / "ck"), **kw
    )


class TestStreaming:
    def test_uninterrupted_matches_local_replay(
        self, tmp_path, events, local_baseline
    ):
        session = _session(tmp_path)
        _stream(session, events)
        result = session.finish()
        assert _result_body(result) == dumps_canonical(local_baseline(events))
        assert result["events"] == len(events)

    def test_checkpoint_cadence(self, tmp_path, events):
        session = _session(tmp_path, checkpoint_every=500)
        _stream(session, events, chunk=100)
        written = session.recovery["checkpoints_written"]
        assert written == len(events) // 500
        # Only keep_checkpoints generations remain on disk.
        assert len(session.checkpoints()) <= session.keep_checkpoints

    def test_tail_stays_bounded(self, tmp_path, events):
        session = _session(tmp_path, checkpoint_every=300, keep_checkpoints=2)
        _stream(session, events, chunk=100)
        # Tail reaches back to the oldest retained checkpoint only.
        assert session.tail_events <= 2 * 300 + 100

    def test_race_cursor_is_monotone(self, tmp_path, events):
        session = _session(tmp_path)
        seen = []
        for start in range(0, len(events), 256):
            rows = events[start : start + 256]
            session.dispatch_chunk(rows)
            session.commit_chunk(rows)
            seen.extend(session.new_races())
        result = session.finish()
        assert [r.as_list() for r in seen] == result["races"]
        assert session.new_races() == []

    def test_invalid_tenant_id_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TenantSession(
                "../escape", DETECTOR, checkpoint_dir=str(tmp_path)
            )

    def test_bad_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _session(tmp_path, checkpoint_every=0)


class TestMigration:
    def test_kill_and_resume_byte_identical(
        self, tmp_path, events, local_baseline
    ):
        session = _session(tmp_path, kill_at=[700, 1900])
        kills = 0
        for start in range(0, len(events), 256):
            rows = events[start : start + 256]
            while True:
                try:
                    session.dispatch_chunk(rows)
                    break
                except DetectorKilled:
                    kills += 1
                    session.resume()
            session.commit_chunk(rows)
        result = session.finish()
        assert kills == 2
        assert result["recovery"]["resumes"] == 2
        assert _result_body(result) == dumps_canonical(local_baseline(events))

    def test_abandoned_dispatch_does_not_corrupt(
        self, tmp_path, events, local_baseline
    ):
        """A wedged dispatch is abandoned mid-chunk: nothing committed,
        resume rebuilds the boundary state exactly."""
        session = _session(tmp_path)
        half = len(events) // 2
        _stream(session, events[:half], chunk=256)
        # Simulate a wedge: dispatch mutates the detector, then the
        # daemon walks away without committing.
        session.dispatch_chunk(events[half : half + 256])
        session.resume()
        _stream(session, events[half:], chunk=256)
        result = session.finish()
        assert _result_body(result) == dumps_canonical(local_baseline(events))

    def test_dispatch_started_after_resume_feeds_its_bound_detector(
        self, tmp_path, events, local_baseline
    ):
        """A dispatch scheduled before a resume but started after it (a
        chunk still queued for an executor thread when a quiesce rolled
        the session back) feeds the detector it was bound to, which the
        resume discarded, never the restored live one."""
        session = _session(tmp_path)
        half = len(events) // 2
        _stream(session, events[:half], chunk=256)
        late = session.bind_chunk(events[half : half + 256])
        session.resume()
        late()
        _stream(session, events[half:], chunk=256)
        result = session.finish()
        assert _result_body(result) == dumps_canonical(local_baseline(events))

    def test_corrupt_checkpoint_falls_back_a_generation(
        self, tmp_path, events, local_baseline
    ):
        session = _session(tmp_path, checkpoint_every=300)
        _stream(session, events[:1500], chunk=100)
        newest = session.checkpoints()[-1]
        with open(newest, "r+b") as fh:
            fh.seek(0)
            fh.write(b"\x00" * 64)
        session.resume()
        assert session.recovery["bad_checkpoints"] >= 1
        _stream(session, events[1500:], chunk=100)
        result = session.finish()
        assert _result_body(result) == dumps_canonical(local_baseline(events))

    def test_cold_restart_when_tail_reaches_zero(
        self, tmp_path, events, local_baseline
    ):
        session = _session(tmp_path, checkpoint_every=10**9)  # never
        _stream(session, events[:500], chunk=100)
        session.resume()
        assert session.recovery["cold_restarts"] == 1
        _stream(session, events[500:], chunk=100)
        result = session.finish()
        assert _result_body(result) == dumps_canonical(local_baseline(events))

    def test_recovery_exhausted_when_nothing_usable(self, tmp_path, events):
        session = _session(tmp_path, checkpoint_every=300, keep_checkpoints=2)
        _stream(session, events[:1500], chunk=100)
        assert session._tail_base > 0  # the tail no longer reaches 0
        for path in list(session.checkpoints()):
            session.discard_checkpoint(path)
        with pytest.raises(RecoveryExhausted):
            session.resume()

    def test_kill_fires_exactly_once(self, tmp_path, events):
        session = _session(tmp_path, kill_at=[100])
        with pytest.raises(DetectorKilled):
            session.dispatch_chunk(events[:256])
        session.resume()
        # The same chunk retries clean — the kill point was consumed.
        session.dispatch_chunk(events[:256])
        session.commit_chunk(events[:256])
        assert session.recovery["kills_fired"] == 1


class TestCheckpointHygiene:
    def test_checkpoint_files_are_pruned(self, tmp_path, events):
        session = _session(tmp_path, checkpoint_every=200, keep_checkpoints=2)
        _stream(session, events, chunk=100)
        on_disk = [
            n
            for n in os.listdir(session.checkpoint_dir)
            if n.endswith(".ckpt")
        ]
        assert len(on_disk) <= 2

    def test_checkpoint_now_is_resumable_boundary(
        self, tmp_path, events, local_baseline
    ):
        session = _session(tmp_path, checkpoint_every=10**9)
        _stream(session, events[:700], chunk=100)
        session.checkpoint_now()  # the SIGTERM drain path
        cursor = session.resume()
        assert cursor == 700
        _stream(session, events[700:], chunk=100)
        result = session.finish()
        assert _result_body(result) == dumps_canonical(local_baseline(events))


class TestCheckpointGC:
    def test_gc_counts_and_keeps_newest(self, tmp_path, events):
        session = _session(tmp_path, checkpoint_every=200, keep_checkpoints=2)
        _stream(session, events, chunk=100)
        assert session.recovery["checkpoints_gced"] >= 1
        kept = session.checkpoints()
        assert len(kept) <= 2
        # The retained generations are the newest ones.
        written = session.recovery["checkpoints_written"]
        cursors = sorted(
            int(os.path.basename(p).split("-")[1].split(".")[0])
            for p in kept
        )
        assert cursors[-1] == written * 200

    def test_generation_fallback_survives_gc(
        self, tmp_path, events, local_baseline
    ):
        """After GC pruned old generations, corrupting the newest one
        must still fall back to the older *retained* generation — GC
        may never eat the safety margin."""
        session = _session(tmp_path, checkpoint_every=300, keep_checkpoints=2)
        _stream(session, events[:1800], chunk=100)
        assert session.recovery["checkpoints_gced"] >= 1
        newest = session.checkpoints()[-1]
        with open(newest, "r+b") as fh:
            fh.seek(0)
            fh.write(b"\x00" * 64)
        session.resume()
        assert session.recovery["bad_checkpoints"] >= 1
        _stream(session, events[1800:], chunk=100)
        result = session.finish()
        assert _result_body(result) == dumps_canonical(local_baseline(events))


class TestExportImport:
    def test_export_adopt_byte_identical(
        self, tmp_path, events, local_baseline
    ):
        donor = _session(tmp_path, checkpoint_every=300)
        half = len(events) // 2
        _stream(donor, events[:half], chunk=100)
        donor.new_races()  # races streamed to the client so far
        header, blob, tail = donor.export_state()
        assert header["events_done"] == half
        assert header["tail_base"] + len(tail) >= half

        heir = TenantSession(
            "t1", DETECTOR,
            checkpoint_dir=str(tmp_path / "peer"), checkpoint_every=300,
        )
        heir.adopt_import(header, blob, tail)
        assert heir.events_done == half
        assert heir.races_sent == header["races_sent"]
        assert heir.recovery["migrations"] == 1
        _stream(heir, events[half:], chunk=100)
        result = heir.finish()
        assert _result_body(result) == dumps_canonical(local_baseline(events))

    def test_adopt_rejects_corrupt_blob(self, tmp_path, events):
        donor = _session(tmp_path, checkpoint_every=300)
        _stream(donor, events[:600], chunk=100)
        header, blob, tail = donor.export_state()
        heir = TenantSession(
            "t1", DETECTOR, checkpoint_dir=str(tmp_path / "peer"),
        )
        mangled = blob[:50] + b"\x00\x00\x00\x00" + blob[54:]
        with pytest.raises(Exception):
            heir.adopt_import(header, mangled, tail)
        # Nothing was landed on disk for the failed adoption.
        assert heir.checkpoints() == []

    def test_adopt_rejects_short_tail(self, tmp_path, events):
        donor = _session(tmp_path, checkpoint_every=300)
        _stream(donor, events[:600], chunk=100)
        header, blob, tail = donor.export_state()
        header = dict(header, tail_base=header["tail_base"] + 50)
        heir = TenantSession(
            "t1", DETECTOR, checkpoint_dir=str(tmp_path / "peer"),
        )
        with pytest.raises(ValueError):
            heir.adopt_import(header, blob, tail[:-60] if len(tail) > 60 else [])

    def test_export_refused_after_finish(self, tmp_path, events):
        session = _session(tmp_path)
        _stream(session, events[:200], chunk=100)
        session.finish()
        with pytest.raises(ValueError):
            session.export_state()
