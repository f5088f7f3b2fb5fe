"""Supervisor behaviour around bad checkpoints and hopeless detectors."""

import os

import pytest

from repro.detectors.base import Detector
from repro.detectors.registry import create_detector
from repro.recovery.checkpoint import (
    MAGIC,
    CheckpointDir,
    CheckpointError,
    read_checkpoint,
)
from repro.recovery.session import (
    LATEST,
    MAX_RETRIES,
    DetectionSession,
    DetectorKilled,
    Supervisor,
    SupervisorError,
)
from repro.runtime.vm import replay
from repro.workloads.base import default_suppression
from repro.workloads.registry import build_trace


def _race_keys(result):
    return [
        (r.addr, r.kind, r.tid, r.site, r.prev_tid, r.prev_site, r.unit)
        for r in result.races
    ]


@pytest.fixture(scope="module")
def trace():
    return build_trace("ffmpeg", scale=0.2, seed=1)


def _session(trace, tmp_path, **kwargs):
    kwargs.setdefault("suppress", default_suppression)
    kwargs.setdefault("checkpoint_every", 700)
    return DetectionSession(
        trace, "dynamic", checkpoint_dir=str(tmp_path / "ckpts"), **kwargs
    )


def test_corrupt_newest_falls_back_to_previous(trace, tmp_path):
    want = replay(
        trace, create_detector("dynamic", suppress=default_suppression)
    )
    # Produce a few checkpoints, then die.
    session = _session(trace, tmp_path, kills=[2200], keep_checkpoints=5)
    with pytest.raises(DetectorKilled):
        session.run()
    found = session.checkpoints()
    assert len(found) >= 2
    # Flip a byte in the newest checkpoint's payload.
    newest = found[-1]
    with open(newest, "rb") as fh:
        blob = bytearray(fh.read())
    blob[60] ^= 0xFF
    with open(newest, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(CheckpointError):
        read_checkpoint(newest)

    got = Supervisor(session).run()
    rec = got.stats["recovery"]
    assert rec["bad_checkpoints"] == 1
    assert rec["resumes"] == 1
    # Resumed from the previous generation, not the corrupt one.
    assert rec["last_resume_event"] < 2200
    assert _race_keys(got) == _race_keys(want)
    # The resumed replay rewrote the discarded generation: the new file
    # reads back as a good checkpoint and is offered again.
    manifest, _state = read_checkpoint(newest)
    assert manifest["event_cursor"] == CheckpointDir.cursor_of(newest)
    assert newest in session.checkpoints()


def test_rewritten_generation_is_resumed_and_pruned(trace, tmp_path):
    want = replay(
        trace, create_detector("dynamic", suppress=default_suppression)
    )
    session = _session(
        trace, tmp_path, kills=[2200, 2500], keep_checkpoints=2
    )
    with pytest.raises(DetectorKilled):
        session.run()
    newest = session.checkpoints()[-1]
    assert CheckpointDir.cursor_of(newest) == 2100
    with open(newest, "wb") as fh:
        fh.write(MAGIC + b"not json\n")
    # Falls back to 1400, rewrites 2100 on the way, dies at 2500.
    with pytest.raises(DetectorKilled):
        session.run(resume=LATEST)
    assert session.recovery["last_resume_event"] == 1400
    assert session.checkpoints() == [
        session._store.path_for(1400), newest
    ]
    # The second kill resumes from the rewritten generation, not one
    # further back, and the finished run equals an uninterrupted one.
    got = session.run(resume=LATEST)
    assert session.recovery["last_resume_event"] == 2100
    assert session.recovery["bad_checkpoints"] == 1
    assert _race_keys(got) == _race_keys(want)
    # Once two newer generations exist, prune() deletes it.
    assert newest not in session.checkpoints()
    assert not os.path.exists(newest)


def test_all_checkpoints_corrupt_means_cold_restart(trace, tmp_path):
    want = replay(
        trace, create_detector("dynamic", suppress=default_suppression)
    )
    session = _session(trace, tmp_path, kills=[2200], keep_checkpoints=5)
    with pytest.raises(DetectorKilled):
        session.run()
    for path in session.checkpoints():
        with open(path, "wb") as fh:
            fh.write(MAGIC + b"not json\n" + b"junk")
    got = Supervisor(session).run()
    rec = got.stats["recovery"]
    assert rec["bad_checkpoints"] >= 1
    assert _race_keys(got) == _race_keys(want)


class _AlwaysCrashes(Detector):
    name = "always-crashes"

    def on_read(self, tid, addr, size, site=0):
        raise RuntimeError("hopeless")

    def on_write(self, tid, addr, size, site=0):
        raise RuntimeError("hopeless")


def test_hopeless_detector_exhausts_retries(trace, tmp_path):
    session = DetectionSession(
        trace,
        _AlwaysCrashes,
        checkpoint_dir=str(tmp_path / "ckpts"),
        checkpoint_every=700,
    )
    with pytest.raises(
        SupervisorError, match=f"giving up after {MAX_RETRIES} retries"
    ):
        Supervisor(session).run()
    # the first try + MAX_RETRIES retries
    assert session.recovery["crashes"] == MAX_RETRIES + 1
