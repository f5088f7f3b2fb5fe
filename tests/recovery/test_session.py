"""The crash-consistency invariant, end to end.

A detection session killed at arbitrary points and resumed from its
last good checkpoint must report byte-identical races and statistics
(modulo the ``recovery`` section) to a session that was never
interrupted — for both granularity families, plain and batched.
"""

import os

import pytest

from repro.detectors.registry import create_detector
from repro.recovery.session import (
    LATEST,
    DetectionSession,
    DetectorKilled,
    Supervisor,
)
from repro.runtime.faults import KILL_DETECTOR, FaultPlan, FaultSpec
from repro.runtime.vm import replay
from repro.workloads.base import default_suppression
from repro.workloads.registry import build_trace

DETECTORS = ("fasttrack-byte", "dynamic")


def _race_keys(result):
    return [
        (r.addr, r.kind, r.tid, r.site, r.prev_tid, r.prev_site, r.unit)
        for r in result.races
    ]


def _strip_recovery(stats):
    return {k: v for k, v in stats.items() if k != "recovery"}


def _straight(trace, detector, batched=False):
    return replay(
        trace,
        create_detector(detector, suppress=default_suppression),
        batched=batched,
    )


def _session(trace, detector, tmp_path, **kwargs):
    kwargs.setdefault("suppress", default_suppression)
    kwargs.setdefault("checkpoint_every", 700)
    return DetectionSession(
        trace, detector, checkpoint_dir=str(tmp_path / "ckpts"), **kwargs
    )


@pytest.fixture(scope="module")
def trace():
    return build_trace("ffmpeg", scale=0.2, seed=1)


@pytest.mark.parametrize("detector", DETECTORS)
def test_uninterrupted_session_matches_plain_replay(trace, detector, tmp_path):
    want = _straight(trace, detector)
    got = _session(trace, detector, tmp_path).run()
    assert _race_keys(got) == _race_keys(want)
    assert _strip_recovery(got.stats) == want.stats


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("detector", DETECTORS)
def test_killed_and_resumed_is_byte_identical(
    trace, detector, batched, tmp_path
):
    want = _straight(trace, detector, batched=batched)
    session = _session(
        trace,
        detector,
        tmp_path,
        batched=batched,
        kills=[len(trace) // 3, 2 * len(trace) // 3],
    )
    got = Supervisor(session).run()
    rec = got.stats["recovery"]
    assert rec["kills_fired"] == 2
    assert rec["resumes"] >= 1
    assert _race_keys(got) == _race_keys(want)
    assert _strip_recovery(got.stats) == want.stats


@pytest.mark.parametrize("detector", DETECTORS)
def test_kill_before_first_checkpoint_restarts_cold(trace, detector, tmp_path):
    want = _straight(trace, detector)
    session = _session(
        trace, detector, tmp_path, checkpoint_every=10_000_000, kills=[50]
    )
    got = Supervisor(session).run()
    rec = got.stats["recovery"]
    assert rec["kills_fired"] == 1
    assert rec["resumes"] == 0  # nothing to resume from: cold restart
    assert _race_keys(got) == _race_keys(want)
    assert _strip_recovery(got.stats) == want.stats


def test_kill_raises_at_feed_boundary(trace, tmp_path):
    session = _session(trace, "dynamic", tmp_path, kills=[100])
    with pytest.raises(DetectorKilled) as err:
        session.run()
    assert err.value.at_event == 100
    # each planned kill fires once per session: the retry completes
    result = session.run(resume=LATEST)
    assert session.recovery["kills_fired"] == 1
    assert result.races is not None


def test_kills_accepted_as_fault_plan(trace, tmp_path):
    plan = FaultPlan(
        [FaultSpec(KILL_DETECTOR, 200), FaultSpec("kill-thread", 5)]
    )
    session = _session(trace, "dynamic", tmp_path, kills=plan)
    with pytest.raises(DetectorKilled):
        session.run()
    assert session._kills == [200]  # scheduler-side specs ignored


def test_resume_latest_without_checkpoints_is_fresh(trace, tmp_path):
    session = _session(trace, "dynamic", tmp_path)
    got = session.run(resume=LATEST)
    assert got.stats["recovery"]["resumes"] == 0
    assert _race_keys(got) == _race_keys(_straight(trace, "dynamic"))


def test_checkpoints_pruned_to_keep_limit(trace, tmp_path):
    session = _session(trace, "dynamic", tmp_path, checkpoint_every=300)
    session.run()
    assert len(session.checkpoints()) <= session.keep_checkpoints
    assert session.recovery["checkpoints_written"] > session.keep_checkpoints


def test_checkpoint_files_are_deterministic(trace, tmp_path):
    a = _session(trace, "dynamic", tmp_path / "a", kills=[900])
    with pytest.raises(DetectorKilled):
        a.run()
    b = _session(trace, "dynamic", tmp_path / "b", kills=[900])
    with pytest.raises(DetectorKilled):
        b.run()
    [pa] = a.checkpoints()[-1:]
    [pb] = b.checkpoints()[-1:]
    with open(pa, "rb") as fa, open(pb, "rb") as fb:
        assert fa.read() == fb.read()


def test_validation_errors_are_typed():
    with pytest.raises(ValueError):
        DetectionSession(
            build_trace("ffmpeg", scale=0.1, seed=0),
            checkpoint_dir="x",
            checkpoint_every=0,
        )
    with pytest.raises(ValueError):
        DetectionSession(
            build_trace("ffmpeg", scale=0.1, seed=0),
            checkpoint_dir="x",
            keep_checkpoints=1,
        )
