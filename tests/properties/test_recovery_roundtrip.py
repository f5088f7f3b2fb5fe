"""Property: snapshot/restore is invisible to detection.

For every registered detector, cutting a replay at a random point,
serializing the detector state through deterministic JSON (the exact
round trip a checkpoint file performs), restoring into a *fresh*
instance and finishing the replay must yield identical races and
statistics to an uninterrupted run.  The granularity family — whose
state machines, clock groups and shadow tables are the paper's
contribution — additionally gets batched-dispatch and golden-corpus
coverage.
"""

import json
import os
import random

import pytest

from repro.detectors.guards import GuardedDetector
from repro.detectors.registry import available_detectors, create_detector
from repro.runtime.trace import Trace
from repro.runtime.vm import dispatch_event, replay
from repro.testing.golden import default_corpus_dir, load_manifest
from repro.workloads.base import default_suppression
from repro.workloads.registry import build_trace

SEEDS = range(5)


def _race_keys(det):
    return [
        (r.addr, r.kind, r.tid, r.site, r.prev_tid, r.prev_site, r.unit)
        for r in det.races
    ]


def _json_round_trip(state):
    """The exact transformation checkpoint files apply to state."""
    return json.loads(
        json.dumps(state, sort_keys=True, separators=(",", ":"))
    )


def _cut_and_restore(trace, make_detector, cut, batched=False):
    """Replay to ``cut`` feed items, snapshot, restore into a fresh
    detector, finish the feed there; return the restored detector."""
    feed = trace.coalesced() if batched else trace.events
    first = make_detector()
    for ev in feed[:cut]:
        dispatch_event(first, ev)
    state = _json_round_trip(first.snapshot_state())
    second = make_detector()
    second.restore_state(state)
    for ev in feed[cut:]:
        dispatch_event(second, ev)
    second.finish()
    return second


def _uninterrupted(trace, make_detector, batched=False):
    det = make_detector()
    replay(trace, det, batched=batched)
    return det


@pytest.mark.parametrize("name", available_detectors())
def test_every_detector_roundtrips_at_random_cuts(name):
    trace = build_trace("ffmpeg", scale=0.15, seed=1)

    def make():
        return create_detector(name, suppress=default_suppression)

    want = _uninterrupted(trace, make)
    want_stats = want.statistics()
    for seed in SEEDS:
        cut = random.Random(seed).randrange(1, len(trace))
        got = _cut_and_restore(trace, make, cut)
        assert _race_keys(got) == _race_keys(want), (name, cut)
        assert got.statistics() == want_stats, (name, cut)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("name", ["fasttrack-byte", "dynamic"])
def test_granularity_family_deep_roundtrip(name, batched):
    trace = build_trace("streamcluster", scale=0.2, seed=2)

    def make():
        return create_detector(name, suppress=default_suppression)

    want = _uninterrupted(trace, make, batched=batched)
    want_stats = want.statistics()
    feed_len = len(trace.coalesced()) if batched else len(trace)
    for seed in SEEDS:
        cut = random.Random(100 + seed).randrange(1, feed_len)
        got = _cut_and_restore(trace, make, cut, batched=batched)
        assert _race_keys(got) == _race_keys(want), (name, cut, batched)
        assert got.statistics() == want_stats, (name, cut, batched)


@pytest.mark.parametrize("name", ["fasttrack-byte", "dynamic"])
def test_guarded_detector_roundtrips(name):
    trace = build_trace("streamcluster", scale=0.2, seed=2)

    def make():
        return GuardedDetector(
            create_detector(name, suppress=default_suppression),
            shadow_budget=100_000,
        )

    want = _uninterrupted(trace, make)
    for seed in SEEDS[:3]:
        cut = random.Random(200 + seed).randrange(1, len(trace))
        got = _cut_and_restore(trace, make, cut)
        assert _race_keys(got) == _race_keys(want), (name, cut)
        assert got.statistics() == want.statistics(), (name, cut)


@pytest.mark.parametrize("name", sorted(load_manifest()))
def test_golden_corpus_roundtrips(name):
    trace = Trace.load(os.path.join(default_corpus_dir(), f"{name}.npz"))

    def make():
        return create_detector("dynamic", suppress=default_suppression)

    want = _uninterrupted(trace, make)
    cut = random.Random(sum(map(ord, name))).randrange(1, len(trace))
    got = _cut_and_restore(trace, make, cut)
    assert _race_keys(got) == _race_keys(want), (name, cut)
    assert got.statistics() == want.statistics(), (name, cut)


def test_restore_refuses_wrong_detector_state():
    trace = build_trace("ffmpeg", scale=0.1, seed=0)
    ft = create_detector("fasttrack-byte", suppress=default_suppression)
    replay(trace, ft)
    dyn = create_detector("dynamic", suppress=default_suppression)
    with pytest.raises(ValueError):
        dyn.restore_state(_json_round_trip(ft.snapshot_state()))
