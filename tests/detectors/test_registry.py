"""Unit tests for detector registry construction and liveness.

Beyond construction, every registered name must actually *work*: replay
a golden-corpus trace end to end, and round-trip its state through
snapshot/restore mid-trace with no effect on the final result (the
contract the recovery subsystem relies on for every detector it can be
asked to checkpoint).
"""

import os

import pytest

from repro.core.detector import DynamicGranularityDetector
from repro.detectors import available_detectors, create_detector
from repro.detectors.fasttrack import FastTrackDetector
from repro.detectors.registry import ALIASES, canonical_name
from repro.runtime.trace import Trace
from repro.runtime.vm import dispatch_event, replay
from repro.testing.golden import default_corpus_dir, load_manifest
from repro.workloads.base import default_suppression


def test_every_registered_name_constructs():
    for name in available_detectors():
        det = create_detector(name)
        assert hasattr(det, "on_read")
        assert hasattr(det, "races")


def test_every_listed_name_builds_a_detector_of_that_name():
    for name in available_detectors():
        assert create_detector(name).name == name


def test_listing_is_the_canonical_names():
    assert available_detectors() == [
        "djit-byte", "djit-word", "drd", "eraser", "fasttrack-byte",
        "fasttrack-dynamic", "fasttrack-word", "inspector", "literace",
        "o1", "pacer",
    ]


def test_unknown_name_raises_with_choices():
    with pytest.raises(ValueError, match="fasttrack-byte"):
        create_detector("nope")
    with pytest.raises(ValueError, match="fasttrack-byte"):
        canonical_name("pacer:dynamic")


def test_granularities_wired_correctly():
    assert create_detector("fasttrack-byte").granularity == 1
    assert create_detector("fasttrack-word").granularity == 4
    assert create_detector("djit-word").granularity == 4


def test_dynamic_aliases():
    assert isinstance(create_detector("dynamic"), DynamicGranularityDetector)
    assert isinstance(
        create_detector("fasttrack-dynamic"), DynamicGranularityDetector
    )
    fasttrack = create_detector("fasttrack")
    assert isinstance(fasttrack, FastTrackDetector)
    assert fasttrack.name == "fasttrack-byte"
    for alias, canonical in ALIASES.items():
        assert canonical_name(alias) == canonical
        assert create_detector(alias).name == canonical
        assert alias not in available_detectors()


def test_dynamic_flags_forwarded():
    det = create_detector("dynamic", init_state=False, neighbor_scan_limit=4)
    assert det.config.init_state is False
    assert det.config.neighbor_scan_limit == 4


def test_dynamic_config_object_forwarded():
    from repro.core.config import DynamicConfig

    cfg = DynamicConfig(share_at_init=False)
    det = create_detector("dynamic", config=cfg)
    assert det.config is cfg


def test_config_and_flags_conflict():
    from repro.core.config import DynamicConfig

    with pytest.raises(TypeError):
        create_detector("dynamic", config=DynamicConfig(), init_state=False)


def _golden_trace():
    name = sorted(load_manifest())[0]
    return Trace.load(os.path.join(default_corpus_dir(), f"{name}.npz"))


@pytest.mark.parametrize("name", sorted(available_detectors()))
def test_every_registered_name_replays_golden_trace(name):
    trace = _golden_trace()
    det = create_detector(name, suppress=default_suppression)
    result = replay(trace, det)
    assert result.events == len(trace)
    stats = det.statistics()
    assert isinstance(stats, dict)
    for race in result.races:
        assert race.as_list(), "race reports must serialize"


@pytest.mark.parametrize("name", sorted(available_detectors()))
def test_every_registered_name_roundtrips_snapshot(name):
    """Snapshot mid-trace, restore into a fresh twin, finish both: the
    original and the restored detector must agree byte for byte on
    races and statistics."""
    trace = _golden_trace()
    half = len(trace.events) // 2
    det = create_detector(name, suppress=default_suppression)
    for ev in trace.events[:half]:
        dispatch_event(det, ev)
    state = det.snapshot_state()
    twin = create_detector(name, suppress=default_suppression)
    twin.restore_state(state)
    for ev in trace.events[half:]:
        dispatch_event(det, ev)
        dispatch_event(twin, ev)
    det.finish()
    twin.finish()
    assert [r.as_list() for r in twin.races] == [
        r.as_list() for r in det.races
    ]
    assert twin.statistics() == det.statistics()


def test_suppress_forwarded():
    det = create_detector("fasttrack-byte", suppress=lambda s: True)
    assert isinstance(det, FastTrackDetector)
    det.on_fork(0, 1)
    det.on_write(0, 0x10, 1)
    det.on_write(1, 0x10, 1)
    assert det.races == []
