"""Direct tests for the detector base classes."""

import pytest

from repro.clocks.vectorclock import VectorClock
from repro.detectors.base import Detector, RaceReport, VectorClockRuntime


def _race(addr=0x10, site=1):
    return RaceReport(addr, "write-write", 1, site, 0, 2)


# ----------------------------------------------------------------------
# Detector: reporting, dedup, suppression
# ----------------------------------------------------------------------

def test_report_first_race_per_location():
    det = Detector()
    assert det.report(_race())
    assert not det.report(_race())       # same location: deduped
    assert det.report(_race(addr=0x11))  # different location
    assert len(det.races) == 2


def test_suppression_marks_location_silently():
    det = Detector(suppress=lambda site: site == 99)
    assert not det.report(_race(site=99))
    # Once suppressed, the location stays quiet even for other sites
    # (first-race-per-location semantics).
    assert not det.report(_race(site=1))
    assert det.races == []


def test_race_report_str():
    text = str(_race())
    assert "write-write race at 0x10" in text
    assert "thread 1" in text


def test_default_callbacks_are_noops():
    det = Detector()
    det.on_read(0, 0x10, 4)
    det.on_write(0, 0x10, 4)
    det.on_acquire(0, 1)
    det.on_release(0, 1)
    det.on_fork(0, 1)
    det.on_join(0, 1)
    det.on_alloc(0, 0x100, 8)
    det.on_free(0, 0x100, 8)
    det.finish()
    assert det.statistics() == {}


# ----------------------------------------------------------------------
# VectorClockRuntime: epoch semantics
# ----------------------------------------------------------------------

def test_thread_zero_preinitialized():
    rt = VectorClockRuntime()
    assert rt.thread_vc[0].get(0) == 1
    assert rt.n_threads == 1


def test_release_increments_own_clock():
    rt = VectorClockRuntime()
    rt.on_acquire(0, 5)
    before = rt.thread_vc[0].get(0)
    rt.on_release(0, 5)
    assert rt.thread_vc[0].get(0) == before + 1


def test_acquire_joins_lock_clock():
    rt = VectorClockRuntime()
    rt.on_fork(0, 1)
    rt.on_acquire(0, 5)
    rt.on_release(0, 5)
    t0_at_release = rt.lock_vc[5].get(0)
    rt.on_acquire(1, 5)
    assert rt.thread_vc[1].get(0) >= t0_at_release


def test_lock_clock_accumulates_releases():
    """Join semantics: the object's clock keeps every releaser's
    history (what makes barriers/semaphores sound)."""
    rt = VectorClockRuntime()
    rt.on_fork(0, 1)
    rt.on_release(0, 9)
    rt.on_release(1, 9)
    lvc = rt.lock_vc[9]
    assert lvc.get(0) >= 1 and lvc.get(1) >= 1


def test_fork_gives_child_parent_history():
    rt = VectorClockRuntime()
    rt.on_acquire(0, 1)
    rt.on_release(0, 1)
    parent_clock = rt.thread_vc[0].get(0)
    rt.on_fork(0, 2)
    assert rt.thread_vc[2].get(0) == parent_clock
    assert rt.thread_vc[2].get(2) == 1
    # fork starts a new epoch for the parent
    assert rt.thread_vc[0].get(0) == parent_clock + 1


def test_join_imports_target_history():
    rt = VectorClockRuntime()
    rt.on_fork(0, 1)
    rt.on_acquire(1, 3)
    rt.on_release(1, 3)
    child_clock = rt.thread_vc[1].get(1)
    rt.on_join(0, 1)
    assert rt.thread_vc[0].get(1) >= child_clock


def test_unseen_thread_gets_fresh_clock():
    rt = VectorClockRuntime()
    vc = rt._vc(7)
    assert isinstance(vc, VectorClock)
    assert vc.get(7) == 1
    assert rt.max_tid == 7


def test_held_tracks_mutexes_only():
    rt = VectorClockRuntime()
    rt.on_acquire(0, 1, is_lock=1)
    rt.on_acquire(0, 2, is_lock=0)  # semaphore-style
    assert rt.held[0] == {1}
    rt.on_release(0, 1, is_lock=1)
    assert rt.held[0] == set()


def test_epoch_counter_advances():
    rt = VectorClockRuntime()
    start = rt.epoch_count
    rt.on_release(0, 1)
    rt.on_fork(0, 1)
    rt.on_join(0, 1)
    assert rt.epoch_count == start + 3


# ----------------------------------------------------------------------
# DetectorWrapper: the delegation base of guard, timer and samplers
# ----------------------------------------------------------------------

def _wrappers():
    from repro.analysis.metrics import TimedDetector
    from repro.detectors.fasttrack import FastTrackDetector
    from repro.detectors.filters import AikidoFilter, DemandDrivenFilter
    from repro.detectors.guards import GuardedDetector
    from repro.detectors.sampling import PacerDetector

    return [
        GuardedDetector(FastTrackDetector(granularity=1)),
        TimedDetector(FastTrackDetector(granularity=1)),
        PacerDetector(rate=1.0, inner=FastTrackDetector(granularity=1)),
        AikidoFilter(),
        DemandDrivenFilter(cooldown=1),
    ]


def test_wrappers_delegate_surface_to_inner():
    for det in _wrappers():
        det.on_fork(0, 1)
        det.on_write(0, 0x10, 1, site=1)
        det.on_read(1, 0x10, 1, site=2)
        det.on_write(0, 0x10, 1, site=1)
        assert det.races is det.inner.races and len(det.races) == 1
        if det.transparent:
            assert det.supports_check_access == det.inner.supports_check_access
            assert det.reported_racy == det.inner.reported_racy
        else:
            # Policy wrappers stop attribute lookups at themselves.
            with pytest.raises(AttributeError):
                det.reported_racy
        det.finish()


def test_wrapper_checkpoint_restores_inner_in_place():
    for det, twin in zip(_wrappers(), _wrappers()):
        det.on_fork(0, 1)
        det.on_write(0, 0x10, 1, site=1)
        det.on_read(1, 0x10, 1, site=2)
        det.on_write(0, 0x10, 1, site=1)
        inner = twin.inner
        twin.restore_state(det.snapshot_state())
        assert twin.inner is inner
        assert twin.statistics() == det.statistics()
        assert [r.as_list() for r in twin.races] == [
            r.as_list() for r in det.races
        ]


def test_wrappers_copy_deepcopy_and_pickle():
    import copy
    import pickle

    for det in _wrappers():
        det.on_fork(0, 1)
        det.on_write(0, 0x10, 1, site=1)
        det.on_read(1, 0x10, 1, site=2)
        det.on_write(0, 0x10, 1, site=1)
        for clone in (
            copy.copy(det),
            copy.deepcopy(det),
            pickle.loads(pickle.dumps(det)),
        ):
            assert type(clone) is type(det)
            assert clone.name == det.name
            assert [r.as_list() for r in clone.races] == [
                r.as_list() for r in det.races
            ]
        dup = copy.deepcopy(det)
        assert dup.inner is not det.inner
        dup.on_write(1, 0x20, 1, site=3)
        dup.on_write(0, 0x20, 1, site=4)
        assert len(dup.races) == 2 and len(det.races) == 1
