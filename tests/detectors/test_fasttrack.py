"""Unit tests for the fixed-granularity FastTrack detector."""

import pytest

from repro.detectors.fasttrack import FastTrackDetector


def _forked(det, n=2):
    for child in range(1, n):
        det.on_fork(0, child)
    return det


def test_write_write_race():
    det = _forked(FastTrackDetector())
    det.on_write(0, 0x10, 1, site=1)
    det.on_write(1, 0x10, 1, site=2)
    assert len(det.races) == 1
    r = det.races[0]
    assert r.kind == "write-write"
    assert (r.prev_tid, r.prev_site) == (0, 1)


def test_write_read_race():
    det = _forked(FastTrackDetector())
    det.on_write(0, 0x10, 1)
    det.on_read(1, 0x10, 1)
    assert det.races[0].kind == "write-read"


def test_read_write_race_epoch_mode():
    det = _forked(FastTrackDetector())
    det.on_read(0, 0x10, 1)
    det.on_write(1, 0x10, 1)
    assert det.races[0].kind == "read-write"


def test_read_write_race_shared_mode():
    det = _forked(FastTrackDetector(), n=3)
    det.on_read(0, 0x10, 1)
    det.on_read(1, 0x10, 1)   # concurrent reads -> shared read clock
    det.on_write(2, 0x10, 1)
    kinds = {r.kind for r in det.races}
    assert "read-write" in kinds


def test_lock_discipline_no_race():
    det = _forked(FastTrackDetector())
    for tid in (0, 1, 0, 1):
        det.on_acquire(tid, 7)
        det.on_write(tid, 0x10, 4)
        det.on_read(tid, 0x10, 4)
        det.on_release(tid, 7)
    assert det.races == []


def test_read_shared_then_ordered_write_is_clean():
    det = _forked(FastTrackDetector(), n=3)
    det.on_read(0, 0x10, 1)
    det.on_read(1, 0x10, 1)
    # Both readers publish via the lock; writer acquires after both.
    det.on_acquire(0, 1); det.on_release(0, 1)
    det.on_acquire(1, 1); det.on_release(1, 1)
    det.on_acquire(2, 1)
    det.on_write(2, 0x10, 1)
    assert det.races == []


def test_write_shared_deflates_read_clock():
    det = _forked(FastTrackDetector(), n=3)
    det.on_read(0, 0x10, 1)
    det.on_read(1, 0x10, 1)
    assert det.live_vectors == 3  # 2 epochs + 1 promoted read VC
    det.on_acquire(0, 1); det.on_release(0, 1)
    det.on_acquire(1, 1); det.on_release(1, 1)
    det.on_acquire(2, 1)
    det.on_write(2, 0x10, 1)
    assert det.live_vectors == 2  # read clock deflated back to an epoch


def test_same_epoch_write_fast_path():
    det = FastTrackDetector()
    det.on_write(0, 0x10, 4)
    checked = det.checked_accesses
    det.on_write(0, 0x10, 4)
    assert det.checked_accesses == checked
    assert det.same_epoch_hits == 1


def test_epoch_advances_on_release():
    det = FastTrackDetector()
    det.on_write(0, 0x10, 4)
    det.on_acquire(0, 1)
    det.on_release(0, 1)
    checked = det.checked_accesses
    det.on_write(0, 0x10, 4)  # new epoch: re-checked, no race (same thread)
    assert det.checked_accesses > checked
    assert det.races == []


def test_word_detector_masks_addresses():
    det = _forked(FastTrackDetector(granularity=4))
    det.on_write(0, 0x11, 1)
    det.on_write(1, 0x12, 1)  # different byte, same word
    assert len(det.races) == 1
    assert det.races[0].addr == 0x10


def test_byte_detector_keeps_distinct_bytes_separate():
    det = _forked(FastTrackDetector(granularity=1))
    det.on_write(0, 0x11, 1)
    det.on_write(1, 0x12, 1)
    assert det.races == []


def test_racy_location_reported_once():
    det = _forked(FastTrackDetector())
    det.on_write(0, 0x10, 1)
    det.on_write(1, 0x10, 1)
    det.on_acquire(1, 9); det.on_release(1, 9)
    det.on_write(1, 0x10, 1)
    assert len(det.races) == 1


def test_free_resets_location_lifetime():
    det = _forked(FastTrackDetector())
    det.on_write(0, 0x100, 8)
    det.on_write(1, 0x100, 8)  # 8 byte races
    assert len(det.races) == 8
    det.on_free(0, 0x100, 8)
    det.on_acquire(0, 9)
    det.on_release(0, 9)  # new epoch: the same-epoch bitmap is reset
    det.on_write(0, 0x100, 8)  # fresh lifetime, single writer: clean
    assert len(det.races) == 8
    assert len(det._table) == 8


def test_memory_accounting_grows_and_shrinks():
    det = FastTrackDetector()
    det.on_write(0, 0x100, 8)
    vc_current = det.memory.current[1]
    assert vc_current > 0
    det.on_free(0, 0x100, 8)
    assert det.memory.current[1] == 0


def test_suppression_filter():
    det = _forked(FastTrackDetector(suppress=lambda site: site >= 1000))
    det.on_write(0, 0x10, 1, site=1000)
    det.on_write(1, 0x10, 1, site=1001)
    assert det.races == []


def test_statistics_same_epoch_pct():
    det = FastTrackDetector()
    det.on_write(0, 0x10, 4)
    det.on_write(0, 0x10, 4)
    stats = det.statistics()
    assert stats["same_epoch_pct"] == 50.0
    assert stats["max_vectors"] >= 2


def test_rejects_bad_granularity():
    with pytest.raises(ValueError):
        FastTrackDetector(granularity=16)


def test_unaligned_access_straddles_words():
    det = _forked(FastTrackDetector(granularity=4))
    det.on_write(0, 0x12, 4)  # touches words 0x10 and 0x14
    det.on_write(1, 0x14, 1)
    assert len(det.races) == 1
    assert det.races[0].addr == 0x14


def test_finish_is_idempotent():
    det = _forked(FastTrackDetector(granularity=1))
    det.on_write(0, 0x100, 8)
    det.on_read(1, 0x200, 8)
    det.finish()
    first = det.statistics()
    for _ in range(3):
        det.finish()
        assert det.statistics() == first


# ----------------------------------------------------------------------
# batched dispatch: classification against the same-epoch bitmap
# ----------------------------------------------------------------------

def _feed(det, batched):
    if batched:
        det.on_write_batch(0, 0x100, 32, 4, site=1)
        det.on_write_batch(0, 0x100, 32, 4, site=1)   # fully covered
        det.on_read_batch(1, 0x100, 32, 4, site=2)
        det.on_read_batch(1, 0x0F8, 32, 4, site=2)    # partially covered
    else:
        for _ in range(2):
            for a in range(0x100, 0x120, 4):
                det.on_write(0, a, 4, site=1)
        for a in range(0x100, 0x120, 4):
            det.on_read(1, a, 4, site=2)
        for a in range(0x0F8, 0x118, 4):
            det.on_read(1, a, 4, site=2)
    det.finish()
    return [(r.addr, r.kind, r.tid, r.site) for r in det.races], det.statistics()


@pytest.mark.parametrize("granularity", (1, 4))
def test_batch_overrides_keep_statistics_identical(granularity):
    races_plain, stats_plain = _feed(
        _forked(FastTrackDetector(granularity=granularity)), batched=False
    )
    races_batch, stats_batch = _feed(
        _forked(FastTrackDetector(granularity=granularity)), batched=True
    )
    assert races_plain == races_batch
    assert stats_plain == stats_batch


def test_batch_misaligned_run_uses_base_behaviour():
    # width 2 on the word detector: units overlap between members, so
    # the override falls through to the base expansion, one on_write
    # per member.
    batched = _forked(FastTrackDetector(granularity=4))
    batched.on_write_batch(0, 0x102, 8, 2, site=1)
    plain = _forked(FastTrackDetector(granularity=4))
    for a in range(0x102, 0x10A, 2):
        plain.on_write(0, a, 2, site=1)
    assert batched.total_accesses == 4
    assert batched.statistics() == plain.statistics()
    assert batched.snapshot_state() == plain.snapshot_state()
