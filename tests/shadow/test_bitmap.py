"""Unit tests for the per-thread same-epoch bitmap."""

from repro.shadow.bitmap import PAGE_SIZE, EpochBitmap


def test_first_access_not_seen():
    bm = EpochBitmap()
    assert not bm.test_and_set(0x1000, 4)


def test_repeat_access_seen():
    bm = EpochBitmap()
    bm.test_and_set(0x1000, 4)
    assert bm.test_and_set(0x1000, 4)


def test_partial_overlap_not_fully_seen():
    bm = EpochBitmap()
    bm.test_and_set(0x1000, 4)
    assert not bm.test_and_set(0x1002, 4)  # bytes 0x1004-5 are new
    assert bm.test_and_set(0x1000, 6)


def test_subrange_is_seen():
    bm = EpochBitmap()
    bm.test_and_set(0x1000, 8)
    assert bm.test_and_set(0x1002, 2)


def test_reset_clears_everything():
    bm = EpochBitmap()
    bm.test_and_set(0x1000, 8)
    bm.reset()
    assert not bm.test(0x1000, 1)
    assert not bm.test_and_set(0x1000, 8)


def test_page_crossing_access():
    bm = EpochBitmap()
    addr = PAGE_SIZE - 2
    assert not bm.test_and_set(addr, 4)
    assert bm.test(addr, 4)
    assert bm.test_and_set(addr, 4)
    assert bm.live_pages == 2


def test_page_crossing_partial():
    bm = EpochBitmap()
    addr = PAGE_SIZE - 2
    bm.test_and_set(addr, 2)  # only the first page's tail
    assert not bm.test_and_set(addr, 4)


def test_peak_pages_survive_reset():
    bm = EpochBitmap()
    bm.test_and_set(0, 1)
    bm.test_and_set(PAGE_SIZE * 5, 1)
    assert bm.pages_touched_peak == 2
    bm.reset()
    assert bm.live_pages == 0
    assert bm.pages_touched_peak == 2


def test_test_without_set():
    bm = EpochBitmap()
    assert not bm.test(0x42, 1)
    bm.test_and_set(0x42, 1)
    assert bm.test(0x42, 1)
    assert not bm.test(0x42, 2)


def test_any_set_empty_range():
    bm = EpochBitmap()
    assert not bm.any_set(0x1000, 64)


def test_any_set_distinguishes_partial_from_full():
    bm = EpochBitmap()
    bm.test_and_set(0x1004, 4)
    assert bm.any_set(0x1000, 16)       # one covered byte is enough
    assert not bm.test(0x1000, 16)      # ...but the range is not full
    assert not bm.any_set(0x1000, 4)    # before the covered bytes
    assert not bm.any_set(0x1008, 8)    # after the covered bytes


def test_any_set_crosses_pages():
    bm = EpochBitmap()
    bm.test_and_set(PAGE_SIZE, 1)  # first byte of the second page
    assert bm.any_set(PAGE_SIZE - 8, 16)
    assert not bm.any_set(PAGE_SIZE - 8, 8)


def _bits(bm):
    return bm.snapshot()["pages"]


class _Spy(EpochBitmap):
    """Records every ``set_range`` call."""

    __slots__ = ("calls",)

    def set_range(self, addr, size):
        self.calls.append((addr, size))
        super().set_range(addr, size)


def test_cover_marks_like_set_range_and_skips_what_it_covered():
    bm, ref = _Spy(), EpochBitmap()
    bm.calls = []
    for lo, hi, set_from in ((0x100, 0x108, 0x104), (0x100, 0x110, 0x108),
                             (0x0F8, 0x118, 0x110)):
        bm.set_range(set_from, hi - set_from)  # the access's own bits
        ref.set_range(lo, hi - lo)
        bm.calls.clear()
        bm.cover(lo, hi, set_from)
        assert _bits(bm) == _bits(ref)
    # The last cover reached 8 bytes below the previous one's span:
    # only those were marked.
    assert bm.calls == [(0x0F8, 8)]


def test_cover_forgets_its_span_at_reset():
    bm = EpochBitmap()
    bm.test_and_set(0x104, 4)
    bm.cover(0x100, 0x108, 0x104)
    bm.reset()
    bm.test_and_set(0x108, 4)
    bm.cover(0x100, 0x10C, 0x108)
    assert bm.test(0x100, 0x0C)


def test_cover_span_is_not_snapshot_state():
    bm = EpochBitmap()
    bm.test_and_set(0x104, 4)
    bm.cover(0x100, 0x108, 0x104)
    back = EpochBitmap.from_snapshot(bm.snapshot())
    assert back.snapshot() == bm.snapshot()
    back.test_and_set(0x108, 4)
    back.cover(0x0F0, 0x10C, 0x108)
    assert back.test(0x0F0, 0x1C)
