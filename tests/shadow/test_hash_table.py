"""Unit tests for the Fig. 4 shadow indexing structure."""

import pytest

from repro.shadow.hash_table import MIXED, ShadowTable


def test_set_get_roundtrip():
    t = ShadowTable()
    t.set(0x1000, "a")
    assert t.get(0x1000) == "a"
    assert t.get(0x1001) is None


def test_rejects_non_power_of_two_m():
    with pytest.raises(ValueError):
        ShadowTable(m=100)


def test_rejects_none_value():
    with pytest.raises(ValueError):
        ShadowTable().set(0, None)


def test_entry_starts_with_quarter_slots():
    t = ShadowTable(m=128)
    t.set(0x1000, "a")  # word-aligned
    assert t.entry_count == 1
    assert t.slot_count == 32


def test_byte_access_expands_entry():
    t = ShadowTable(m=128)
    t.set(0x1000, "a")
    assert t.slot_count == 32
    t.set(0x1001, "b")  # non-word-aligned address
    assert t.slot_count == 128
    # Existing word-aligned record survives the remap.
    assert t.get(0x1000) == "a"
    assert t.get(0x1001) == "b"


def test_word_aligned_only_never_expands():
    t = ShadowTable(m=128)
    for a in range(0x2000, 0x2080, 4):
        t.set(a, a)
    assert t.slot_count == 32
    for a in range(0x2000, 0x2080, 4):
        assert t.get(a) == a


def test_resize_callback_reports_growth():
    calls = []
    t = ShadowTable(m=128, on_resize=lambda o, n: calls.append((o, n)))
    t.set(0x1000, "a")
    t.set(0x1003, "b")
    assert calls == [(0, 32), (32, 128)]


def test_unaligned_get_on_small_entry_is_none():
    t = ShadowTable(m=128)
    t.set(0x1000, "a")
    assert t.get(0x1002) is None  # half-word offset, entry still small


def test_delete():
    t = ShadowTable()
    t.set(0x30, "x")
    assert t.delete(0x30)
    assert t.get(0x30) is None
    assert not t.delete(0x30)
    assert len(t) == 0


def test_len_counts_items():
    t = ShadowTable()
    for a in range(10):
        t.set(0x500 + a, a)
    assert len(t) == 10


def test_delete_range_spans_entries():
    t = ShadowTable(m=128)
    for a in range(0x1000, 0x1200):
        t.set(a, a)
    removed = t.delete_range(0x1040, 0x180)
    assert removed == 0x180
    assert t.get(0x103F) == 0x103F
    assert t.get(0x1040) is None
    assert t.get(0x11BF) is None
    assert t.get(0x11C0) == 0x11C0


def test_delete_range_on_small_entries():
    t = ShadowTable(m=128)
    for a in range(0x1000, 0x1100, 4):
        t.set(a, a)
    removed = t.delete_range(0x1000, 0x100)
    assert removed == 64
    assert len(t) == 0


def test_items_in_range_ordered():
    t = ShadowTable()
    t.set(0x10, "a")
    t.set(0x12, "b")
    t.set(0x20, "c")
    assert list(t.items_in_range(0x10, 0x10)) == [(0x10, "a"), (0x12, "b")]


def test_predecessor_and_successor():
    t = ShadowTable()
    t.set(0x100, "a")
    t.set(0x110, "b")
    assert t.predecessor(0x110, limit=32) == (0x100, "a")
    assert t.successor(0x100, limit=32) == (0x110, "b")
    assert t.predecessor(0x100, limit=32) is None
    assert t.successor(0x110, limit=8) is None


def test_predecessor_stops_at_zero():
    t = ShadowTable()
    assert t.predecessor(4, limit=128) is None


def test_contains():
    t = ShadowTable()
    t.set(0x44, 1)
    assert 0x44 in t
    assert 0x45 not in t


def test_items_iterates_all_records():
    t = ShadowTable(m=128)
    expected = {}
    for a in (0x10, 0x11, 0x1000, 0x2004):
        t.set(a, a * 2)
        expected[a] = a * 2
    assert dict(t.items()) == expected


def test_items_on_small_word_entries():
    t = ShadowTable(m=128)
    t.set(0x100, "a")
    t.set(0x104, "b")  # entry stays word-indexed
    assert dict(t.items()) == {0x100: "a", 0x104: "b"}


def test_get_run_none_when_crossing_entries():
    t = ShadowTable(m=64)
    assert t.get_run(60, 70) is None  # crosses the 64-byte boundary


def test_get_run_none_on_word_entry():
    t = ShadowTable(m=128)
    t.set(0x100, "a")  # small entry
    assert t.get_run(0x100, 0x108) is None


def test_get_run_on_missing_entry_is_all_none():
    t = ShadowTable(m=128)
    run = t.get_run(0x500, 0x508)
    assert run == [None] * 8


def test_get_run_single_aligned_byte_on_word_entry():
    # Regression: a one-byte run at a word-aligned address used to
    # return None on a word-indexed entry, forcing callers onto the
    # slow path; the slot is directly servable.
    t = ShadowTable(m=128)
    t.set(0x100, "a")
    assert t.get_run(0x100, 0x101) == ["a"]
    assert t.get_run(0x104, 0x105) == [None]
    assert t.get_run(0x101, 0x102) is None  # unaligned byte: no slot


def test_items_in_range_on_word_entries():
    t = ShadowTable(m=128)
    t.set(0x100, "a")
    t.set(0x108, "b")
    assert list(t.items_in_range(0x100, 0x10)) == [(0x100, "a"), (0x108, "b")]
    assert list(t.items_in_range(0x101, 0x7)) == []
    assert list(t.items_in_range(0x104, 0x10)) == [(0x108, "b")]


def test_items_in_range_skips_empty_entries():
    t = ShadowTable(m=64)
    t.set(0x10, "a")
    t.set(0x1000, "b")
    assert list(t.items_in_range(0, 0x2000)) == [(0x10, "a"), (0x1000, "b")]
    assert list(t.items_in_range(0x20, 0x800)) == []


def test_successor_walks_across_empty_entries():
    t = ShadowTable(m=64)
    t.set(0x10, "a")
    t.set(0x400, "b")
    assert t.successor(0x10, limit=0x400) == (0x400, "b")
    assert t.successor(0x10, limit=0x3EF) is None  # 0x400 just outside


def test_predecessor_walks_across_empty_entries():
    t = ShadowTable(m=64)
    t.set(0x10, "a")
    t.set(0x400, "b")
    assert t.predecessor(0x400, limit=0x400) == (0x10, "a")
    assert t.predecessor(0x400, limit=0x100) is None


def test_neighbour_search_on_word_entries():
    t = ShadowTable(m=128)
    t.set(0x100, "a")
    t.set(0x108, "b")
    assert t.successor(0x100, limit=16) == (0x108, "b")
    assert t.predecessor(0x108, limit=16) == (0x100, "a")


def test_set_range_single_aligned_byte_keeps_small_entry():
    t = ShadowTable(m=128)
    t.set_range(0x100, 0x101, "x")  # one word-aligned byte
    assert t.slot_count == 32       # no expansion needed
    assert t.get(0x100) == "x"


def test_sole_on_one_byte_indexed_entry():
    t = ShadowTable(m=128)
    t.set_range(0x104, 0x10C, "g")
    assert t.sole(0x104, 0x10C) == "g"
    assert t.sole(0x106, 0x108) == "g"
    assert t.sole(0x10C, 0x110) is None
    assert t.sole(0x100, 0x108) is MIXED  # partly held
    t.set(0x10A, "h")
    assert t.sole(0x108, 0x10C) is MIXED


def test_sole_across_entries_and_on_word_entries():
    t = ShadowTable(m=128)
    assert t.sole(0x17E, 0x182) is None  # no entry at all
    t.set_range(0x17C, 0x184, "g")
    assert t.sole(0x17E, 0x182) == "g"
    t.set(0x200, "w")  # word-indexed entry
    assert t.sole(0x200, 0x201) == "w"
    assert t.sole(0x201, 0x204) is None
    assert t.sole(0x200, 0x204) is MIXED


def test_left_of_gap_returns_the_left_record_of_an_empty_range():
    t = ShadowTable(m=128)
    assert t.left_of_gap(0x104, 0x108) is None  # no entry
    t.set_range(0x100, 0x104, "g")
    assert t.left_of_gap(0x104, 0x108) == "g"
    assert t.left_of_gap(0x105, 0x108) is None  # a gap byte on the left
    assert t.left_of_gap(0x0FC, 0x104) is MIXED
    assert t.left_of_gap(0x103, 0x108) is MIXED  # holds its first byte
    t.set(0x107, "h")
    assert t.left_of_gap(0x104, 0x108) is MIXED  # holds its last byte


def test_left_of_gap_at_entry_boundaries_and_on_word_entries():
    t = ShadowTable(m=128)
    t.set_range(0x17C, 0x180, "g")
    assert t.left_of_gap(0x180, 0x184) == "g"  # left byte in the last entry
    assert t.left_of_gap(0x17E, 0x182) is MIXED  # crosses, partly held
    t.set(0x200, "w")  # word-indexed entry
    assert t.left_of_gap(0x201, 0x202) == "w"
    assert t.left_of_gap(0x204, 0x208) is None
    assert t.left_of_gap(0x1FE, 0x202) is MIXED
    assert t.left_of_gap(0, 4) is None


def test_set_range_counts_new_items_inside_one_entry():
    t = ShadowTable(m=128)
    t.set_range(0x100, 0x110, "a")
    assert t.set_range(0x108, 0x118, "b") == 8
    assert len(t) == 0x18
    assert t.get(0x107) == "a" and t.get(0x108) == "b"


class _Rec:
    """A mutable record whose encoding is its value."""

    def __init__(self, v):
        self.v = v


def _runs(t, encode=None):
    return [runs for _key, _full, runs in t.snapshot(encode)["buckets"]]


def test_snapshot_one_object_over_a_whole_bucket_is_one_run():
    t = ShadowTable(m=128)
    t.set_range(0x100, 0x180, "g")
    calls = []
    assert _runs(t, lambda rec: calls.append(rec) or rec) == [[[0, 128, "g"]]]
    assert calls == ["g"]


def test_snapshot_run_stops_at_a_hole():
    t = ShadowTable(m=128)
    t.set_range(0x100, 0x110, "g")
    t.delete(0x104)
    assert _runs(t) == [[[0, 4, "g"], [5, 11, "g"]]]


def test_snapshot_run_stops_at_a_bucket_boundary():
    t = ShadowTable(m=128)
    t.set_range(0x170, 0x190, "g")
    assert _runs(t) == [[[0x70, 16, "g"]], [[0, 16, "g"]]]


def test_snapshot_merges_equal_encodings_not_unequal_ones():
    t = ShadowTable(m=128)
    for a, v in zip(range(0x100, 0x106), [1, 1, 1, 2, 2, 1]):
        t.set(a, _Rec(v))
    assert _runs(t, lambda rec: rec.v) == [[[0, 3, 1], [3, 2, 2], [5, 1, 1]]]


def test_snapshot_runs_on_word_entries():
    t = ShadowTable(m=128)
    for a in (0x100, 0x104, 0x108, 0x110):
        t.set(a, "w")
    snap = t.snapshot()
    assert snap["buckets"] == [[2, 0, [[0, 3, "w"], [4, 1, "w"]]]]


def test_restore_decodes_every_slot_of_a_run():
    t = ShadowTable(m=128)
    for a in range(0x100, 0x108):
        t.set(a, _Rec(7))
    snap = t.snapshot(lambda rec: rec.v)
    assert snap["buckets"] == [[2, 1, [[0, 8, 7]]]]
    back = ShadowTable(m=128)
    back.restore(snap, _Rec)
    recs = [back.get(a) for a in range(0x100, 0x108)]
    assert [r.v for r in recs] == [7] * 8
    assert len({id(r) for r in recs}) == 8
    assert back.snapshot(lambda rec: rec.v) == snap
