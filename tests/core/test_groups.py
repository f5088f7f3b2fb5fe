"""Unit tests for clock-group mechanics (create/merge/split/explode)."""

import pytest

from repro.core.groups import GroupManager, GroupStats
from repro.core.state_machine import INIT_PRIVATE, RACE, SHARED
from repro.shadow.accounting import MemoryModel


def _mgr(kind="w"):
    return GroupManager(kind, MemoryModel(), GroupStats())


def test_new_group_indexes_all_members():
    m = _mgr()
    g = m.new_group(0x10, 0x18, INIT_PRIVATE)
    assert g.count == 8
    for a in range(0x10, 0x18):
        assert m.table.get(a) is g
    assert m.stats.live_clocks == 1
    assert m.stats.live_bytes == 8


def test_kind_validation():
    with pytest.raises(ValueError):
        GroupManager("x", MemoryModel(), GroupStats())


def test_read_groups_carry_read_clock():
    m = _mgr("r")
    g = m.new_group(0, 4, INIT_PRIVATE)
    assert g.r is not None


def test_merge_remaps_and_frees_one_clock():
    m = _mgr()
    a = m.new_group(0x10, 0x18, INIT_PRIVATE)
    b = m.new_group(0x18, 0x1C, INIT_PRIVATE)
    a.wc = b.wc = 5
    a.wt = b.wt = 1
    s = m.merge(a, b)
    assert s is a  # larger group survives
    assert s.count == 12
    assert (s.lo, s.hi) == (0x10, 0x1C)
    assert m.table.get(0x1A) is s
    assert m.stats.live_clocks == 1
    assert m.stats.live_bytes == 12
    assert m.stats.merges == 1


def test_merge_self_is_noop():
    m = _mgr()
    g = m.new_group(0, 4, INIT_PRIVATE)
    assert m.merge(g, g) is g
    assert m.stats.live_clocks == 1


def test_split_out_middle():
    m = _mgr()
    g = m.new_group(0x10, 0x20, INIT_PRIVATE)
    g.wc, g.wt = 7, 2
    sg = m.split_out(g, 0x14, 0x18)
    assert sg is not g
    assert sg.count == 4
    assert (sg.wc, sg.wt) == (7, 2)  # copied clock
    assert g.count == 12
    for a in range(0x14, 0x18):
        assert m.table.get(a) is sg
    assert m.table.get(0x13) is g
    assert m.table.get(0x18) is g
    assert m.stats.live_clocks == 2


def test_hole_free_split_out_writes_the_index_in_one_range(monkeypatch):
    m = _mgr()
    g = m.new_group(0x10, 0x90, INIT_PRIVATE)  # spans two hash entries
    sets = []
    monkeypatch.setattr(m.table, "set", lambda a, v: sets.append(a))
    sg = m.split_out(g, 0x0C, 0x88)  # reaches past the group's left end
    assert sets == []
    assert (sg.lo, sg.hi, sg.count) == (0x10, 0x88, 0x78)
    assert all(m.table.get(a) is sg for a in range(0x10, 0x88))
    assert m.table.get(0x88) is g and (g.lo, g.hi, g.count) == (0x88, 0x90, 8)
    assert len(m.table) == 0x80


def test_split_out_full_coverage_returns_same_group():
    m = _mgr()
    g = m.new_group(0x10, 0x14, INIT_PRIVATE)
    assert m.split_out(g, 0x10, 0x14) is g
    assert m.stats.live_clocks == 1


def test_split_out_edge_trims_bounds():
    m = _mgr()
    g = m.new_group(0x10, 0x20, INIT_PRIVATE)
    sg = m.split_out(g, 0x10, 0x14)
    assert g.lo == 0x14
    sg2 = m.split_out(g, 0x1C, 0x20)
    assert g.hi == 0x1C
    assert g.count == 8


def test_clocks_equal_write_kind():
    m = _mgr()
    a = m.new_group(0, 4, INIT_PRIVATE)
    b = m.new_group(8, 12, INIT_PRIVATE)
    a.wc = b.wc = 3
    a.wt = b.wt = 1
    assert m.clocks_equal(a, b)
    b.wc = 4
    assert not m.clocks_equal(a, b)


def test_clocks_equal_read_kind():
    from repro.clocks.vectorclock import VectorClock

    m = _mgr("r")
    a = m.new_group(0, 4, INIT_PRIVATE)
    b = m.new_group(8, 12, INIT_PRIVATE)
    vc = VectorClock([3])
    a.r.record(3, 0, vc)
    b.r.record(3, 0, vc)
    assert m.clocks_equal(a, b)
    b.r.record(4, 0, VectorClock([4]))
    assert not m.clocks_equal(a, b)


def test_explode_to_race():
    m = _mgr()
    g = m.new_group(0x10, 0x14, SHARED)
    g.wc, g.wt = 9, 1
    singles = m.explode_to_race(g)
    assert len(singles) == 4
    for s in singles:
        assert s.state == RACE
        assert s.count == 1
        assert (s.wc, s.wt) == (9, 1)
    assert m.stats.live_clocks == 4
    assert m.stats.live_bytes == 4


def test_overlaps_segments_runs():
    m = _mgr()
    a = m.new_group(0x10, 0x14, INIT_PRIVATE)
    b = m.new_group(0x18, 0x1C, INIT_PRIVATE)
    segs = m.overlaps(0x0E, 0x1E)
    assert segs == [
        (0x0E, 0x10, None),
        (0x10, 0x14, a),
        (0x14, 0x18, None),
        (0x18, 0x1C, b),
        (0x1C, 0x1E, None),
    ]


def test_nearest_left_and_right():
    m = _mgr()
    a = m.new_group(0x10, 0x14, INIT_PRIVATE)
    assert m.nearest_left(0x18, limit=8) is a
    assert m.nearest_left(0x18, limit=2) is None
    assert m.nearest_right(0x08, limit=16) is a
    assert m.nearest_right(0x08, limit=4) is None


def test_remove_range_partial_and_full():
    m = _mgr()
    g = m.new_group(0x10, 0x18, INIT_PRIVATE)
    m.remove_range(0x10, 0x14)
    assert g.count == 4
    assert m.stats.live_clocks == 1
    m.remove_range(0x14, 0x18)
    assert g.count == 0
    assert m.stats.live_clocks == 0
    assert m.stats.live_bytes == 0


def test_members_skips_holes():
    m = _mgr()
    g = m.new_group(0x10, 0x18, INIT_PRIVATE)
    m.remove_range(0x12, 0x14)
    assert list(m.members(g)) == [0x10, 0x11, 0x14, 0x15, 0x16, 0x17]


def test_memory_accounting_balance():
    m = _mgr()
    model = m.memory
    g = m.new_group(0x10, 0x18, INIT_PRIVATE)
    b = m.new_group(0x18, 0x1C, INIT_PRIVATE)
    m.merge(g, b)
    m.remove_range(0x10, 0x1C)
    assert model.current[1] == 0  # all vector-clock bytes released


def test_recharge_clock_on_promotion():
    from repro.clocks.vectorclock import VectorClock

    m = _mgr("r")
    g = m.new_group(0, 4, INIT_PRIVATE)
    before = g.charged
    g.r.record(1, 0, VectorClock([1]))
    g.r.record(1, 1, VectorClock([0, 1]))  # concurrent -> promote
    m.recharge_clock(g)
    assert g.charged > before


def test_stats_bump_records_avg_sharing_at_peak():
    m = _mgr()
    m.new_group(0, 32, INIT_PRIVATE)
    m.new_group(64, 72, INIT_PRIVATE)
    st = m.stats
    assert st.max_clocks == 2
    assert st.avg_sharing_at_peak == 20.0  # (32 + 8) / 2


def test_snapshot_encodes_a_bucket_filling_group_as_one_run():
    m = _mgr()
    g = m.new_group(0x200, 0x280, INIT_PRIVATE)
    assert m.table.m == 128
    snap = m.snapshot()
    assert snap["table"]["buckets"] == [[0x200 >> 7, 1, [[0, 128, 0]]]]
    assert [grp[:3] for grp in snap["groups"]] == [[g.lo, g.hi, 128]]
    back = _mgr()
    back.restore(snap)
    (only,) = back.live_groups()
    assert all(back.table.get(a) is only for a in range(0x200, 0x280))
    assert back.snapshot() == snap
