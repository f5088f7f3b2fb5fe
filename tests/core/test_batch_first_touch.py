"""The dynamic detector's bulk first-touch exit against per-access replay.

``DynamicGranularityDetector._first_touch`` applies a coalesced run in
one step when every member access would take ``_first_access``'s adopt
branch.  Each crafted feed below is replayed twice — per access and
through the coalesced feed — and must leave the same full
``snapshot_state()`` (groups, index, bitmaps, counters, memory model)
and the same race reports.  Each case also pins which runs took the
bulk exit, so a shape that must fall back cannot silently take it.
"""

import pytest

from repro.core.config import DynamicConfig
from repro.core.detector import DynamicGranularityDetector
from repro.core.state_machine import INIT_SHARED
from repro.detectors.registry import create_detector
from repro.perf.batch import coalesce_events
from repro.runtime.events import FORK, JOIN, READ, RELEASE, WRITE
from repro.runtime.vm import drive, handlers, replay
from repro.workloads.base import default_suppression
from repro.workloads.registry import build_trace


def _run(tid, op, addr, n, width=4, site=1):
    return [(op, tid, addr + i * width, width, site) for i in range(n)]


def _forked(*events):
    return [(FORK, 0, 1, 0, 0)] + [ev for part in events for ev in part]


def _replay(events, config, batched):
    det = DynamicGranularityDetector(config=config)
    taken = []
    real = det._first_touch

    def spy(*args):
        hit = real(*args)
        taken.append(hit)
        return hit

    det._first_touch = spy
    drive(coalesce_events(events) if batched else events, handlers(det))
    det.finish()
    det.check_invariants()
    races = [
        (r.addr, r.kind, r.tid, r.site, r.prev_tid, r.prev_site, r.unit)
        for r in det.races
    ]
    return det, races, taken


DEFAULT = DynamicConfig()

# name -> (events, config, whether each first-touch probe of the
# batched replay took the bulk exit, in probe order)
CASES = {
    "write-continuation": (
        _forked(
            _run(0, WRITE, 0x100, 16, site=1),
            _run(0, WRITE, 0x140, 16, site=2),
        ),
        DEFAULT,
        [True, True],
    ),
    "read-continuation": (
        _forked(
            _run(0, READ, 0x100, 16, site=1),
            _run(0, READ, 0x140, 16, site=2),
        ),
        DEFAULT,
        [True, True],
    ),
    "read-continuation-over-own-ordered-writes": (
        _forked(
            _run(0, WRITE, 0x140, 16, site=1),
            _run(0, READ, 0x100, 16, site=2),
            _run(0, READ, 0x140, 16, site=3),
        ),
        DEFAULT,
        [True, True, True],
    ),
    "left-group-from-an-older-epoch": (
        _forked(
            _run(0, WRITE, 0x100, 16, site=1),
            [(RELEASE, 0, 9, 1, 0)],
            _run(0, WRITE, 0x140, 16, site=2),
        ),
        DEFAULT,
        [True, False],
    ),
    "read-continuation-after-a-join": (
        _forked(
            _run(0, READ, 0x100, 16, site=1),
            # A join clears the joiner's bitmaps but keeps its clock:
            # the left group still passes the adopt test, and each
            # member access re-marks the whole group.
            [(JOIN, 0, 1, 0, 0)],
            _run(0, READ, 0x140, 16, site=2),
        ),
        DEFAULT,
        [True, True],
    ),
    "own-side-group-inside-the-run": (
        _forked(
            _run(0, WRITE, 0x100, 16, site=1),
            [(WRITE, 1, 0x150, 4, 9)],
            _run(0, WRITE, 0x140, 16, site=2),
        ),
        DEFAULT,
        [True, False],
    ),
    "left-group-already-firm": (
        _forked(
            _run(0, WRITE, 0x100, 16, site=1),
            [(RELEASE, 0, 9, 1, 0)],
            # The second-epoch sweep stamps the group and makes it
            # Private: the current epoch, but no longer Init.
            _run(0, WRITE, 0x100, 16, site=2),
            _run(0, WRITE, 0x140, 16, site=3),
        ),
        DEFAULT,
        [True, False, False],
    ),
    "write-left-group-with-holes": (
        _forked(
            _run(0, WRITE, 0x100, 8, site=1),
            # One write 8 bytes past the group merges into it across
            # the gap: the Init group now has a hole at [0x120, 0x128).
            [(WRITE, 0, 0x128, 4, 2)],
            _run(0, WRITE, 0x12C, 16, site=3),
        ),
        DEFAULT,
        [True, True],
    ),
    "read-left-group-with-holes": (
        _forked(
            _run(0, READ, 0x100, 8, site=1),
            [(READ, 0, 0x128, 4, 2)],
            _run(0, READ, 0x12C, 16, site=3),
        ),
        DEFAULT,
        [True, True],
    ),
    "read-run-fills-the-hole": (
        _forked(
            _run(0, READ, 0x100, 8, site=1),
            [(READ, 0, 0x128, 4, 2)],
            # Adopting [0x120, 0x128) makes the group hole-free, so the
            # last member marks the whole group in the read bitmap.
            _run(0, READ, 0x120, 2, site=3),
        ),
        DEFAULT,
        [True, True],
    ),
    "read-run-over-a-racing-write": (
        _forked(
            _run(1, WRITE, 0x200, 16, site=1),
            _run(0, READ, 0x1C0, 16, site=2),
            _run(0, READ, 0x200, 16, site=3),
        ),
        DEFAULT,
        [True, True, False],
    ),
    "write-run-over-a-read-group": (
        _forked(
            _run(0, READ, 0x200, 16, site=1),
            _run(0, WRITE, 0x1C0, 16, site=2),
            _run(0, WRITE, 0x200, 16, site=3),
        ),
        DEFAULT,
        [True, True, False],
    ),
    "width-1-run-ends-on-an-aligned-entry-start": (
        _forked(
            _run(0, WRITE, 0x160, 16, width=1, site=1),
            # 0x180 is the aligned first byte of the next 128-byte hash
            # entry: its one member leaves that entry word-indexed.
            _run(0, WRITE, 0x170, 17, width=1, site=2),
            _run(0, READ, 0x260, 16, width=1, site=3),
            _run(0, READ, 0x270, 17, width=1, site=4),
        ),
        DEFAULT,
        [True, True, True, True],
    ),
    "fresh-width-1-run-ends-on-an-aligned-entry-start": (
        _forked(_run(0, WRITE, 0x170, 17, width=1, site=1)),
        DEFAULT,
        [True],
    ),
    "run-crosses-a-bitmap-page": (
        _forked(
            _run(0, WRITE, 0xFC0, 6, width=8, site=1),
            _run(0, WRITE, 0xFF0, 8, width=8, site=2),
            _run(0, READ, 0x1FC0, 6, width=8, site=3),
            _run(0, READ, 0x1FF0, 8, width=8, site=4),
        ),
        DEFAULT,
        [True, True, True, True],
    ),
    "own-side-group-inside-the-scan-limit-on-the-right": (
        _forked(
            [(WRITE, 1, 0x348, 4, 9)],
            # A fresh run ending 8 bytes short of thread 1's group: the
            # right-hand neighbour scan reaches it, so it falls back.
            _run(0, WRITE, 0x300, 16, site=1),
            # The continuation up to that group only ever adopts.
            _run(0, WRITE, 0x340, 2, site=2),
        ),
        DEFAULT,
        [False, True],
    ),
    "smallest-neighbor-scan-limit": (
        _forked(
            _run(0, WRITE, 0x100, 16, site=1),
            [(WRITE, 1, 0x145, 1, 9), (WRITE, 1, 0x171, 1, 9)],
            # The left neighbour is thread 1's: no adopt, fall back.
            _run(0, WRITE, 0x146, 8, width=2, site=3),
            # Thread 1's byte at end + 1 lies beyond a 1-byte scan.
            _run(0, WRITE, 0x160, 4, site=4),
        ),
        DynamicConfig(neighbor_scan_limit=1),
        [True, False, True],
    ),
    "no-init-state": (
        _forked(
            _run(0, WRITE, 0x100, 16, site=1),
            _run(0, WRITE, 0x140, 16, site=2),
            _run(0, READ, 0x100, 16, site=3),
            _run(0, READ, 0x140, 16, site=4),
        ),
        DynamicConfig(init_state=False),
        [False, False, False, False],
    ),
    "no-sharing-at-init": (
        _forked(
            _run(0, WRITE, 0x100, 16, site=1),
            _run(0, WRITE, 0x140, 16, site=2),
            _run(0, READ, 0x100, 16, site=3),
            _run(0, READ, 0x140, 16, site=4),
        ),
        DynamicConfig(share_at_init=False),
        [False, False, False, False],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bulk_first_touch_equals_per_access_replay(name):
    events, config, want_taken = CASES[name]
    plain, plain_races, plain_taken = _replay(events, config, batched=False)
    batch, batch_races, taken = _replay(events, config, batched=True)
    assert plain_taken == []
    assert taken == want_taken
    assert batch_races == plain_races
    assert batch.snapshot_state() == plain.snapshot_state()


def test_continuation_builds_one_init_group():
    det, _races, taken = _replay(CASES["write-continuation"][0], DEFAULT, True)
    assert taken == [True, True]
    g = det._wg.table.get(0x100)
    assert (g.lo, g.hi, g.count, g.state, g.site) == (
        0x100, 0x180, 0x80, INIT_SHARED, 2
    )
    assert det.total_accesses == 32
    assert det.group_stats.groups_created == 1


def test_racing_read_run_reports_like_per_access():
    _det, races, taken = _replay(
        CASES["read-run-over-a-racing-write"][0], DEFAULT, True
    )
    assert taken[-1] is False
    assert races and {r[1] for r in races} == {"write-read"}


def test_neighbor_scan_limit_zero_is_rejected():
    # The adopt branch and the fresh-range margin both assume >= 1.
    with pytest.raises(ValueError):
        DynamicConfig(neighbor_scan_limit=0)


@pytest.mark.parametrize("seed", (5, 10))
def test_batched_statistics_equal_unbatched_on_pbzip2_scale_3(seed):
    """A fresh run used to be created as one ranged group, which sampled
    the sharing factor with the whole run's bytes already live and
    moved ``avg_sharing`` (1358.24 batched vs 1353.95 per access at
    seed 5); every statistic must now match."""
    trace = build_trace("pbzip2", scale=3.0, seed=seed)
    plain = create_detector("fasttrack-dynamic", suppress=default_suppression)
    batch = create_detector("fasttrack-dynamic", suppress=default_suppression)
    replay(trace, plain)
    replay(trace, batch, batched=True)
    assert batch.statistics() == plain.statistics()
    assert batch.snapshot_state() == plain.snapshot_state()
