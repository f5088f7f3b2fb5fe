"""Unit tests for the event coalescer behind batched dispatch."""

import hashlib
import os

import pytest

from repro.perf.batch import (
    DEFAULT_BATCH_SPAN,
    DEFAULT_MAX_STREAMS,
    MIN_STREAM_GAP,
    BatchStats,
    batch_stats,
    coalesce_events,
)
from repro.runtime.events import ACQUIRE, FREE, READ, RELEASE, WRITE
from repro.runtime.trace import Trace
from repro.testing.golden import default_corpus_dir, load_manifest
from repro.workloads.registry import build_trace


def _writes(tid, addr, n, width=4, site=7):
    return [
        (WRITE, tid, addr + i * width, width, site) for i in range(n)
    ]


def _reads(tid, addr, n, width=4, site=7):
    return [(READ, tid, addr + i * width, width, site) for i in range(n)]


# ----------------------------------------------------------------------
# write merging: strictly consecutive, never reordered
# ----------------------------------------------------------------------

def test_consecutive_writes_merge_to_one_ranged_event():
    out = coalesce_events(_writes(1, 0x100, 8))
    assert out == [(WRITE, 1, 0x100, 32, 7, 4)]


def test_single_event_stays_a_plain_5_tuple():
    out = coalesce_events([(WRITE, 1, 0x100, 4, 7)])
    assert out == [(WRITE, 1, 0x100, 4, 7)]


def test_write_gap_breaks_the_run():
    evs = _writes(1, 0x100, 2) + [(WRITE, 1, 0x200, 4, 7)]
    out = coalesce_events(evs)
    assert out == [(WRITE, 1, 0x100, 8, 7, 4), (WRITE, 1, 0x200, 4, 7)]


def test_width_change_breaks_the_run():
    evs = [(WRITE, 1, 0x100, 4, 7), (WRITE, 1, 0x104, 8, 7)]
    out = coalesce_events(evs)
    assert len(out) == 2
    assert all(len(ev) == 5 for ev in out)


def test_site_change_breaks_the_run():
    evs = [(WRITE, 1, 0x100, 4, 7), (WRITE, 1, 0x104, 4, 8)]
    assert len(coalesce_events(evs)) == 2


def test_other_thread_breaks_the_run():
    evs = [(WRITE, 1, 0x100, 4, 7), (WRITE, 2, 0x104, 4, 7)]
    assert len(coalesce_events(evs)) == 2


def test_max_span_caps_a_run():
    n = DEFAULT_BATCH_SPAN // 4 + 3
    out = coalesce_events(_writes(1, 0, n))
    assert out[0] == (WRITE, 1, 0, DEFAULT_BATCH_SPAN, 7, 4)
    assert out[1] == (WRITE, 1, DEFAULT_BATCH_SPAN, 12, 7, 4)


def test_max_span_caps_a_read_run():
    n = DEFAULT_BATCH_SPAN // 4 + 3
    out = coalesce_events(_reads(1, 0, n))
    assert out[0] == (READ, 1, 0, DEFAULT_BATCH_SPAN, 7, 4)
    assert out[1] == (READ, 1, DEFAULT_BATCH_SPAN, 12, 7, 4)


def test_sync_event_flushes_and_keeps_position():
    evs = _writes(1, 0x100, 2) + [(ACQUIRE, 1, 5, 0, 0)] + _writes(1, 0x108, 2)
    out = coalesce_events(evs)
    assert out == [
        (WRITE, 1, 0x100, 8, 7, 4),
        (ACQUIRE, 1, 5, 0, 0),
        (WRITE, 1, 0x108, 8, 7, 4),
    ]


def test_free_flushes_pending_runs():
    evs = _reads(1, 0x100, 3) + [(FREE, 1, 0x100, 64, 0)]
    out = coalesce_events(evs)
    assert out == [(READ, 1, 0x100, 12, 7, 4), (FREE, 1, 0x100, 64, 0)]


# ----------------------------------------------------------------------
# read merging: interleaved streams, first-member emission order
# ----------------------------------------------------------------------

def test_interleaved_far_apart_read_streams_both_merge():
    a, b = 0x1000, 0x2000
    evs = []
    for i in range(4):
        evs.append((READ, 1, a + 4 * i, 4, 11))
        evs.append((READ, 1, b + 4 * i, 4, 12))
    out = coalesce_events(evs)
    assert out == [(READ, 1, a, 16, 11, 4), (READ, 1, b, 16, 12, 4)]


def test_read_then_write_flushes_read_runs_in_order():
    evs = _reads(1, 0x1000, 2) + _writes(1, 0x3000, 2)
    out = coalesce_events(evs)
    assert out == [(READ, 1, 0x1000, 8, 7, 4), (WRITE, 1, 0x3000, 8, 7, 4)]


def test_close_read_streams_flush_instead_of_reordering():
    # Two streams over the *same* addresses (the fluidanimate shape):
    # reordering them could flip which site reports a race first, so
    # the block must flush rather than grow a second run nearby.
    evs = [
        (READ, 1, 0x100, 4, 11),
        (READ, 1, 0x100, 4, 12),  # same range, different site
        (READ, 1, 0x104, 4, 11),
        (READ, 1, 0x104, 4, 12),
    ]
    out = coalesce_events(evs)
    # Nothing merged (every second event forced a flush) and the
    # original interleave is preserved exactly.
    assert out == [tuple(ev) for ev in evs]


def test_streams_inside_min_gap_do_not_interleave():
    a = 0x100
    b = a + 8 + MIN_STREAM_GAP - 4  # closer than the allowed gap
    evs = [
        (READ, 1, a, 4, 11),
        (READ, 1, b, 4, 12),
        (READ, 1, a + 4, 4, 11),
        (READ, 1, b + 4, 4, 12),
    ]
    out = coalesce_events(evs)
    assert out == [tuple(ev) for ev in evs]


def test_streams_at_exactly_min_gap_interleave():
    a = 0x100
    b = a + 8 + MIN_STREAM_GAP
    evs = [
        (READ, 1, a, 4, 11),
        (READ, 1, b, 4, 12),
        (READ, 1, a + 4, 4, 11),
        (READ, 1, b + 4, 4, 12),
    ]
    out = coalesce_events(evs)
    assert out == [(READ, 1, a, 8, 11, 4), (READ, 1, b, 8, 12, 4)]


def test_growth_toward_a_sibling_run_flushes():
    a = 0x100
    b = a + MIN_STREAM_GAP + 8  # far enough to start both streams
    evs = [(READ, 1, a, 4, 11), (READ, 1, b, 4, 12)]
    # Grow stream a until its head would close on stream b.
    evs += [(READ, 1, a + 4 * i, 4, 11) for i in range(1, 4)]
    out = coalesce_events(evs)
    # The violating growth flushed the block (emitting both pending
    # runs) and restarted; once stream b is *emitted*, the restarted
    # run may regrow freely — order against b is already fixed.
    assert out == [
        (READ, 1, a, 8, 11, 4),
        (READ, 1, b, 4, 12),
        (READ, 1, a + 8, 8, 11, 4),
    ]


def test_max_streams_flushes_the_block():
    bases = [0x1000 * (i + 1) for i in range(DEFAULT_MAX_STREAMS + 2)]
    evs = [(READ, 1, base, 4, 9) for base in bases]
    out = coalesce_events(evs)
    assert [ev[2] for ev in out] == bases  # order preserved
    assert all(len(ev) == 5 for ev in out)


def test_other_thread_read_flushes_the_block():
    evs = _reads(1, 0x1000, 2) + _reads(2, 0x2000, 2)
    out = coalesce_events(evs)
    assert out == [(READ, 1, 0x1000, 8, 7, 4), (READ, 2, 0x2000, 8, 7, 4)]


# ----------------------------------------------------------------------
# conservation + stats
# ----------------------------------------------------------------------

def test_total_bytes_and_members_are_conserved():
    evs = (
        _writes(1, 0x100, 10)
        + _reads(1, 0x5000, 6, width=8)
        + [(RELEASE, 1, 3, 0, 0)]
        + _writes(2, 0x100, 3, width=1)
    )
    out = coalesce_events(evs)
    members = 0
    for ev in out:
        if ev[0] in (READ, WRITE):
            width = ev[5] if len(ev) == 6 else ev[3]
            members += ev[3] // width
    assert members == sum(1 for ev in evs if ev[0] in (READ, WRITE))


def test_batch_stats_ratio_and_coalesced():
    evs = _writes(1, 0x100, 10)
    out = coalesce_events(evs)
    st = batch_stats(evs, out)
    assert st == BatchStats(events_in=10, events_out=1)
    assert st.coalesced == 9
    assert st.ratio == 0.1


def test_batch_stats_empty_feed():
    st = batch_stats([], [])
    assert st.ratio == 1.0
    assert st.coalesced == 0


# ----------------------------------------------------------------------
# the emitted feed is pinned item for item
# ----------------------------------------------------------------------

#: sha256 of the coalesced feed (see ``_feed_digest``) of every golden
#: entry and of three larger traces (seed 1), recorded before the
#: coalescer's single-run fast path and single unpack were introduced.
#: A faster coalescer must not change a single feed item.
GOLDEN_FEED_DIGESTS = {
    "full-ffmpeg": (
        "3be881d97dad245347ed9b6be9274f34"
        "b0cc2e5369c194769b27e96ca2278613"
    ),
    "full-hmmsearch": (
        "08c5422144f291ae91027f7f5dda6827"
        "0329d4787d0428acdd17eb61501e8ea6"
    ),
    "full-pbzip2": (
        "6e0d6e274805e9cfe16ca89125b7f318"
        "7c75b01496cfe06c315e4bb1f104a43e"
    ),
    "shrunk-canneal": (
        "8e2d5bc52bf26b88ba96e1c8bf432fbf"
        "e67b0fd994ef874fca4ed6126fb52d5f"
    ),
    "shrunk-ferret": (
        "93527119a01935ad6e1203cc88e520b7"
        "4a4fbabf75677c0c3339e3df608753a3"
    ),
    "shrunk-ffmpeg": (
        "2798bf2aef76f0739b89a9339cc7bd3f"
        "09032a64cb21434aa9ef9785e8981bee"
    ),
    "shrunk-fluidanimate": (
        "e7660693b365755cde966131b49704f3"
        "207d655a6e1f6f3601559fbaabeedd49"
    ),
    "shrunk-hmmsearch": (
        "f9330733c8dfaa13daf29006e03e830d"
        "d967d3a8756087cf80708de19ffaaab3"
    ),
    "shrunk-raytrace": (
        "14532df970c02e465c18c90393683cbb"
        "2841d31cecf012cee20bbd618c7b1366"
    ),
    "shrunk-streamcluster": (
        "459df5fc2b86e1cf4a4a597586134b41"
        "1c13e13ffcd9f62f90479262793d4f25"
    ),
    "shrunk-x264": (
        "801125e7d3dca0bb00f618115dbb7110"
        "0a09d74d3388d6941ea15f7cfe618e8c"
    ),
}
LARGE_FEED_DIGESTS = {
    ("pbzip2", 1.5): (
        "629d274f170f9ebce6f5d03e23dcf3a6"
        "2ae57a8ede954fdf2e0566ec72dca7f1"
    ),
    ("canneal", 4.0): (
        "aeac26bccadb4ad1736dcc291a2b383e"
        "fdebe8e4d8d5e5404fa2e51c56e9dc87"
    ),
    ("streamcluster", 4.0): (
        "ecaa5d9807f2c1ec1672f367dde9a957"
        "6b85faff867ae9c2058761ed4a1a085d"
    ),
}


def _feed_digest(feed) -> str:
    h = hashlib.sha256()
    for ev in feed:
        h.update(repr(tuple(int(x) for x in ev)).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_golden_coalesced_feeds_match_recorded_digests():
    names = sorted(load_manifest())
    assert names == sorted(GOLDEN_FEED_DIGESTS)
    for name in names:
        trace = Trace.load(os.path.join(default_corpus_dir(), f"{name}.npz"))
        assert _feed_digest(coalesce_events(trace.events)) == (
            GOLDEN_FEED_DIGESTS[name]
        ), name


@pytest.mark.parametrize("workload,scale", sorted(LARGE_FEED_DIGESTS))
def test_large_coalesced_feeds_match_recorded_digests(workload, scale):
    trace = build_trace(workload, scale=scale, seed=1)
    assert _feed_digest(coalesce_events(trace.events)) == (
        LARGE_FEED_DIGESTS[(workload, scale)]
    )
