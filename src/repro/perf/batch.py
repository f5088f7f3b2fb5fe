"""Batched event dispatch: coalesce adjacent accesses into ranged calls.

A trace feed is dominated by sequential sweeps — a thread initializing
or scanning a buffer emits long runs of ``write(a, 4)``, ``write(a+4,
4)``, … with nothing in between.  Dispatching each of those as its own
callback pays the interpreter's per-call cost the paper's whole design
exists to avoid.  Coalescing a run into one ranged callback preserves
detector semantics because the merged run carries the original access
*width* alongside the merged range, so width-sensitive detectors can
reconstruct the exact per-access stream.

Two merge rules, both restricted to runs that are *consecutive in the
global trace order* (so no other thread's access and no sync operation
could have interleaved — the merged accesses happen entirely within
one epoch of one thread) and to *uniform-width* members (every access
in a run has the same size):

* **writes** merge only when strictly consecutive: same thread, same
  site, each access starting exactly where the previous one ended.
  Nothing is ever reordered.
* **reads** additionally tolerate interleaved streams: within a block
  of consecutive reads by one thread, up to ``DEFAULT_MAX_STREAMS``
  adjacent runs grow side by side (the streamcluster shape — a scan
  alternating point reads with center reads).  Merged runs are emitted in
  first-member order when the block ends.  This reorders reads *within
  the block only*, and only while every pair of pending runs stays at
  least ``MIN_STREAM_GAP`` bytes apart — an event that would bring two
  runs closer flushes the block instead.  All block members are reads
  by one thread in one epoch; a read never modifies the write
  histories it is checked against; and the gap keeps the runs
  unit-disjoint (no shared shadow unit, so first-race-per-location
  attribution cannot flip between streams) and outside each other's
  neighbour-scan range (group formation order stays per-run).

A merged run is emitted as a 6-tuple ``(op, tid, addr, size, site,
width)`` where ``size == n * width`` for ``n >= 2`` member accesses;
events that did not merge stay plain 5-tuples.  The replay loop routes
6-tuples through ``Detector.on_read_batch`` / ``on_write_batch``, whose
default replays the run as its ``n`` member accesses; only detectors
with an exact ranged shortcut (FastTrack, dynamic granularity) override
it.

``tests/testing/test_batch_conformance.py`` pins identical race reports
and full ``statistics()`` between batched and unbatched replay for
every registry detector on the golden corpus and the embedded
workloads; perfbench's ``offline-*`` workloads time both dispatch
modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.runtime.events import READ, WRITE

#: Cap on a coalesced range, in bytes.  Bounds the worst-case work a
#: single callback performs (and the size of any list slice a detector
#: takes for it); one 4 KiB page of address space is far beyond any
#: real access width while still swallowing whole init sweeps.
DEFAULT_BATCH_SPAN = 4096

#: How many interleaved read streams a same-thread read block may grow
#: at once before the block is flushed.
DEFAULT_MAX_STREAMS = 4

#: Minimum distance between any two pending read runs, in bytes.  The
#: block flushes rather than grow runs closer than this.  The gap
#: guarantees the emitted runs are unit-disjoint for every supported
#: granularity (<= 8 bytes) — so reordering them can never flip which
#: stream reports first at a shared shadow unit — and exceeds the
#: dynamic detector's neighbour-scan reach, so per-run group formation
#: does not depend on the other runs' dispatch order.
MIN_STREAM_GAP = 64


@dataclass(frozen=True)
class BatchStats:
    """How much a coalescing pass compressed the dispatch stream."""

    events_in: int
    events_out: int

    @property
    def coalesced(self) -> int:
        """Events absorbed into a preceding ranged event."""
        return self.events_in - self.events_out

    @property
    def ratio(self) -> float:
        """Dispatch calls per original event (1.0 = nothing merged)."""
        return self.events_out / self.events_in if self.events_in else 1.0


def _emit(run: list) -> tuple:
    """A pending run as an output event: a 6-tuple (with the member
    width) when it absorbed at least one follow-up access, the original
    5-tuple otherwise."""
    if run[3] > run[5]:
        return tuple(run)
    return (run[0], run[1], run[2], run[3], run[4])


def coalesce_events(events: Sequence[tuple]) -> List[tuple]:
    """The batched dispatch feed for ``events`` (plain 5-tuples, see
    :mod:`repro.runtime.events`).

    Sync and heap events never merge, always flush every pending run,
    and keep their position, so their ordering against all accesses is
    preserved exactly.
    """
    max_span = DEFAULT_BATCH_SPAN
    max_streams = DEFAULT_MAX_STREAMS
    out: List[tuple] = []
    append = out.append
    # Pending read runs of the current same-thread read block, in
    # first-member order; each is a mutable
    # [op, tid, addr, size, site, width].
    runs: List[list] = []
    # Pending write run (strictly consecutive merging only).
    pend = None

    for ev in events:
        op, tid, addr, size, site = ev
        if op == READ:
            if pend is not None:
                append(_emit(pend))
                pend = None
            if runs:
                if runs[0][1] != tid:
                    for r in runs:
                        append(_emit(r))
                    runs.clear()
                elif len(runs) == 1:
                    # A lone run has no sibling to close on: grow it
                    # without the gap scan.
                    r = runs[0]
                    if (
                        r[4] == site
                        and r[5] == size
                        and r[2] + r[3] == addr
                        and r[3] + size <= max_span
                    ):
                        r[3] += size
                        continue
            hi = addr + size
            for r in runs:
                if (
                    r[4] == site
                    and r[5] == size
                    and r[2] + r[3] == addr
                    and r[3] + size <= max_span
                ):
                    if all(
                        o is r
                        or hi + MIN_STREAM_GAP <= o[2]
                        or o[2] + o[3] + MIN_STREAM_GAP <= r[2]
                        for o in runs
                    ):
                        r[3] += size
                        break
                    # Growing this run would close on a sibling run:
                    # flush the block, restart with this event alone.
                    for q in runs:
                        append(_emit(q))
                    runs.clear()
                    runs.append([op, tid, addr, size, site, size])
                    break
            else:
                if len(runs) >= max_streams or not all(
                    hi + MIN_STREAM_GAP <= o[2]
                    or o[2] + o[3] + MIN_STREAM_GAP <= addr
                    for o in runs
                ):
                    for r in runs:
                        append(_emit(r))
                    runs.clear()
                runs.append([op, tid, addr, size, site, size])
            continue
        if runs:
            for r in runs:
                append(_emit(r))
            runs.clear()
        if op == WRITE:
            if pend is not None:
                if (
                    pend[1] == tid
                    and pend[4] == site
                    and pend[5] == size
                    and pend[2] + pend[3] == addr
                    and pend[3] + size <= max_span
                ):
                    pend[3] += size
                    continue
                append(_emit(pend))
            pend = [op, tid, addr, size, site, size]
            continue
        if pend is not None:
            append(_emit(pend))
            pend = None
        append(tuple(ev))
    if pend is not None:
        append(_emit(pend))
    for r in runs:
        append(_emit(r))
    return out


def batch_stats(events: Sequence[tuple], batched: Sequence[tuple]) -> BatchStats:
    """Stats pair for a feed and its coalesced form."""
    return BatchStats(events_in=len(events), events_out=len(batched))


def event_weight(ev: tuple) -> int:
    """Original trace events a dispatch-feed item represents.

    A coalesced 6-tuple covers ``size // width`` member accesses; every
    plain event counts as one.  The resumable session uses this to keep
    its event cursor in *original trace events* so ``--checkpoint-every``
    means the same thing under batched and unbatched dispatch.
    """
    if len(ev) == 6 and ev[5] > 0:
        return ev[3] // ev[5]
    return 1
