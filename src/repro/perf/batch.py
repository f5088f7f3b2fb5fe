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
events that did not merge are emitted as the 5-tuples they came in
as.  The replay loop routes 6-tuples through
``Detector.on_read_batch`` / ``on_write_batch``, whose default replays
the run as its ``n`` member accesses; only detectors with an exact
ranged shortcut (FastTrack, dynamic granularity) override it.

Coalescing is one plain pass, so it costs less per event than the
dispatch it saves: a pending run is its first event and its current
end, and an event costs one unpack and a few integer compares; only a
read that arrives while two or more read runs are pending loops over
them (at most ``DEFAULT_MAX_STREAMS``) to find its run and test the
gap to the others.
``tests/perf/test_coalesce_differential.py`` holds it to a reference
coalescer item for item.

``tests/testing/test_batch_conformance.py`` pins identical race reports
and full ``statistics()`` between batched and unbatched replay for
every registry detector on the golden corpus and the embedded
workloads; perfbench's ``offline-*`` workloads time both dispatch
modes.
"""

from __future__ import annotations

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


def coalesce_events(events: Sequence[tuple]) -> List[tuple]:
    """The batched dispatch feed for ``events`` (plain 5-tuples, see
    :mod:`repro.runtime.events`).

    Sync and heap events never merge, always flush every pending run,
    and keep their position, so their ordering against all accesses is
    preserved exactly.  An event that merged with nothing is emitted as
    the tuple it came in as.
    """
    max_span = DEFAULT_BATCH_SPAN
    max_streams = DEFAULT_MAX_STREAMS
    gap = MIN_STREAM_GAP
    out: List[tuple] = []
    append = out.append
    # Pending read runs of the current read block, all by thread
    # ``rtid``, in first-member order; each is ``[end, lo, first]``
    # with ``first`` the run's first event and ``lo`` its address.
    runs: List[list] = []
    rtid = -1
    # The pending write run (strictly consecutive merging only): its
    # first event and its end.  Reads and a write are never pending
    # together.
    wfirst = None
    wend = 0

    for ev in events:
        op, tid, addr, size, site = ev
        hi = addr + size
        if op == READ:
            if runs and tid == rtid:
                n = len(runs)
                if n == 1:
                    end, lo, first = r = runs[0]
                    if (
                        end == addr
                        and first[4] == site
                        and first[3] == size
                        and hi - lo <= max_span
                    ):
                        r[0] = hi
                        continue
                    # A second stream opens at the gap from the lone
                    # run; there are no other siblings to scan.
                    if hi + gap <= lo or end + gap <= addr:
                        runs.append([hi, addr, ev])
                        continue
                else:
                    for r in runs:
                        end, lo, first = r
                        if (
                            end == addr
                            and first[4] == site
                            and first[3] == size
                            and hi - lo <= max_span
                        ):
                            break
                    else:
                        r = None
                    if r is not None:
                        # Grow ``r`` only while every sibling stays at
                        # the gap from it.
                        for o in runs:
                            if o is not r and hi + gap > o[1] and o[0] + gap > lo:
                                break
                        else:
                            r[0] = hi
                            continue
                    elif n < max_streams:
                        # Or start one more stream, at the gap from
                        # every other.
                        for o in runs:
                            if hi + gap > o[1] and o[0] + gap > addr:
                                break
                        else:
                            runs.append([hi, addr, ev])
                            continue
        elif op == WRITE:
            if (
                wfirst is not None
                and wend == addr
                and wfirst[1] == tid
                and wfirst[4] == site
                and wfirst[3] == size
                and hi - wfirst[2] <= max_span
            ):
                wend = hi
                continue
        # This event merges with nothing pending: emit every pending run.
        if runs:
            for end, lo, first in runs:
                if end - lo > first[3]:
                    append((READ, rtid, lo, end - lo, first[4], first[3]))
                else:
                    append(first)
            runs.clear()
        elif wfirst is not None:
            lo = wfirst[2]
            if wend - lo > wfirst[3]:
                append((WRITE, wfirst[1], lo, wend - lo, wfirst[4], wfirst[3]))
            else:
                append(wfirst)
            wfirst = None
        if op == READ:
            rtid = tid
            runs.append([hi, addr, ev])
        elif op == WRITE:
            wfirst = ev
            wend = hi
        else:
            append(ev)
    for end, lo, first in runs:
        if end - lo > first[3]:
            append((READ, rtid, lo, end - lo, first[4], first[3]))
        else:
            append(first)
    if wfirst is not None:
        lo = wfirst[2]
        if wend - lo > wfirst[3]:
            append((WRITE, wfirst[1], lo, wend - lo, wfirst[4], wfirst[3]))
        else:
            append(wfirst)
    return out


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
