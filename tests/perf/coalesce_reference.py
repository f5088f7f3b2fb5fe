"""Reference coalescer: the mutable-run form of ``coalesce_events``.

Kept as the oracle for ``tests/perf/test_coalesce_differential.py``:
each pending run is a mutable ``[op, tid, addr, size, site, width]``
list, sibling gaps are tested with ``all(...)``, and every emitted
item is rebuilt by ``_emit``.  Slow, but plainly the merge rules of
:mod:`repro.perf.batch`, which must produce the same feed item for
item.
"""

from typing import List, Sequence

from repro.perf.batch import (
    DEFAULT_BATCH_SPAN,
    DEFAULT_MAX_STREAMS,
    MIN_STREAM_GAP,
)
from repro.runtime.events import READ, WRITE


def _emit(run: list) -> tuple:
    """A pending run as an output event: a 6-tuple (with the member
    width) when it absorbed at least one follow-up access, the original
    5-tuple otherwise."""
    if run[3] > run[5]:
        return tuple(run)
    return (run[0], run[1], run[2], run[3], run[4])


def coalesce_reference(events: Sequence[tuple]) -> List[tuple]:
    """The batched dispatch feed for ``events``, as the mutable-run
    coalescer builds it."""
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
