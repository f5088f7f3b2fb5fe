"""Differential test: ``coalesce_events`` against the reference coalescer.

Seeded event streams mix read blocks of several interleaved streams
(spaced exactly ``MIN_STREAM_GAP`` apart, one byte closer, or freely),
write runs, thread switches, site and width changes, runs longer than
``DEFAULT_BATCH_SPAN``, and sync and heap events dropped inside read
blocks.  The fast coalescer must emit the reference's feed item for
item, and every item must be a tuple.
"""

import random

import pytest

from repro.perf.batch import (
    DEFAULT_BATCH_SPAN,
    DEFAULT_MAX_STREAMS,
    MIN_STREAM_GAP,
    coalesce_events,
)
from repro.runtime.events import ACQUIRE, ALLOC, FREE, READ, RELEASE, WRITE

from .coalesce_reference import coalesce_reference

SEEDS = range(120)

#: Every edge the generator must have produced over ``SEEDS``.
EDGES = {
    "thread switch",
    "site change",
    "width change",
    "exact gap",
    "gap minus one",
    "fifth stream",
    "span cap",
    "sync in read block",
    "heap in read block",
}


def _interrupt(rng, tid, addr, hit):
    """A non-read event dropped into a read block."""
    pick = rng.randrange(4)
    if pick == 0:
        hit.add("sync in read block")
        return (rng.choice((ACQUIRE, RELEASE)), tid, rng.randrange(4), 1, 0)
    if pick == 1:
        hit.add("heap in read block")
        return (rng.choice((ALLOC, FREE)), tid, addr, 64, 0)
    if pick == 2:
        hit.add("thread switch")
        return (READ, tid + 1, addr, 4, 9)
    return (WRITE, tid, addr, 4, 9)


def _read_block(rng, hit):
    tid = rng.randrange(1, 4)
    width = rng.choice((1, 2, 4, 8))
    nstreams = rng.randint(1, DEFAULT_MAX_STREAMS + 1)
    if nstreams > DEFAULT_MAX_STREAMS:
        hit.add("fifth stream")
    # [next addr, remaining accesses, site, perturbation rate]; a run
    # longer than the span cap is left unperturbed so it reaches the cap.
    streams = []
    addr = rng.randrange(1 << 12) * 8
    for k in range(nstreams):
        if rng.random() < 0.1:
            n = DEFAULT_BATCH_SPAN // width + rng.randint(1, 4)
            noise = 0.0
            hit.add("span cap")
        else:
            n = rng.randint(1, 12)
            noise = rng.choice((0.0, 0.03))
        streams.append([addr, n, 10 + k, noise])
        spacing = rng.choice(
            (MIN_STREAM_GAP, MIN_STREAM_GAP - 1, MIN_STREAM_GAP + 1,
             rng.randrange(4 * MIN_STREAM_GAP), 1 << 14)
        )
        if spacing == MIN_STREAM_GAP:
            hit.add("exact gap")
        elif spacing == MIN_STREAM_GAP - 1:
            hit.add("gap minus one")
        addr += n * width + spacing
    # Streams start in a random order, so a new stream may open below
    # or above the pending ones.
    rng.shuffle(streams)
    live = streams[: rng.randint(1, nstreams)]
    waiting = streams[len(live):]
    out = []
    while live:
        s = rng.choice(live)
        a, _, site, noise = s
        w = width
        r = rng.random()
        if r < noise:
            site += 1
            hit.add("site change")
        elif r < 2 * noise:
            w = width * 2
            hit.add("width change")
        elif r < 3 * noise:
            out.append(_interrupt(rng, tid, a, hit))
        out.append((READ, tid, a, w, site))
        s[0] += w
        s[1] -= 1
        if s[1] <= 0:
            live.remove(s)
        if waiting and rng.random() < 0.3:
            live.append(waiting.pop())
        if not live and waiting:
            live.append(waiting.pop())
    return out


def _write_block(rng, hit):
    tid = rng.randrange(1, 4)
    width = rng.choice((1, 2, 4, 8))
    addr = rng.randrange(1 << 12) * 8
    if rng.random() < 0.1:
        n = DEFAULT_BATCH_SPAN // width + rng.randint(1, 4)
        noise = 0.0
        hit.add("span cap")
    else:
        n = rng.randint(1, 20)
        noise = 0.03
    out = []
    for _ in range(n):
        ev = [WRITE, tid, addr, width, 7]
        r = rng.random()
        if r < noise:
            ev[4] = 8
            hit.add("site change")
        elif r < 2 * noise:
            ev[3] = width * 2
            hit.add("width change")
        elif r < 3 * noise:
            ev[1] = tid + 1
            hit.add("thread switch")
        elif r < 4 * noise:
            ev[2] += width
        out.append(tuple(ev))
        addr = ev[2] + ev[3]
    return out


def _stream(seed, hit):
    rng = random.Random(seed)
    out = []
    for _ in range(rng.randint(4, 12)):
        r = rng.random()
        if r < 0.6:
            out += _read_block(rng, hit)
        elif r < 0.9:
            out += _write_block(rng, hit)
        else:
            out.append((rng.choice((ACQUIRE, RELEASE, ALLOC, FREE)),
                        rng.randrange(1, 4), rng.randrange(64), 1, 0))
    return out


def test_generator_hits_every_edge():
    hit = set()
    for seed in SEEDS:
        _stream(seed, hit)
    assert hit == EDGES


@pytest.mark.parametrize("seed", SEEDS)
def test_feed_equals_reference(seed):
    events = _stream(seed, set())
    got = coalesce_events(events)
    assert got == coalesce_reference(events)
    assert all(type(item) is tuple for item in got)
