"""Replay VM: feeds a trace to a detector and measures the cost.

``replay`` is the instrumented run; ``bare_replay`` iterates the same
trace through an equivalent dispatch loop that does no detection work.
The ratio of the two is the *slowdown* figure reported in the paper's
tables — native absolute factors differ (we run on an interpreter, not
under PIN), but the relative ordering between detection strategies is
driven by the per-event algorithmic work, which both runs share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.runtime.events import (
    ACQUIRE,
    ALLOC,
    FORK,
    FREE,
    JOIN,
    READ,
    RELEASE,
    WRITE,
)
from repro.runtime.program import Program
from repro.runtime.scheduler import Scheduler
from repro.runtime.trace import Trace


@dataclass
class ReplayResult:
    """Outcome of replaying one trace through one detector."""

    detector_name: str
    trace_name: str
    events: int
    wall_time: float
    races: list = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)
    #: callbacks actually dispatched (== events unless batched dispatch
    #: coalesced adjacent accesses into ranged calls)
    dispatched: int = 0

    @property
    def race_count(self) -> int:
        return len(self.races)

    def slowdown(self, base_time: float) -> float:
        """Instrumented / bare wall-time ratio."""
        if base_time <= 0:
            return float("inf")
        return self.wall_time / base_time


def dispatch_event(detector, ev: tuple) -> None:
    """Dispatch one feed item (plain 5-tuple or coalesced 6-tuple) to
    ``detector`` — the same routing as :func:`replay`'s inlined loop.

    The resumable session (:mod:`repro.recovery.session`) dispatches
    item by item so it can checkpoint and inject detector kills at feed
    boundaries; :func:`replay` keeps its bound-local loop for speed.
    """
    op = ev[0]
    if op == READ:
        if len(ev) == 6:
            detector.on_read_batch(ev[1], ev[2], ev[3], ev[5], ev[4])
        else:
            detector.on_read(ev[1], ev[2], ev[3], ev[4])
    elif op == WRITE:
        if len(ev) == 6:
            detector.on_write_batch(ev[1], ev[2], ev[3], ev[5], ev[4])
        else:
            detector.on_write(ev[1], ev[2], ev[3], ev[4])
    elif op == ACQUIRE:
        detector.on_acquire(ev[1], ev[2], ev[3])
    elif op == RELEASE:
        detector.on_release(ev[1], ev[2], ev[3])
    elif op == FORK:
        detector.on_fork(ev[1], ev[2])
    elif op == JOIN:
        detector.on_join(ev[1], ev[2])
    elif op == ALLOC:
        detector.on_alloc(ev[1], ev[2], ev[3])
    elif op == FREE:
        detector.on_free(ev[1], ev[2], ev[3])


def replay(
    trace: Trace,
    detector,
    batched: bool = False,
    batch_span: Optional[int] = None,
) -> ReplayResult:
    """Replay ``trace`` through ``detector`` and collect results.

    With ``batched=True`` the dispatch loop consumes the coalesced
    feed (:meth:`Trace.coalesced`): adjacent same-thread same-op
    accesses arrive as single ranged callbacks.  Race reports are
    byte-identical either way (pinned by the conformance suite); only
    the dispatch cost changes.  The feed is computed outside the timed
    region — it is built once per trace and shared by every detector
    replaying it.
    """
    events = trace.coalesced(batch_span) if batched else trace.events
    on_read = detector.on_read
    on_write = detector.on_write
    on_read_batch = detector.on_read_batch
    on_write_batch = detector.on_write_batch
    on_acquire = detector.on_acquire
    on_release = detector.on_release
    on_fork = detector.on_fork
    on_join = detector.on_join
    on_alloc = detector.on_alloc
    on_free = detector.on_free

    t0 = time.perf_counter()
    for ev in events:
        op = ev[0]
        if op == READ:
            if len(ev) == 6:
                on_read_batch(ev[1], ev[2], ev[3], ev[5], ev[4])
            else:
                on_read(ev[1], ev[2], ev[3], ev[4])
        elif op == WRITE:
            if len(ev) == 6:
                on_write_batch(ev[1], ev[2], ev[3], ev[5], ev[4])
            else:
                on_write(ev[1], ev[2], ev[3], ev[4])
        elif op == ACQUIRE:
            on_acquire(ev[1], ev[2], ev[3])
        elif op == RELEASE:
            on_release(ev[1], ev[2], ev[3])
        elif op == FORK:
            on_fork(ev[1], ev[2])
        elif op == JOIN:
            on_join(ev[1], ev[2])
        elif op == ALLOC:
            on_alloc(ev[1], ev[2], ev[3])
        elif op == FREE:
            on_free(ev[1], ev[2], ev[3])
    detector.finish()
    wall = time.perf_counter() - t0

    return ReplayResult(
        detector_name=detector.name,
        trace_name=trace.name,
        events=len(trace),
        wall_time=wall,
        races=list(detector.races),
        stats=detector.statistics(),
        dispatched=len(events),
    )


class _NullSink:
    """The bare-replay stand-in: same call shape, no detection work."""

    @staticmethod
    def touch(*_args):
        return None


def bare_replay(
    trace: Trace, batched: bool = False, batch_span: Optional[int] = None
) -> float:
    """Wall time of replaying ``trace`` with no detector attached.

    The dispatch structure intentionally mirrors :func:`replay` so the
    measured delta is detection work, not loop shape; ``batched``
    selects the coalesced feed, mirroring ``replay(batched=True)``.
    """
    events = trace.coalesced(batch_span) if batched else trace.events
    sink = _NullSink.touch
    t0 = time.perf_counter()
    for ev in events:
        op = ev[0]
        if op == READ:
            if len(ev) == 6:
                sink(ev[1], ev[2], ev[3], ev[5], ev[4])
            else:
                sink(ev[1], ev[2], ev[3], ev[4])
        elif op == WRITE:
            if len(ev) == 6:
                sink(ev[1], ev[2], ev[3], ev[5], ev[4])
            else:
                sink(ev[1], ev[2], ev[3], ev[4])
        elif op == ACQUIRE:
            sink(ev[1], ev[2], ev[3])
        elif op == RELEASE:
            sink(ev[1], ev[2], ev[3])
        elif op == FORK:
            sink(ev[1], ev[2])
        elif op == JOIN:
            sink(ev[1], ev[2])
        elif op == ALLOC:
            sink(ev[1], ev[2], ev[3])
        elif op == FREE:
            sink(ev[1], ev[2], ev[3])
    return time.perf_counter() - t0


def run_program(
    program: Program,
    detector,
    seed: int = 0,
    max_events: Optional[int] = None,
) -> ReplayResult:
    """Schedule ``program`` and replay the resulting trace — the one-call
    convenience path used by examples and the quickstart."""
    trace = Scheduler(seed=seed).run(program, max_events=max_events)
    return replay(trace, detector)
