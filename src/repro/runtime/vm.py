"""Replay VM: feeds a trace to a detector and measures the cost.

``replay`` is the instrumented run; ``bare_replay`` drives the same
trace through the same dispatch loop (:func:`drive`) with handlers that
do no detection work.  The ratio of the two is the *slowdown* figure
reported in the paper's tables — native absolute factors differ (we
run on an interpreter, not under PIN), but the relative ordering
between detection strategies is driven by the per-event algorithmic
work, which both runs share.
"""

from __future__ import annotations

import operator
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


#: Detector callbacks in the order :func:`drive` unpacks a handler table.
CALLBACKS = (
    "on_read",
    "on_write",
    "on_read_batch",
    "on_write_batch",
    "on_acquire",
    "on_release",
    "on_fork",
    "on_join",
    "on_alloc",
    "on_free",
)


#: ``detector``'s bound callbacks, looked up with ``getattr`` on the
#: object itself so instance-level overrides are honoured; callers
#: build the table once per detector and pass it to :func:`drive`.
handlers = operator.attrgetter(*CALLBACKS)


def drive(
    feed, table: tuple, start: int = 0, stop: Optional[int] = None
) -> None:
    """Dispatch feed items ``[start, stop)`` through a handler table.

    The feed driver: the one place that maps a feed item (plain
    5-tuple or coalesced 6-tuple) to a detector callback.  Every
    dispatch path — :func:`replay`, :func:`bare_replay`,
    :func:`dispatch_event`, the resumable session and the service
    tenants — runs its items through this loop; callers that
    checkpoint or inject kills call it once per segment between their
    boundaries.
    """
    (
        on_read,
        on_write,
        on_read_batch,
        on_write_batch,
        on_acquire,
        on_release,
        on_fork,
        on_join,
        on_alloc,
        on_free,
    ) = table
    if start or (stop is not None and stop < len(feed)):
        feed = feed[start:stop]
    for ev in feed:
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


def dispatch_event(detector, ev: tuple) -> None:
    """Dispatch one feed item to ``detector`` through :func:`drive`.

    Looks the handler table up on every call; loops over many items
    should build it once with :func:`handlers` and call :func:`drive`.
    """
    drive((ev,), handlers(detector))


def replay(
    trace: Trace,
    detector,
    batched: bool = False,
    batch_span: Optional[int] = None,
) -> ReplayResult:
    """Replay ``trace`` through ``detector`` and collect results.

    With ``batched=True`` the driver consumes the coalesced feed
    (:meth:`Trace.coalesced`): adjacent same-thread same-op accesses
    arrive as single ranged callbacks.  Race reports are
    byte-identical either way (pinned by the conformance suite); only
    the dispatch cost changes.  The feed and the handler table are
    built outside the timed region — the feed once per trace, shared
    by every detector replaying it.
    """
    events = trace.coalesced(batch_span) if batched else trace.events
    table = handlers(detector)
    t0 = time.perf_counter()
    drive(events, table)
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


def _null_sink(*_args) -> None:
    """The bare-replay stand-in for every callback: no detection work."""


#: The handler table :func:`bare_replay` drives: every entry the null sink.
NULL_HANDLERS = (_null_sink,) * len(CALLBACKS)


def bare_replay(
    trace: Trace, batched: bool = False, batch_span: Optional[int] = None
) -> float:
    """Wall time of replaying ``trace`` with no detector attached.

    Runs the same driver as :func:`replay` over :data:`NULL_HANDLERS`,
    so the measured delta is detection work, not loop shape;
    ``batched`` selects the coalesced feed, mirroring
    ``replay(batched=True)``.
    """
    events = trace.coalesced(batch_span) if batched else trace.events
    t0 = time.perf_counter()
    drive(events, NULL_HANDLERS)
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
