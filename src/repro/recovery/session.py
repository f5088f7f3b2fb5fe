"""Resumable detection sessions and their supervisor.

:class:`DetectionSession` replays one trace through one detector,
writing a checkpoint every N *original trace events*.  Checkpoints land
only at dispatch-feed boundaries: under batched dispatch a coalesced
run is one feed item, so a checkpoint can never split a ranged callback
— the state captured is exactly the state an uninterrupted replay has
at that boundary.  That is what makes the hard invariant hold: a run
killed at any point and resumed from its last good checkpoint reports
**byte-identical races and statistics** to a run that was never
interrupted (``statistics()["recovery"]`` excepted — that section
exists precisely to record the interruption history).

:class:`Supervisor` wraps a session with the process-level robustness
the fuzz campaigns need: a monotonic-deadline watchdog (shared timer
thread, works from any thread; SIGALRM stays armed on the main thread
as a hard backstop for non-cooperative wedges), bounded retry with
exponential backoff, fall-back through older checkpoints when the
newest is corrupt (typed :class:`CheckpointError`), and — when retries
are exhausted — degradation into the
:class:`~repro.detectors.guards.GuardedDetector` shedding ladder
instead of aborting, so an overloaded resume sheds shadow state and
continues rather than dying again.

Injected detector deaths (``kill-detector-at-event`` faults from
:mod:`repro.runtime.faults`) raise :class:`DetectorKilled` at the next
feed boundary; each planned kill fires exactly once per session object,
so a resumed attempt replays past the kill point instead of dying in a
loop.
"""

from __future__ import annotations

import signal
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Union

from repro.perf.batch import DEFAULT_BATCH_SPAN, event_weight
from repro.recovery.checkpoint import (
    CheckpointDir,
    CheckpointError,
    read_checkpoint,
    restore_detector,
    validate_manifest,
    wrap_detector,
    write_checkpoint,
)
from repro.recovery.watchdog import shared_watchdog
from repro.runtime.faults import FaultPlan
from repro.runtime.trace import Trace
from repro.runtime.vm import ReplayResult, drive, handlers

#: Sentinel for "resume from the newest good checkpoint, if any".
LATEST = "latest"


class DetectorKilled(Exception):
    """An injected ``kill-detector-at-event`` fault fired."""

    def __init__(self, at_event: int):
        super().__init__(f"detector killed at event {at_event}")
        self.at_event = at_event


class WatchdogTimeout(Exception):
    """The supervisor's watchdog expired mid-attempt."""


class SupervisorError(RuntimeError):
    """Retries exhausted (and degradation unavailable or already used)."""


class DetectionSession:
    """A checkpointed replay of ``trace`` through one detector.

    ``detector`` is a registry name or a zero-argument factory; a fresh
    instance is built for every attempt so a crashed detector's
    possibly-corrupt state is never reused — resume always restores
    into a pristine object.  With ``shadow_budget`` set the detector is
    wrapped in a :class:`GuardedDetector` (and the budget is enforced
    immediately after every restore, so an over-budget resume degrades
    through the shedding ladder on the spot).
    """

    def __init__(
        self,
        trace: Trace,
        detector: Union[str, Callable] = "dynamic",
        *,
        checkpoint_dir: str,
        checkpoint_every: int = 5000,
        batched: bool = False,
        batch_span: Optional[int] = None,
        suppress: Optional[Callable[[int], bool]] = None,
        shadow_budget: Optional[int] = None,
        kills: Union[FaultPlan, List[int], None] = None,
        keep_checkpoints: int = 3,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if keep_checkpoints < 2:
            # One fallback generation minimum: the whole point of the
            # supervisor is surviving a corrupt newest checkpoint.
            raise ValueError(
                f"keep_checkpoints must be >= 2, got {keep_checkpoints}"
            )
        self.trace = trace
        self.detector = detector
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.batched = batched
        self.batch_span = batch_span
        self.suppress = suppress
        self.shadow_budget = shadow_budget
        self.keep_checkpoints = keep_checkpoints
        if isinstance(kills, FaultPlan):
            self._kills = kills.detector_kill_events()
        else:
            self._kills = sorted(kills) if kills else []
        self._next_kill = 0
        #: cooperative abort hook, polled at every feed boundary: when it
        #: returns True the attempt raises :class:`WatchdogTimeout`.  The
        #: supervisor points this at a monotonic
        #: :class:`~repro.recovery.watchdog.Deadline` so its timeout works
        #: off the main thread, where SIGALRM cannot.
        self.abort_check: Optional[Callable[[], bool]] = None
        self._store = CheckpointDir(checkpoint_dir, keep_checkpoints)
        # sha256 of the trace's canonical binary form (Trace.binlog):
        # manifests commit to the exact bytes the codec round-trips,
        # not to Python repr formatting.
        self._digest = trace.digest()
        self._label = self._detector_label()
        #: interruption history, merged into ``statistics()["recovery"]``
        self.recovery = {
            "checkpoints_written": 0,
            "resumes": 0,
            "last_resume_event": None,
            "kills_fired": 0,
            "crashes": 0,
            "timeouts": 0,
            "retries": 0,
            "bad_checkpoints": 0,
            "degraded": False,
            "shadow_budget": shadow_budget,
        }

    # ------------------------------------------------------------------
    # detector construction
    # ------------------------------------------------------------------
    def _make_inner(self):
        if callable(self.detector):
            return self.detector()
        from repro.detectors.registry import create_detector

        return create_detector(self.detector, suppress=self.suppress)

    def _make_detector(self):
        return wrap_detector(self._make_inner(), self.shadow_budget)

    def _detector_label(self) -> str:
        """The *inner* detector name — stable across degradation, so a
        checkpoint written unguarded resumes into a guarded session."""
        det = self._make_inner()
        return det.name

    # ------------------------------------------------------------------
    # checkpoint files
    # ------------------------------------------------------------------
    def checkpoints(self) -> List[str]:
        """Existing non-discarded checkpoint paths, oldest first."""
        return self._store.paths()

    def latest_checkpoint(self) -> Optional[str]:
        """Newest non-discarded checkpoint path, or None."""
        found = self.checkpoints()
        return found[-1] if found else None

    def discard_checkpoint(self, path: str) -> None:
        """Drop a checkpoint that failed to load; it is never offered
        again, even if deleting the file failed."""
        self._store.discard(path)

    def resolve_resume(self, resume: Optional[str]) -> Optional[str]:
        """``None`` → fresh start, :data:`LATEST` → newest checkpoint
        (or fresh when none exist), anything else → that path."""
        if resume is None:
            return None
        if resume == LATEST:
            return self.latest_checkpoint()
        return resume

    # ------------------------------------------------------------------
    # degradation
    # ------------------------------------------------------------------
    def degrade(self, shadow_budget: int) -> None:
        """Switch subsequent attempts to a budget-guarded detector.

        Called by the supervisor when retries are exhausted: instead of
        aborting, the session continues with the
        :class:`GuardedDetector` shedding ladder bounding shadow state.
        """
        self.shadow_budget = shadow_budget
        self.recovery["degraded"] = True
        self.recovery["shadow_budget"] = shadow_budget

    # ------------------------------------------------------------------
    # the replay loop
    # ------------------------------------------------------------------
    def _feed(self) -> List[tuple]:
        if self.batched:
            return self.trace.coalesced(self.batch_span)
        return self.trace.events

    def _events_before(self, feed: List[tuple]) -> Sequence[int]:
        """Original trace events covered by feed items ``[0, i)``, for
        every ``i`` in ``[0, len(feed)]`` (non-decreasing, so a segment
        end is one bisection)."""
        if not self.batched:
            return range(len(feed) + 1)
        return list(accumulate(map(event_weight, feed), initial=0))

    @property
    def _effective_span(self) -> Optional[int]:
        if not self.batched:
            return None
        return DEFAULT_BATCH_SPAN if self.batch_span is None else self.batch_span

    def _kill_due(self, events_done: int) -> None:
        """Fire the next planned kill once ``events_done`` reaches it."""
        kills = self._kills
        if self._next_kill < len(kills) and events_done >= kills[self._next_kill]:
            at = kills[self._next_kill]
            self._next_kill += 1
            self.recovery["kills_fired"] += 1
            raise DetectorKilled(at)

    def run(self, resume: Optional[str] = None) -> ReplayResult:
        """One attempt: optionally restore, replay to the end, finish.

        Raises :class:`DetectorKilled` when an injected kill fires,
        :class:`CheckpointError` when the resume checkpoint is bad, and
        whatever a genuinely crashing detector raises.  The supervisor
        turns those into retries; calling this directly gives at-most-
        one-attempt semantics (the CLI's plain ``--resume-from`` path).

        The feed runs through the driver segment by segment; a segment
        ends at the first feed boundary at or past the next checkpoint
        mark or kill point, and is a single item while ``abort_check``
        is set, so the deadline is polled at every feed boundary.
        """
        rec = self.recovery
        feed = self._feed()
        det = self._make_detector()
        cursor = 0
        events_done = 0
        path = self.resolve_resume(resume)
        if path is not None:
            manifest, state = read_checkpoint(path)
            validate_manifest(
                manifest,
                path=path,
                trace_digest=self._digest,
                detector=self._label,
                batched=self.batched,
                batch_span=self._effective_span,
            )
            restore_detector(det, state)
            cursor = manifest["feed_cursor"]
            events_done = manifest["event_cursor"]
            rec["resumes"] += 1
            rec["last_resume_event"] = events_done
        every = self.checkpoint_every
        next_mark = (events_done // every + 1) * every
        kills = self._kills
        abort_check = self.abort_check
        table = handlers(det)
        n = len(feed)
        done = self._events_before(feed)
        t0 = time.perf_counter()
        while cursor < n:
            if abort_check is not None and abort_check():
                raise WatchdogTimeout("attempt aborted by deadline")
            self._kill_due(events_done)
            if abort_check is not None:
                stop = cursor + 1
            else:
                target = next_mark
                if self._next_kill < len(kills):
                    target = min(target, kills[self._next_kill])
                stop = min(bisect_left(done, target, cursor + 1), n)
            drive(feed, table, cursor, stop)
            cursor = stop
            events_done = done[stop]
            if events_done >= next_mark:
                self._write(det, cursor, events_done)
                next_mark = (events_done // every + 1) * every
        self._kill_due(events_done)
        det.finish()
        wall = time.perf_counter() - t0
        stats = dict(det.statistics())
        stats["recovery"] = dict(rec)
        return ReplayResult(
            detector_name=det.name,
            trace_name=self.trace.name,
            events=len(self.trace),
            wall_time=wall,
            races=list(det.races),
            stats=stats,
            dispatched=n,
        )

    def _write(self, det, feed_cursor: int, events_done: int) -> None:
        write_checkpoint(
            self._store.path_for(events_done),
            det.snapshot_state(),
            detector=self._label,
            event_cursor=events_done,
            feed_cursor=feed_cursor,
            trace_digest=self._digest,
            trace_name=self.trace.name,
            batched=self.batched,
            batch_span=self._effective_span,
        )
        self.recovery["checkpoints_written"] += 1
        self._store.prune()


class Supervisor:
    """Watchdog + bounded-retry + degradation wrapper for a session.

    Each attempt resumes from the newest good checkpoint.  A
    :class:`CheckpointError` discards the offending file and falls back
    to the previous generation (ultimately a cold restart); kills,
    crashes and watchdog timeouts retry with exponential backoff.
    Injected kills do not consume retries — they are planned,
    deterministic and fire once each, so a plan with many kills cannot
    starve recovery from real faults.  When ``max_retries`` genuine
    failures accumulate and ``degrade_shadow_budget`` is set, the
    session degrades into the guarded shedding ladder and the retry
    budget resets once; after that, :class:`SupervisorError`.
    """

    def __init__(
        self,
        session: DetectionSession,
        *,
        watchdog_timeout: Optional[float] = None,
        max_retries: int = 5,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max: float = 2.0,
        degrade_shadow_budget: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.session = session
        self.watchdog_timeout = watchdog_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.degrade_shadow_budget = degrade_shadow_budget
        self._sleep = sleep

    # ------------------------------------------------------------------
    @contextmanager
    def _watchdog(self):
        """Arm the attempt timeout.

        Primary mechanism: a shared monotonic :class:`Deadline`
        (:mod:`repro.recovery.watchdog`) polled by the session at every
        feed boundary — thread-safe, so supervisors work off the main
        thread (fuzz workers, the detection server's executor).  On the
        main thread SIGALRM is *additionally* armed as a hard backstop:
        it interrupts a wedge that never reaches a poll point (a
        detector stuck inside one callback), which the cooperative
        deadline cannot.
        """
        seconds = self.watchdog_timeout
        if not seconds:
            yield
            return
        handle = shared_watchdog().arm(seconds)
        prev_check = self.session.abort_check
        self.session.abort_check = lambda: handle.expired
        use_alarm = (
            hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )

        def _expire(_signum, _frame):
            raise WatchdogTimeout(f"attempt exceeded {seconds}s")

        old = None
        if use_alarm:
            old = signal.signal(signal.SIGALRM, _expire)
            signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
            if not handle.cancel():
                # Expired between the last poll and the finish line: the
                # attempt did complete, so the timeout is moot.
                pass
        except BaseException:
            handle.cancel()
            raise
        finally:
            self.session.abort_check = prev_check
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)

    # ------------------------------------------------------------------
    def run(self, resume: Optional[str] = LATEST) -> ReplayResult:
        """Drive the session to completion, surviving interruptions."""
        session = self.session
        rec = session.recovery
        failures = 0
        degraded_here = False
        last_exc: Optional[BaseException] = None
        attempt_resume = resume
        while True:
            path = session.resolve_resume(attempt_resume)
            try:
                with self._watchdog():
                    return session.run(resume=path)
            except DetectorKilled as exc:
                last_exc = exc  # planned: retry without burning budget
            except CheckpointError as exc:
                last_exc = exc
                rec["bad_checkpoints"] += 1
                failures += 1
                if path is not None:
                    session.discard_checkpoint(path)
            except WatchdogTimeout as exc:
                last_exc = exc
                rec["timeouts"] += 1
                failures += 1
            except Exception as exc:  # noqa: BLE001 - retry any crash
                last_exc = exc
                rec["crashes"] += 1
                failures += 1
            attempt_resume = LATEST
            if failures > self.max_retries:
                if self.degrade_shadow_budget is not None and not degraded_here:
                    session.degrade(self.degrade_shadow_budget)
                    degraded_here = True
                    failures = 0
                    continue
                raise SupervisorError(
                    f"giving up after {self.max_retries} retries: {last_exc}"
                ) from last_exc
            if failures:
                rec["retries"] += 1
                delay = min(
                    self.backoff_base * (self.backoff_factor ** (failures - 1)),
                    self.backoff_max,
                )
                if delay > 0:
                    self._sleep(delay)
