"""Checkpointed detection sessions and their supervisor.

:class:`CheckpointedSession` is the one recovery core.  It builds the
detector, fires planned kills, writes a checkpoint every N *original
events* at a feed boundary, and restores the newest good checkpoint
generation.  Two sessions share it:

* :class:`DetectionSession` feeds it a trace, plain or coalesced.  The
  trace can be re-read from any cursor, so a resume simply continues
  from the checkpoint it restored.
* :class:`~repro.server.tenant.TenantSession` feeds it an open-ended
  event stream.  It keeps its own replay window (the *tail*): a resume
  restores a checkpoint and re-drives the tail up to the committed
  cursor.

Checkpoints land only at feed boundaries.  Under batched dispatch a
coalesced run is one feed item, so a checkpoint can never split a
ranged callback: the state captured is exactly the state an
uninterrupted replay has at that boundary.  That is what makes the
hard invariant hold: a run killed at any point and resumed reports
**byte-identical races and statistics** to a run that was never
interrupted (``statistics()["recovery"]`` excepted — that section
records the interruption history).

Injected detector deaths (``kill-detector-at-event`` faults from
:mod:`repro.runtime.faults`) raise :class:`DetectorKilled`; each planned
kill fires exactly once per session object, so a resumed attempt
replays past the kill point instead of dying in a loop.

:class:`Supervisor` retries a :class:`DetectionSession` after a planned
kill, a crash or a refused checkpoint until it completes, giving up
after :data:`MAX_RETRIES` genuine failures.
"""

from __future__ import annotations

import time
from bisect import bisect_left
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
from repro.runtime.faults import FaultPlan
from repro.runtime.trace import Trace
from repro.runtime.vm import ReplayResult, drive, handlers

#: Sentinel for "resume from the newest good checkpoint, if any".
LATEST = "latest"

#: Genuine failures (crashes, refused checkpoints) a supervised run
#: survives before giving up.  Planned kills do not count.
MAX_RETRIES = 5


class DetectorKilled(Exception):
    """An injected ``kill-detector-at-event`` fault fired."""

    def __init__(self, at_event: int):
        super().__init__(f"detector killed at event {at_event}")
        self.at_event = at_event


class RecoveryExhausted(Exception):
    """No checkpoint generation (nor a cold restart) can resume this
    session: its state is unrecoverable and the session must restart."""


class SupervisorError(RuntimeError):
    """Retries exhausted."""


class CheckpointedSession:
    """One detector, its kill points, checkpoints and replay window.

    ``detector`` is a registry name (built with ``suppress``) or a
    zero-argument factory; every restore builds a fresh instance, so a
    crashed detector's possibly-corrupt state is never reused.  With
    ``shadow_budget`` set the detector runs inside a
    :class:`~repro.detectors.guards.GuardedDetector`.  Checkpoints are
    keyed on the unguarded detector's name, so a checkpoint written
    unguarded resumes into a guarded session.

    The committed cursors :attr:`feed_done` (feed items) and
    :attr:`events_done` (original events) move only in :meth:`_commit`,
    after a segment was fully dispatched.  ``_tail`` is the replay
    window: ``None`` when the event source can rewind to any checkpoint
    (a trace), else the committed feed items from ``_tail_base`` on.
    """

    def __init__(
        self,
        detector: Union[str, Callable],
        *,
        checkpoint_dir: str,
        checkpoint_every: int,
        keep_checkpoints: int,
        suppress: Optional[Callable[[int], bool]],
        shadow_budget: Optional[int],
        kills: Optional[List[int]],
        digest: str,
        trace_name: str,
        batched: bool = False,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if keep_checkpoints < 2:
            # One fallback generation minimum: recovery must survive a
            # corrupt newest checkpoint.
            raise ValueError(
                f"keep_checkpoints must be >= 2, got {keep_checkpoints}"
            )
        self.detector = detector
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = keep_checkpoints
        self.suppress = suppress
        self.shadow_budget = shadow_budget
        self.batched = batched
        # Recorded in every manifest: a checkpoint is refused by a
        # session whose feed was coalesced differently.
        self._span = DEFAULT_BATCH_SPAN if batched else None
        self._digest = digest
        self._trace_name = trace_name
        #: sorted planned kill points (original-event indices)
        self._kills = sorted(kills or [])
        self._next_kill = 0
        self._store = CheckpointDir(checkpoint_dir, keep_checkpoints)
        self.det = self._make_detector()
        self._label = (
            self.det.inner if shadow_budget is not None else self.det
        ).name
        self.feed_done = 0
        self.events_done = 0
        self._next_mark = checkpoint_every
        self._tail: Optional[list] = None
        self._tail_base = 0
        #: interruption history, merged into ``statistics()["recovery"]``
        self.recovery = {
            "checkpoints_written": 0,
            "checkpoints_gced": 0,
            "resumes": 0,
            "cold_restarts": 0,
            "last_resume_event": None,
            "kills_fired": 0,
            "crashes": 0,
            "retries": 0,
            "bad_checkpoints": 0,
            "shadow_budget": shadow_budget,
        }

    def _make_detector(self):
        if callable(self.detector):
            inner = self.detector()
        else:
            from repro.detectors.registry import create_detector

            inner = create_detector(self.detector, suppress=self.suppress)
        return wrap_detector(inner, self.shadow_budget)

    # ------------------------------------------------------------------
    # kill points
    # ------------------------------------------------------------------
    def _pending_kill(self) -> Optional[int]:
        """The next planned kill point, or None."""
        if self._next_kill < len(self._kills):
            return self._kills[self._next_kill]
        return None

    def _fire_kill(self) -> None:
        at = self._kills[self._next_kill]
        self._next_kill += 1
        self.recovery["kills_fired"] += 1
        raise DetectorKilled(at)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def checkpoints(self) -> List[str]:
        """Existing non-discarded checkpoint paths, oldest first."""
        return self._store.paths()

    def discard_checkpoint(self, path: str) -> None:
        """Drop a checkpoint that failed to load; it is not offered
        again, even if deleting the file failed, until a checkpoint is
        rewritten there."""
        self._store.discard(path)

    def _commit(self, items: int, events: int) -> None:
        """Count a fully dispatched segment; checkpoint at marks."""
        self.feed_done += items
        self.events_done += events
        if self.events_done >= self._next_mark:
            self.checkpoint_now()

    def checkpoint_now(self) -> None:
        """Write a checkpoint at the committed cursor, prune old
        generations and trim the replay window to the oldest one left."""
        path = self._store.path_for(self.events_done)
        write_checkpoint(
            path,
            self.det.snapshot_state(),
            detector=self._label,
            event_cursor=self.events_done,
            feed_cursor=self.feed_done,
            trace_digest=self._digest,
            trace_name=self._trace_name,
            batched=self.batched,
            batch_span=self._span,
        )
        self._store.written(path)
        self.recovery["checkpoints_written"] += 1
        removed, found = self._store.prune()
        self.recovery["checkpoints_gced"] += removed
        self._set_next_mark()
        if self._tail is None:
            return
        # Resume never rewinds past the oldest retained checkpoint.
        oldest = CheckpointDir.cursor_of(found[0]) if found else 0
        if oldest > self._tail_base:
            del self._tail[: oldest - self._tail_base]
            self._tail_base = oldest

    def _set_next_mark(self) -> None:
        every = self.checkpoint_every
        self._next_mark = (self.events_done // every + 1) * every

    def _check_manifest(self, manifest: dict, label: str) -> None:
        """Refuse a checkpoint written for another trace, detector or
        dispatch mode (:class:`CheckpointError`)."""
        validate_manifest(
            manifest,
            path=label,
            trace_digest=self._digest,
            detector=self._label,
            batched=self.batched,
            batch_span=self._span,
        )

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def resume(self, path: Optional[str] = None) -> int:
        """Replace the detector with a fresh one restored from a
        checkpoint; returns the event cursor restored from.

        With ``path`` that file is restored or :class:`CheckpointError`
        is raised.  Without it the newest good generation is used: each
        file that fails to load is discarded and the previous one tried.
        When none is left, the session restarts cold if its replay
        window reaches event 0 and raises :class:`RecoveryExhausted`
        otherwise.  With a replay window the restored detector is
        re-driven up to the committed cursor; without one the committed
        cursor moves to the checkpoint's.
        """
        explicit = path is not None
        while True:
            if not explicit:
                found = self._store.paths()
                if not found:
                    return self._cold_restart()
                path = found[-1]
            try:
                det, manifest = self._load(path)
            except CheckpointError:
                self.recovery["bad_checkpoints"] += 1
                if explicit:
                    raise
                self._store.discard(path)
                continue
            cursor = manifest["event_cursor"]
            self._install(det, manifest["feed_cursor"], cursor)
            self.recovery["resumes"] += 1
            self.recovery["last_resume_event"] = cursor
            return cursor

    def _load(self, path: str):
        manifest, state = read_checkpoint(path)
        self._check_manifest(manifest, path)
        cursor = manifest["feed_cursor"]
        if self._tail is not None and not (
            self._tail_base <= cursor <= self.feed_done
        ):
            # A stale file from a previous incarnation: the window
            # cannot bridge it to the committed cursor.
            raise CheckpointError(
                f"{path}: feed cursor {cursor} is outside the replay "
                f"window [{self._tail_base}, {self.feed_done}]"
            )
        det = self._make_detector()
        try:
            restore_detector(det, state)
        except Exception as exc:  # noqa: BLE001 - checksummed, yet unusable
            raise CheckpointError(
                f"{path}: state does not restore: {exc!r}"
            ) from exc
        return det, manifest

    def _cold_restart(self) -> int:
        if self._tail_base:
            raise RecoveryExhausted(
                f"{self._trace_name}: no usable checkpoint and the replay "
                f"window starts at event {self._tail_base}"
            )
        self._install(self._make_detector(), 0, 0)
        self.recovery["cold_restarts"] += 1
        self.recovery["last_resume_event"] = 0
        return 0

    def _install(self, det, feed_cursor: int, event_cursor: int) -> None:
        """Make ``det``, restored at the given cursors, the live
        detector at the committed cursor."""
        if self._tail is None:
            self.feed_done, self.events_done = feed_cursor, event_cursor
        else:
            drive(
                self._tail,
                handlers(det),
                feed_cursor - self._tail_base,
                self.feed_done - self._tail_base,
            )
        self.det = det
        self._set_next_mark()


class DetectionSession(CheckpointedSession):
    """A checkpointed replay of ``trace`` through one detector."""

    def __init__(
        self,
        trace: Trace,
        detector: Union[str, Callable] = "dynamic",
        *,
        checkpoint_dir: str,
        checkpoint_every: int = 5000,
        batched: bool = False,
        suppress: Optional[Callable[[int], bool]] = None,
        shadow_budget: Optional[int] = None,
        kills: Union[FaultPlan, List[int], None] = None,
        keep_checkpoints: int = 3,
    ):
        if isinstance(kills, FaultPlan):
            kills = kills.detector_kill_events()
        self.trace = trace
        super().__init__(
            detector,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            keep_checkpoints=keep_checkpoints,
            suppress=suppress,
            shadow_budget=shadow_budget,
            kills=kills,
            # sha256 of the trace's canonical binary form (Trace.binlog):
            # manifests commit to the exact bytes the codec round-trips.
            digest=trace.digest(),
            trace_name=trace.name,
            batched=batched,
        )

    def _feed(self) -> List[tuple]:
        if self.batched:
            return self.trace.coalesced()
        return self.trace.events

    def _events_before(self, feed: List[tuple]) -> Sequence[int]:
        """Original trace events covered by feed items ``[0, i)``, for
        every ``i`` in ``[0, len(feed)]`` (non-decreasing, so a segment
        end is one bisection)."""
        if not self.batched:
            return range(len(feed) + 1)
        return list(accumulate(map(event_weight, feed), initial=0))

    def _kill_due(self) -> None:
        """Fire the next planned kill once the committed events reach
        it."""
        at = self._pending_kill()
        if at is not None and self.events_done >= at:
            self._fire_kill()

    def run(self, resume: Optional[str] = None) -> ReplayResult:
        """One attempt: start fresh (``resume=None``) or restore (a
        checkpoint path, or :data:`LATEST` for the newest good
        generation), replay to the end, finish.

        Raises :class:`DetectorKilled` when an injected kill fires,
        :class:`CheckpointError` when an explicit resume path is bad,
        and whatever a genuinely crashing detector raises.  The
        supervisor turns those into retries; calling this directly gives
        at-most-one-attempt semantics (the CLI's ``--resume-from``).

        The feed runs through the driver segment by segment; a segment
        ends at the first feed boundary at or past the next checkpoint
        mark or kill point.
        """
        feed = self._feed()
        if resume is None:
            self._install(self._make_detector(), 0, 0)
        else:
            self.resume(None if resume == LATEST else resume)
        det = self.det
        table = handlers(det)
        n = len(feed)
        done = self._events_before(feed)
        t0 = time.perf_counter()
        while self.feed_done < n:
            self._kill_due()
            target = self._next_mark
            kill = self._pending_kill()
            if kill is not None:
                target = min(target, kill)
            start = self.feed_done
            stop = min(bisect_left(done, target, start + 1), n)
            drive(feed, table, start, stop)
            self._commit(stop - start, done[stop] - done[start])
        self._kill_due()
        det.finish()
        wall = time.perf_counter() - t0
        stats = dict(det.statistics())
        stats["recovery"] = dict(self.recovery)
        return ReplayResult(
            detector_name=det.name,
            trace_name=self.trace.name,
            events=len(self.trace),
            wall_time=wall,
            races=list(det.races),
            stats=stats,
            dispatched=n,
        )


class Supervisor:
    """Drive a :class:`DetectionSession` to completion.

    Each retry resumes from the newest good checkpoint (the session
    falls back through older generations, ultimately to a cold
    restart).  Injected kills do not consume retries — they are planned,
    deterministic and fire once each, so a plan with many kills cannot
    starve recovery from real faults.  After :data:`MAX_RETRIES` genuine
    failures, :class:`SupervisorError`.
    """

    def __init__(self, session: DetectionSession):
        self.session = session

    def run(self, resume: Optional[str] = LATEST) -> ReplayResult:
        """Drive the session to completion, surviving interruptions."""
        rec = self.session.recovery
        failures = 0
        while True:
            try:
                return self.session.run(resume=resume)
            except DetectorKilled:
                pass  # planned: retry without burning budget
            except CheckpointError as exc:
                last_exc = exc  # counted in bad_checkpoints by the session
                failures += 1
            except Exception as exc:  # noqa: BLE001 - retry any crash
                last_exc = exc
                rec["crashes"] += 1
                failures += 1
            if failures > MAX_RETRIES:
                raise SupervisorError(
                    f"giving up after {MAX_RETRIES} retries: {last_exc}"
                ) from last_exc
            if failures:
                rec["retries"] += 1
            resume = LATEST
