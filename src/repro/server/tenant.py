"""Per-tenant detection state: a streaming, checkpointed session.

Where :class:`~repro.recovery.session.DetectionSession` replays a trace
it can see end to end, a tenant session consumes an *open-ended* event
stream arriving over the wire.  The recovery contract is the same — a
session killed mid-stream and resumed from its latest checkpoint must
report races and statistics **byte-identical** to one that was never
interrupted — but the mechanics differ in one way: there is no trace to
re-read, so the session retains its own replay window.

The invariant that makes migration exact:

* Checkpoints are written only at *commit boundaries* — after a chunk
  of events has been fully dispatched and counted.  A checkpoint at
  cursor ``k`` is exactly the state an uninterrupted detector has after
  ``k`` events.
* The session keeps every committed event from the oldest retained
  checkpoint's cursor onward (the *tail*).  Resume = fresh detector +
  restore checkpoint at ``k`` + re-dispatch ``tail[k - tail_base:]``.
  Memory is bounded by ``keep_checkpoints * checkpoint_every`` events
  plus one in-flight chunk — the daemon's watermarks bound the rest.
* Chunk dispatch mutates only the detector object; counters, the tail
  and checkpoints move in :meth:`commit_chunk` *after* dispatch
  succeeds.  A wedged dispatch can therefore be abandoned wholesale
  (the daemon swaps in the resumed detector and the orphaned thread's
  half-fed instance is garbage), and a crashed chunk retries from an
  uncorrupted boundary.

Race streaming is monotone: :attr:`races_sent` counts reports already
pushed to the client; a resumed detector re-derives the same prefix
(determinism), so only genuinely new races are sent after a migration
and the client-visible stream is identical to the uninterrupted one.
"""

from __future__ import annotations

import os
import re
from typing import Callable, List, Optional

from repro.recovery.checkpoint import (
    CheckpointDir,
    CheckpointError,
    read_checkpoint,
    read_checkpoint_bytes,
    restore_detector,
    validate_manifest,
    wrap_detector,
    write_checkpoint,
)
from repro.recovery.session import DetectorKilled
from repro.runtime.vm import drive, handlers

#: Tenant ids must be filesystem- and log-safe.
TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class RecoveryExhausted(Exception):
    """No checkpoint generation (nor a cold restart) can resume this
    session: its state is unrecoverable and the tenant must restart."""


class TenantSession:
    """One tenant's detector, checkpoints and replay tail."""

    def __init__(
        self,
        tenant: str,
        detector: str = "fasttrack-byte",
        *,
        checkpoint_dir: str,
        checkpoint_every: int = 2000,
        shadow_budget: Optional[int] = None,
        suppress: Optional[Callable[[int], bool]] = None,
        kill_at: Optional[List[int]] = None,
        keep_checkpoints: int = 3,
        detector_factory: Optional[Callable[[str], object]] = None,
    ):
        if not TENANT_RE.match(tenant):
            raise ValueError(f"invalid tenant id {tenant!r}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if keep_checkpoints < 2:
            raise ValueError(
                f"keep_checkpoints must be >= 2, got {keep_checkpoints}"
            )
        self.tenant = tenant
        self.detector_name = detector
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.shadow_budget = shadow_budget
        self.suppress = suppress
        self.keep_checkpoints = keep_checkpoints
        self._factory = detector_factory or self._registry_factory
        #: sorted once-only detector-kill injection points (event index
        #: at which the next dispatch raises :class:`DetectorKilled`)
        self._kill_at = sorted(kill_at or [])
        self._digest = f"stream:{tenant}"
        self.det = self._make_detector()
        # Checkpoint compatibility is keyed on the unguarded detector
        # name, as in the recovery subsystem.
        self._label = (
            self.det.inner if shadow_budget is not None else self.det
        ).name
        self.events_done = 0
        self.races_sent = 0
        self.finished = False
        self._tail: List[tuple] = []
        self._tail_base = 0
        self._next_mark = checkpoint_every
        self._store = CheckpointDir(checkpoint_dir, keep_checkpoints)
        self.recovery = {
            "checkpoints_written": 0,
            "resumes": 0,
            "cold_restarts": 0,
            "last_resume_event": None,
            "kills_fired": 0,
            "wedges": 0,
            "crashes": 0,
            "retries": 0,
            "bad_checkpoints": 0,
            "reconnects": 0,
            "migrations": 0,
            "checkpoints_gced": 0,
            "shadow_budget": shadow_budget,
        }

    # ------------------------------------------------------------------
    # detector construction
    # ------------------------------------------------------------------
    def _registry_factory(self, name: str):
        from repro.detectors.registry import create_detector

        return create_detector(name, suppress=self.suppress)

    def _make_detector(self):
        inner = self._factory(self.detector_name)
        return wrap_detector(inner, self.shadow_budget)

    # ------------------------------------------------------------------
    # streaming ingest
    # ------------------------------------------------------------------
    def dispatch_chunk(self, rows: List[tuple]) -> None:
        """Feed ``rows`` to the detector.  Pure detector mutation — no
        counters move, so the caller may run this on an executor thread
        and abandon it on a watchdog wedge; :meth:`commit_chunk` is the
        loop-side second half.  Raises :class:`DetectorKilled` when an
        injected kill point is crossed (fires exactly once)."""
        stop = len(rows)
        if self._kill_at:
            stop = min(stop, max(self._kill_at[0] - self.events_done, 0))
        drive(rows, handlers(self.det), 0, stop)
        if stop < len(rows):
            at = self._kill_at.pop(0)
            self.recovery["kills_fired"] += 1
            raise DetectorKilled(at)

    def commit_chunk(self, rows: List[tuple]) -> None:
        """Count a fully-dispatched chunk and checkpoint at marks.

        Deliberately does *not* touch the race cursor: the daemon calls
        :meth:`new_races` only while a connection is attached, so races
        found while a session is parked are delivered on reattach."""
        self._tail.extend(rows)
        self.events_done += len(rows)
        if self.events_done >= self._next_mark:
            self.checkpoint_now()
            self._next_mark = (
                self.events_done // self.checkpoint_every + 1
            ) * self.checkpoint_every

    def new_races(self) -> List:
        """Races detected since the last call (monotone cursor — safe
        across migrations because a resumed detector re-derives the
        already-sent prefix identically)."""
        races = self.det.races
        fresh = list(races[self.races_sent :])
        self.races_sent = len(races)
        return fresh

    def finish(self) -> dict:
        """Finalize the detector and build the canonical RESULT body."""
        self.det.finish()
        self.finished = True
        stats = dict(self.det.statistics())
        return {
            "tenant": self.tenant,
            "detector": self.det.name,
            "events": self.events_done,
            "races": [r.as_list() for r in self.det.races],
            "stats": stats,
            "recovery": dict(self.recovery),
        }

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def checkpoints(self) -> List[str]:
        """Non-discarded checkpoint paths, oldest first."""
        return self._store.paths()

    def checkpoint_now(self) -> None:
        """Write a checkpoint at the current commit boundary (also the
        SIGTERM drain path), prune old generations, trim the tail."""
        write_checkpoint(
            self._store.path_for(self.events_done),
            self.det.snapshot_state(),
            detector=self._label,
            event_cursor=self.events_done,
            feed_cursor=self.events_done,
            trace_digest=self._digest,
            trace_name=f"tenant:{self.tenant}",
            batched=False,
            batch_span=None,
        )
        self.recovery["checkpoints_written"] += 1
        self.gc_checkpoints()
        self._trim_tail()

    def gc_checkpoints(self) -> int:
        """Keep only the newest ``keep_checkpoints`` generations (see
        :meth:`CheckpointDir.prune`); long streaming sessions would
        otherwise accumulate one file per checkpoint mark forever.
        Returns the number of files removed."""
        removed = self._store.prune()
        self.recovery["checkpoints_gced"] += removed
        return removed

    def _trim_tail(self) -> None:
        """Drop tail events older than the oldest retained checkpoint —
        resume can never need to rewind past it."""
        found = self.checkpoints()
        if not found:
            return
        oldest = CheckpointDir.cursor_of(found[0])
        if oldest > self._tail_base:
            del self._tail[: oldest - self._tail_base]
            self._tail_base = oldest

    def discard_checkpoint(self, path: str) -> None:
        self._store.discard(path)

    @property
    def tail_events(self) -> int:
        """Committed events currently retained for replay."""
        return len(self._tail)

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def resume(self) -> int:
        """Kill-and-resume: discard the (possibly corrupt, possibly
        still-being-mutated-by-an-abandoned-thread) detector, restore
        the newest good checkpoint into a fresh instance, and re-derive
        the committed suffix from the tail.

        Falls back through older generations on :class:`CheckpointError`
        and to a cold restart when the tail still reaches event 0;
        raises :class:`RecoveryExhausted` when nothing can rebuild the
        committed state.  Returns the cursor resumed from.
        """
        while True:
            found = self.checkpoints()
            if not found:
                if self._tail_base == 0:
                    det = self._make_detector()
                    drive(self._tail, handlers(det))
                    self.det = det
                    self.recovery["cold_restarts"] += 1
                    self.recovery["last_resume_event"] = 0
                    return 0
                raise RecoveryExhausted(
                    f"tenant {self.tenant}: no usable checkpoint and the "
                    f"replay tail starts at event {self._tail_base}"
                )
            path = found[-1]
            try:
                manifest, state = read_checkpoint(path)
                validate_manifest(
                    manifest,
                    path=path,
                    trace_digest=self._digest,
                    detector=self._label,
                    batched=False,
                    batch_span=None,
                )
            except CheckpointError:
                self.recovery["bad_checkpoints"] += 1
                self.discard_checkpoint(path)
                continue
            cursor = manifest["event_cursor"]
            if cursor < self._tail_base or cursor > self.events_done:
                # A checkpoint the tail can no longer bridge (stale dir
                # from a previous incarnation): useless, fall back.
                self.recovery["bad_checkpoints"] += 1
                self.discard_checkpoint(path)
                continue
            det = self._make_detector()
            restore_detector(det, state)
            drive(self._tail, handlers(det), cursor - self._tail_base)
            self.det = det
            self.recovery["resumes"] += 1
            self.recovery["last_resume_event"] = cursor
            return cursor

    # ------------------------------------------------------------------
    # cross-host migration (ALGORITHM.md §15)
    # ------------------------------------------------------------------
    def export_state(self) -> tuple:
        """Package this session for shipment to a peer daemon.

        Must be called at a commit boundary (the daemon quiesces and
        rolls back any dirty dispatch first).  Returns ``(header,
        ckpt_blob, tail_rows)``: the wire header (cursors + recovery
        counters), the newest checkpoint's exact file bytes, and the
        retained replay tail.  The checkpoint is written fresh at the
        current cursor, so the blob *is* the committed state and the
        importing host restores it byte-for-byte — the same file-level
        identity the single-host recovery contract rests on.
        """
        if self.finished:
            raise ValueError(f"tenant {self.tenant} already finished")
        self.checkpoint_now()
        path = self._store.path_for(self.events_done)
        with open(path, "rb") as fh:
            ckpt_blob = fh.read()
        header = {
            "tenant": self.tenant,
            "detector": self.detector_name,
            "events_done": self.events_done,
            "races_sent": self.races_sent,
            "tail_base": self._tail_base,
            "checkpoint_every": self.checkpoint_every,
            "shadow_budget": self.shadow_budget,
            "recovery": dict(self.recovery),
        }
        return header, ckpt_blob, list(self._tail)

    def adopt_import(self, header: dict, ckpt_blob: bytes, tail_rows) -> None:
        """Become the session a peer daemon exported.

        Verifies the shipped checkpoint image (checksum + manifest
        identity) *before* touching disk, lands it as this session's
        newest generation, restores through :meth:`resume`'s machinery
        (same validation path as a local kill-and-resume), then carries
        the exported race cursor and recovery counters over so the
        client-visible stream and the final RESULT body are
        byte-identical to a session that never moved hosts.
        """
        cursor = int(header["events_done"])
        tail_base = int(header["tail_base"])
        if cursor < 0 or tail_base < 0 or tail_base > cursor:
            raise ValueError(
                f"inconsistent migrate cursors: events_done={cursor} "
                f"tail_base={tail_base}"
            )
        if tail_base + len(tail_rows) < cursor:
            raise ValueError(
                f"replay tail ends at {tail_base + len(tail_rows)}, "
                f"before the exported cursor {cursor}"
            )
        manifest, _state = read_checkpoint_bytes(
            ckpt_blob, label=f"migrate:{self.tenant}"
        )
        validate_manifest(
            manifest,
            path=f"migrate:{self.tenant}",
            trace_digest=self._digest,
            detector=self._label,
            batched=False,
            batch_span=None,
        )
        if int(manifest["event_cursor"]) != cursor:
            raise ValueError(
                f"migrate checkpoint at cursor {manifest['event_cursor']}, "
                f"header says {cursor}"
            )
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        path = self._store.path_for(cursor)
        tmp = path + ".import"
        with open(tmp, "wb") as fh:
            fh.write(ckpt_blob)
        os.replace(tmp, path)
        self.events_done = cursor
        self._tail_base = tail_base
        self._tail = [tuple(ev) for ev in tail_rows]
        self._next_mark = (
            cursor // self.checkpoint_every + 1
        ) * self.checkpoint_every
        self.resume()
        self.races_sent = int(header["races_sent"])
        if len(self.det.races) < self.races_sent:
            raise ValueError(
                f"restored detector re-derived {len(self.det.races)} races, "
                f"but {self.races_sent} were already sent — the imported "
                f"state cannot continue the client's race stream"
            )
        carried = dict(header.get("recovery") or {})
        for key, value in carried.items():
            if key in self.recovery:
                self.recovery[key] = value
        self.recovery["migrations"] = (
            int(carried.get("migrations", 0) or 0) + 1
        )

    # ------------------------------------------------------------------
    # reattach (client reconnect after drop-connection)
    # ------------------------------------------------------------------
    def reattach(self) -> None:
        """Account a client reconnect to this live session.  The
        detector state is already current — the client just resumes
        streaming from :attr:`events_done` (told via WELCOME)."""
        self.recovery["reconnects"] += 1
