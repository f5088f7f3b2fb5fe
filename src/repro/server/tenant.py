"""Per-tenant detection state: a streaming, checkpointed session.

A tenant session is the recovery core of
:class:`~repro.recovery.session.CheckpointedSession` fed an *open-ended*
event stream arriving over the wire.  The recovery contract is the one
the trace replay keeps — a session killed mid-stream and resumed from
its newest good checkpoint reports races and statistics
**byte-identical** to one that was never interrupted — but there is no
trace to re-read, so the session retains its own replay window.

The invariant that makes migration exact:

* Checkpoints are written only at *commit boundaries* — after a chunk
  of events has been fully dispatched and counted.  A checkpoint at
  cursor ``k`` is exactly the state an uninterrupted detector has after
  ``k`` events.
* The session keeps every committed event from the oldest retained
  checkpoint's cursor onward (the *tail*).  Resume = fresh detector +
  restore checkpoint at ``k`` + re-dispatch the tail from ``k``.
  Memory is bounded by ``keep_checkpoints * checkpoint_every`` events
  plus one in-flight chunk — the daemon's watermarks bound the rest.
* Chunk dispatch mutates only the detector object; counters, the tail
  and checkpoints move in :meth:`commit_chunk` *after* dispatch
  succeeds.  A wedged dispatch can therefore be abandoned wholesale
  (the daemon swaps in the resumed detector and the orphaned thread's
  half-fed instance is garbage), and a crashed chunk retries from an
  uncorrupted boundary.

What the core does not know lives here: the tail's growth, the race
cursor, cross-host export and import, and the RESULT body.  Race
streaming is monotone: :attr:`races_sent` counts reports already pushed
to the client; a resumed detector re-derives the same prefix
(determinism), so only genuinely new races are sent after a migration
and the client-visible stream is identical to the uninterrupted one.
"""

from __future__ import annotations

import os
import re
from typing import Callable, List, Optional

from repro.recovery.checkpoint import read_checkpoint_bytes
from repro.recovery.session import CheckpointedSession, RecoveryExhausted
from repro.runtime.vm import drive, handlers

__all__ = ["TENANT_RE", "RecoveryExhausted", "TenantSession"]

#: Tenant ids must be filesystem- and log-safe.
TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class TenantSession(CheckpointedSession):
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
        self.tenant = tenant
        self.detector_name = detector
        super().__init__(
            detector
            if detector_factory is None
            else (lambda: detector_factory(detector)),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            keep_checkpoints=keep_checkpoints,
            suppress=suppress,
            shadow_budget=shadow_budget,
            kills=kill_at,
            digest=f"stream:{tenant}",
            trace_name=f"tenant:{tenant}",
        )
        self._tail = []
        self.races_sent = 0
        self.finished = False
        self.recovery.update(wedges=0, reconnects=0, migrations=0)

    # ------------------------------------------------------------------
    # streaming ingest
    # ------------------------------------------------------------------
    def dispatch_chunk(self, rows: List[tuple]) -> None:
        """Feed ``rows`` to the detector now (:meth:`bind_chunk`, run at
        once).  Raises :class:`~repro.recovery.session.DetectorKilled`
        when an injected kill
        point is crossed (fires exactly once)."""
        self.bind_chunk(rows)()

    def bind_chunk(self, rows: List[tuple]) -> Callable[[], None]:
        """A dispatch of ``rows`` bound to the current detector and kill
        point.  Bind where the dispatch is scheduled: the returned call
        is pure detector mutation, so the caller may run it later on an
        executor thread and abandon it on a watchdog wedge, and a call
        that only starts after :meth:`resume` swapped the detector
        feeds the discarded one, never the restored live one.
        :meth:`commit_chunk` is the loop-side second half."""
        table = handlers(self.det)
        stop = len(rows)
        kill = self._pending_kill()
        if kill is not None:
            stop = min(stop, max(kill - self.events_done, 0))

        def run() -> None:
            drive(rows, table, 0, stop)
            if stop < len(rows):
                self._fire_kill()

        return run

    def commit_chunk(self, rows: List[tuple]) -> None:
        """Count a fully-dispatched chunk and checkpoint at marks.

        Deliberately does *not* touch the race cursor: the daemon calls
        :meth:`new_races` only while a connection is attached, so races
        found while a session is parked are delivered on reattach."""
        self._tail.extend(rows)
        self._commit(len(rows), len(rows))

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

    @property
    def tail_events(self) -> int:
        """Committed events currently retained for replay."""
        return len(self._tail)

    # ------------------------------------------------------------------
    # restart and reattach
    # ------------------------------------------------------------------
    def adopt(self) -> None:
        """Cross-restart resume: continue from the newest good
        checkpoint generation a drained predecessor left behind.  The
        client restreams from the cursor WELCOME reports, so the session
        may rewind to any generation; with none on disk it stays fresh."""
        if not self.checkpoints():
            return
        self._tail = None  # the client's journal is the replay window
        try:
            self.resume()
        finally:
            self._tail, self._tail_base = [], self.feed_done
        self.races_sent = len(self.det.races)
        self.recovery["resumes"] = 0  # adoption is not a kill

    def reattach(self) -> None:
        """Account a client reconnect to this live session.  The
        detector state is already current — the client just resumes
        streaming from :attr:`events_done` (told via WELCOME)."""
        self.recovery["reconnects"] += 1

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
        newest generation, restores through :meth:`resume` (the same
        path as a local kill-and-resume), then carries the exported race
        cursor and recovery counters over so the client-visible stream
        and the final RESULT body are byte-identical to a session that
        never moved hosts.
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
        label = f"migrate:{self.tenant}"
        manifest, _state = read_checkpoint_bytes(ckpt_blob, label=label)
        self._check_manifest(manifest, label)
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
        self._store.written(path)
        self.feed_done = self.events_done = cursor
        self._tail_base = tail_base
        self._tail = [tuple(ev) for ev in tail_rows[: cursor - tail_base]]
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
