"""Crash-consistent detection: checkpoint/restore + supervised sessions.

The paper's detector targets long PARSEC-scale runs; the ROADMAP
north-star is a production system that survives heavy traffic.  This
package makes mid-replay death survivable: detector state is small and
structured (SmartTrack's argument for explicitly managed metadata), so
it is serialized wholesale into versioned, checksummed checkpoint files
and restored exactly — an interrupted-then-resumed run reports
byte-identical races and statistics to an uninterrupted one.

* :mod:`repro.recovery.checkpoint` — the file format: magic + JSON
  manifest (schema version, event cursor, trace digest, payload
  checksum) + zlib-compressed deterministic JSON state, written
  atomically, with typed :class:`CheckpointError` rejection of
  corrupt/mismatched files.
* :mod:`repro.recovery.session` — :class:`CheckpointedSession`, the one
  recovery core: detector construction, planned kills, checkpoints at
  feed boundaries, and restore from the newest good generation.
  :class:`DetectionSession` feeds it a trace (the service tenants feed
  it a stream), and :class:`Supervisor` retries a session after a
  planned kill, a crash or a refused checkpoint.
* :mod:`repro.recovery.watchdog` — the shared thread-safe
  monotonic-deadline timer behind the daemon's per-slice deadline: one
  monitor thread, cooperative :class:`Deadline` handles usable off the
  main thread.
"""

from repro.recovery.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    read_checkpoint,
    read_manifest,
    write_checkpoint,
)
from repro.recovery.session import (
    LATEST,
    CheckpointedSession,
    DetectionSession,
    DetectorKilled,
    RecoveryExhausted,
    Supervisor,
    SupervisorError,
)
from repro.recovery.watchdog import (
    Deadline,
    MonotonicWatchdog,
    shared_watchdog,
)

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "read_checkpoint",
    "read_manifest",
    "write_checkpoint",
    "LATEST",
    "CheckpointedSession",
    "DetectionSession",
    "DetectorKilled",
    "RecoveryExhausted",
    "Supervisor",
    "SupervisorError",
    "Deadline",
    "MonotonicWatchdog",
    "shared_watchdog",
]
