"""Event traces: the unit of replay, comparison and serialization.

A trace is materialized once per (workload, seed) and replayed against
every detector under test, so all detectors see exactly the same
interleaving — the property that makes per-detector comparisons fair.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.runtime.events import ACQUIRE, ALLOC, FREE, JOIN, OP_NAMES, WRITE, Event


class Trace:
    """An ordered list of event tuples plus run metadata."""

    def __init__(
        self,
        events: List[tuple],
        name: str = "trace",
        n_threads: int = 1,
        heap_stats: Optional[Dict[str, int]] = None,
        faults: Optional[List[dict]] = None,
    ):
        self.events = events
        self.name = name
        self.n_threads = n_threads
        self.heap_stats = heap_stats or {}
        #: faults injected while this trace was scheduled (see
        #: :mod:`repro.runtime.faults`); empty for clean runs.
        self.faults = faults or []
        # The batched dispatch feed, built on first use (traces are
        # replayed many times — once per detector — so the one-pass
        # coalescing cost is paid once and amortized).
        self._coalesced: Optional[List[tuple]] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.events)

    def structured(self) -> Iterator[Event]:
        """Iterate events as named tuples (for display/debugging)."""
        for ev in self.events:
            yield Event(*ev)

    def coalesced(self) -> List[tuple]:
        """The batched dispatch feed: consecutive same-thread, same-op,
        same-site, address-adjacent accesses merged into single ranged
        events (see :mod:`repro.perf.batch`).  Cached."""
        if self._coalesced is None:
            from repro.perf.batch import coalesce_events

            self._coalesced = coalesce_events(self.events)
        return self._coalesced

    # ------------------------------------------------------------------
    def op_counts(self) -> Dict[str, int]:
        """Event count per operation name."""
        counts = [0] * len(OP_NAMES)
        for ev in self.events:
            counts[ev[0]] += 1
        return {OP_NAMES[i]: c for i, c in enumerate(counts) if c}

    @property
    def shared_accesses(self) -> int:
        """Total shared reads + writes (the paper's Table 1 column)."""
        n = 0
        for ev in self.events:
            if ev[0] <= WRITE:  # READ == 0, WRITE == 1
                n += 1
        return n

    @property
    def sync_ops(self) -> int:
        n = 0
        for ev in self.events:
            if ACQUIRE <= ev[0] <= JOIN:
                n += 1
        return n

    def touched_addresses(self) -> int:
        """Number of distinct bytes accessed (shadow-memory footprint)."""
        seen = set()
        for ev in self.events:
            if ev[0] <= WRITE:
                base, size = ev[2], ev[3]
                seen.update(range(base, base + size))
        return len(seen)

    # ------------------------------------------------------------------
    # slicing (delta-debugging / minimization support)
    # ------------------------------------------------------------------
    def subset(self, keep: Sequence[int], name: Optional[str] = None) -> "Trace":
        """A new trace containing only the events at ``keep`` (event
        indexes, in ascending order), preserving run metadata.

        Detectors replay partial traces fine (unknown threads get fresh
        clocks), so any subset is a valid minimization candidate.
        """
        events = [self.events[i] for i in keep]
        return Trace(
            events,
            name=name if name is not None else self.name,
            n_threads=self.n_threads,
            heap_stats=dict(self.heap_stats),
            faults=[dict(f) for f in self.faults],
        )

    def tids(self) -> Set[int]:
        """Thread ids that issued at least one event."""
        return {ev[1] for ev in self.events}

    def without_threads(self, drop: Set[int], name: Optional[str] = None) -> "Trace":
        """A new trace with every event of the ``drop`` threads removed."""
        keep = [i for i, ev in enumerate(self.events) if ev[1] not in drop]
        return self.subset(keep, name=name)

    def indices_touching(self, lo: int, hi: int) -> List[int]:
        """Indexes of memory events (accesses and heap ops) whose byte
        range intersects ``[lo, hi)``."""
        out = []
        for i, ev in enumerate(self.events):
            op = ev[0]
            if op <= WRITE or op == ALLOC or op == FREE:
                base, size = ev[2], ev[3]
                if base < hi and base + size > lo:
                    out.append(i)
        return out

    # ------------------------------------------------------------------
    # identity / binary form
    # ------------------------------------------------------------------
    def binlog(self) -> bytes:
        """The canonical binary encoding (:mod:`repro.perf.binlog`):
        fixed-width event records plus deterministic side tables for
        name, heap stats and faults.  Cached — traces are immutable once
        scheduled — and hashed by :meth:`digest`."""
        cached = getattr(self, "_binlog", None)
        if cached is None:
            from repro.perf.binlog import encode_trace

            cached = self._binlog = encode_trace(self)
        return cached

    @classmethod
    def from_binlog(cls, blob: bytes) -> "Trace":
        """Rebuild a trace from its canonical binary encoding."""
        from repro.perf.binlog import decode_trace

        return decode_trace(blob)

    def digest(self) -> str:
        """Content hash over the canonical binary form.

        Checkpoints record this so a resume against a *different* trace
        (same workload, different seed or scale) is refused instead of
        silently producing garbage.  Hashing :meth:`binlog` (rather than
        per-event ``repr``) makes the digest a commitment to the exact
        bytes the codec round-trips.
        Cached — traces are immutable once scheduled.
        """
        cached = getattr(self, "_digest", None)
        if cached is not None:
            return cached
        self._digest = hashlib.sha256(self.binlog()).hexdigest()
        return self._digest

    # ------------------------------------------------------------------
    # serialization (record/replay support)
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Serialize to a compressed ``.npz`` archive.

        The write is atomic (temp file in the target directory, then
        ``os.replace``): a process killed mid-write — the crash/resume
        scenario the recovery subsystem injects on purpose — can never
        leave a truncated archive at ``path``.  The temp file is passed
        as an open file object because ``savez_compressed`` appends
        ``.npz`` to bare string paths, which would break the rename.
        """
        import numpy as np

        arr = np.asarray(self.events, dtype=np.int64).reshape(-1, 5)
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(
                    fh,
                    events=arr,
                    name=np.asarray(self.name),
                    n_threads=np.asarray(self.n_threads),
                    heap_keys=np.asarray(list(self.heap_stats.keys())),
                    heap_vals=np.asarray(
                        list(self.heap_stats.values()), dtype=np.int64
                    )
                    if self.heap_stats
                    else np.zeros(0, dtype=np.int64),
                    faults=np.asarray(json.dumps(self.faults)),
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Load a trace previously written by :meth:`save`."""
        import numpy as np

        data = np.load(path, allow_pickle=False)
        events = [tuple(int(x) for x in row) for row in data["events"]]
        keys = [str(k) for k in data["heap_keys"]]
        vals = [int(v) for v in data["heap_vals"]]
        # Archives written before fault injection existed lack the key.
        faults = json.loads(str(data["faults"])) if "faults" in data else []
        return cls(
            events,
            name=str(data["name"]),
            n_threads=int(data["n_threads"]),
            heap_stats=dict(zip(keys, vals)),
            faults=faults,
        )

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}, events={len(self.events)}, "
            f"threads={self.n_threads})"
        )
