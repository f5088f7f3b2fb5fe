"""Trace-level access-pattern statistics.

The sharing heuristic rests on three observations (paper §III): spatial
locality of neighbouring accesses, wholesale initialization, and
one-epoch lifetimes.  This module measures those properties directly on
a trace — before running any detector — producing the features that
*predict* whether dynamic granularity will pay off
(``tests/analysis/test_paper_claims.py`` correlates them with the
counted-work ratio of byte to dynamic FastTrack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

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
from repro.runtime.trace import Trace

#: "adjacent" for the locality metric: within the default neighbour
#: scan limit of the dynamic detector
ADJACENCY_WINDOW = 16


@dataclass
class TraceStats:
    """Access-pattern features of one trace."""

    events: int
    accesses: int
    reads: int
    writes: int
    sync_ops: int
    epochs: int
    #: accesses / epochs — how much work each epoch amortizes
    accesses_per_epoch: float
    #: histogram of access widths in bytes
    width_histogram: Dict[int, int]
    #: fraction of accesses adjacent (within ADJACENCY_WINDOW bytes) to
    #: one of the same thread's recent same-kind access streams —
    #: observation 1
    spatial_locality: float
    #: fraction of accesses whose exact byte range was already accessed
    #: by the same thread in the same epoch — the bitmap's ceiling
    intra_epoch_reuse: float
    #: fraction of allocated bytes freed again (observation 3's churn)
    heap_churn: float
    #: distinct bytes touched
    footprint: int
    #: accesses / footprint — density of re-use over the address space
    touch_density: float

    def sharing_potential(self) -> float:
        """A 0-1 score for "dynamic granularity will help here".

        High spatial locality grows groups; high accesses-per-epoch and
        churn multiply the per-group savings.  Calibrated only to rank
        workloads (see bench_predictor), not to mean anything absolute.
        """
        locality = self.spatial_locality
        amortization = min(self.accesses_per_epoch / 64.0, 1.0)
        churn = min(self.heap_churn, 1.0)
        # Locality is necessary but saturates on most real patterns;
        # the discriminating factor is how much work each epoch gives a
        # group to amortize (canneal: high locality but one-swap epochs
        # -> no win), with churn as the dedup/pbzip2 bonus.
        return round(locality * (0.55 * amortization + 0.3) + 0.15 * churn, 3)


def compute_stats(trace: Trace) -> TraceStats:
    """Single pass over the trace collecting every feature."""
    reads = writes = syncs = 0
    epochs = 0
    widths: Dict[int, int] = {}
    # Recent access streams per (tid, kind): real code interleaves a few
    # sequential streams (points vs centres, input vs output buffers),
    # so adjacency is checked against the last few stream heads.
    streams: Dict[Tuple[int, int], list] = {}
    adjacent = 0
    # per-thread current-epoch access set (reset at release, as the
    # detectors' bitmaps are)
    epoch_seen: Dict[int, set] = {}
    reuse_hits = 0
    footprint = set()
    allocated = freed = 0

    for ev in trace.events:
        op, tid, addr, size = ev[0], ev[1], ev[2], ev[3]
        if op == READ or op == WRITE:
            if op == READ:
                reads += 1
            else:
                writes += 1
            widths[size] = widths.get(size, 0) + 1
            key = (tid, op)
            heads = streams.get(key)
            if heads is None:
                heads = streams[key] = []
            hit = -1
            for i, prev_end in enumerate(heads):
                if -ADJACENCY_WINDOW <= addr - prev_end <= ADJACENCY_WINDOW:
                    hit = i
                    break
            if hit >= 0:
                adjacent += 1
                heads[hit] = addr + size
            else:
                heads.append(addr + size)
                if len(heads) > 4:  # track at most 4 concurrent streams
                    heads.pop(0)
            seen = epoch_seen.setdefault(tid, set())
            span = (addr, size)
            if span in seen:
                reuse_hits += 1
            else:
                seen.add(span)
            footprint.update(range(addr, addr + size))
        elif op == RELEASE:
            syncs += 1
            epochs += 1
            epoch_seen.get(tid, set()).clear()
        elif op in (ACQUIRE, FORK, JOIN):
            syncs += 1
            if op == FORK:
                epochs += 1
        elif op == ALLOC:
            allocated += size
        elif op == FREE:
            freed += size

    accesses = reads + writes
    return TraceStats(
        events=len(trace),
        accesses=accesses,
        reads=reads,
        writes=writes,
        sync_ops=syncs,
        epochs=max(epochs, 1),
        accesses_per_epoch=accesses / max(epochs, 1),
        width_histogram=dict(sorted(widths.items())),
        spatial_locality=adjacent / accesses if accesses else 0.0,
        intra_epoch_reuse=reuse_hits / accesses if accesses else 0.0,
        heap_churn=freed / allocated if allocated else 0.0,
        footprint=len(footprint),
        touch_density=accesses / len(footprint) if footprint else 0.0,
    )


def format_stats(stats: TraceStats, name: str = "trace") -> str:
    """Human-readable report."""
    widths = ", ".join(
        f"{w}B:{n}" for w, n in stats.width_histogram.items()
    )
    return "\n".join(
        [
            f"access-pattern statistics for {name}:",
            f"  events {stats.events} "
            f"(reads {stats.reads}, writes {stats.writes}, "
            f"sync {stats.sync_ops})",
            f"  epochs {stats.epochs} "
            f"({stats.accesses_per_epoch:.1f} accesses/epoch)",
            f"  access widths: {widths}",
            f"  spatial locality {stats.spatial_locality:.0%} "
            f"(within {ADJACENCY_WINDOW}B of the previous access)",
            f"  intra-epoch reuse {stats.intra_epoch_reuse:.0%}",
            f"  heap churn {stats.heap_churn:.0%}, "
            f"footprint {stats.footprint} bytes, "
            f"density {stats.touch_density:.1f}",
            f"  sharing potential {stats.sharing_potential():.2f}",
        ]
    )
