"""Measurement harness: one (workload trace, detector) run → one row.

Reproduces the paper's measures:

* **slowdown** — instrumented replay time / bare replay time of the
  same trace (the paper uses instrumented native time / bare native
  time; ours is interpreter-on-interpreter, so absolute factors differ
  but the ordering between detectors is driven by per-event work).
* **memory overhead** — modeled detector bytes (object-size accounting,
  the paper's method) relative to the modeled footprint of the
  uninstrumented program.
* **same-epoch %, max vectors, avg sharing, race count** — read from
  detector statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.detectors.registry import create_detector
from repro.runtime.trace import Trace
from repro.runtime.vm import ReplayResult, bare_replay, replay
from repro.workloads.base import default_suppression
from repro.workloads.registry import get_workload

#: modeled resident size of the bare program image (code + libraries);
#: added to data footprint when computing overhead ratios.
BASE_IMAGE_BYTES = 1 << 20


@dataclass
class Measurement:
    """One (workload, detector) data point."""

    workload: str
    detector: str
    events: int
    threads: int
    shared_accesses: int
    base_time: float
    wall_time: float
    base_memory: int
    detector_memory: int
    races: int
    race_addrs: frozenset
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def slowdown(self) -> float:
        """Instrumented / bare replay time."""
        return self.wall_time / self.base_time if self.base_time > 0 else 0.0

    @property
    def memory_overhead(self) -> float:
        """(base + detector) / base memory, the paper's ratio."""
        if self.base_memory <= 0:
            return 0.0
        return (self.base_memory + self.detector_memory) / self.base_memory

    @property
    def same_epoch_pct(self) -> Optional[float]:
        v = self.stats.get("same_epoch_pct")
        return float(v) if v is not None else None

    @property
    def max_vectors(self) -> Optional[int]:
        v = self.stats.get("max_vectors")
        return int(v) if v is not None else None


def base_memory_of(trace: Trace) -> int:
    """Modeled peak memory of the uninstrumented program."""
    return (
        BASE_IMAGE_BYTES
        + trace.touched_addresses()
        + trace.heap_stats.get("peak_live_bytes", 0)
    )


def detector_memory_of(result) -> int:
    """Total modeled detector bytes from a replay result (0 for
    detectors without a memory model)."""
    mem = result.stats.get("memory")
    if not mem:
        return 0
    return int(mem["total_peak"])


def measure(
    trace: Trace,
    detector_name: str,
    base_time: Optional[float] = None,
    base_memory: Optional[int] = None,
    suppress_libraries: bool = True,
    repeats: int = 1,
    **detector_kwargs,
) -> Measurement:
    """Replay ``trace`` through a fresh detector and collect a row.

    ``repeats`` re-runs the replay on fresh detectors and keeps the
    minimum wall time (timing noise suppression; statistics come from
    the last run).
    """
    if base_time is None:
        base_time = min(bare_replay(trace) for _ in range(max(repeats, 1)))
    if base_memory is None:
        base_memory = base_memory_of(trace)
    suppress = default_suppression if suppress_libraries else None
    best = None
    for _ in range(max(repeats, 1)):
        det = create_detector(detector_name, suppress=suppress, **detector_kwargs)
        result = replay(trace, det)
        if best is None or result.wall_time < best.wall_time:
            best = result
    assert best is not None
    return measurement_of(trace, detector_name, best, base_time, base_memory)


def measurement_of(
    trace: Trace,
    detector_name: str,
    result: ReplayResult,
    base_time: Optional[float] = None,
    base_memory: Optional[int] = None,
) -> Measurement:
    """The row for ``result``, a finished :func:`replay` of ``trace``
    (one bare replay times the base when ``base_time`` is not given)."""
    if base_time is None:
        base_time = bare_replay(trace)
    if base_memory is None:
        base_memory = base_memory_of(trace)
    return Measurement(
        workload=trace.name,
        detector=detector_name,
        events=len(trace),
        threads=trace.n_threads,
        shared_accesses=trace.shared_accesses,
        base_time=base_time,
        wall_time=result.wall_time,
        base_memory=base_memory,
        detector_memory=detector_memory_of(result),
        races=result.race_count,
        race_addrs=frozenset(r.addr for r in result.races),
        stats=result.stats,
    )


def measure_many(
    workloads: Sequence[str],
    detectors: Sequence[str],
    scale: float = 1.0,
    seed: int = 0,
    suppress_libraries: bool = True,
    repeats: int = 1,
) -> List[Measurement]:
    """The full sweep behind Tables 1-4: every workload × detector.

    Each workload is scheduled once; every detector replays the same
    trace, so comparisons are interleaving-fair.
    """
    rows: List[Measurement] = []
    for wname in workloads:
        trace = get_workload(wname).trace(scale=scale, seed=seed)
        base_time = min(bare_replay(trace) for _ in range(max(repeats, 1)))
        base_memory = base_memory_of(trace)
        for dname in detectors:
            rows.append(
                measure(
                    trace,
                    dname,
                    base_time=base_time,
                    base_memory=base_memory,
                    suppress_libraries=suppress_libraries,
                    repeats=repeats,
                )
            )
    return rows
