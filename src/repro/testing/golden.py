"""Golden-trace corpus: pinned traces + expected race reports.

The corpus under ``tests/golden/`` is the regression net for refactors
of :mod:`repro.core.detector`, :mod:`repro.core.groups` and
:mod:`repro.shadow`: small serialized traces, each with the racy
address set every pinned detector must reproduce exactly, the integer
counters of its ``statistics()`` (the counted work:
``checked_accesses``, ``vc_allocs``, ``groups_created``, ...), plus the
differential oracle's verdict.  ``verify`` replays each pinned detector
twice, per access and through the coalesced feed, and holds both runs
to the same pins, so batched dispatch cannot change a race or a count.
A change in counted work fails ``verify`` the way a changed race set
does, until ``regenerate`` re-pins it (from the per-access run).  Two
entry flavours:

* **full** — a whole (small-scale) workload trace, pinning end-to-end
  behaviour including the oracle's allowed-divergence classification;
* **shrunk** — the delta-debugging minimizer's output for a
  seeded-race workload, pinning the minimal reproducer of each race.

``regenerate`` rebuilds everything deterministically (fixed seeds, a
deterministic minimizer), so re-running it on an unchanged detector is
a no-op on the manifest; ``verify`` replays the stored traces and
reports every deviation from the pinned expectations.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

from repro.runtime.trace import Trace
from repro.runtime.vm import replay
from repro.detectors.registry import create_detector
from repro.testing.oracle import differential_check
from repro.testing.shrink import racy_at, shrink_trace
from repro.workloads.base import default_suppression
from repro.workloads.registry import get_workload

MANIFEST = "manifest.json"

#: Detectors whose racy address sets are pinned per corpus entry.
PINNED_DETECTORS = ("fasttrack-byte", "dynamic")


@dataclass(frozen=True)
class GoldenEntry:
    """One corpus member: how to rebuild it from scratch."""

    name: str
    workload: str
    scale: float
    seed: int
    shrunk: bool = False  # store the minimized reproducer, not the trace


#: Full small-scale traces: conformance pinned end to end (the third
#: one is race-free on purpose — zero stays zero).
#: Shrunk reproducers: one per seeded-race workload.
DEFAULT_ENTRIES = (
    GoldenEntry("full-ffmpeg", "ffmpeg", 0.2, 1),
    GoldenEntry("full-hmmsearch", "hmmsearch", 0.2, 1),
    GoldenEntry("full-pbzip2", "pbzip2", 0.2, 1),
    GoldenEntry("shrunk-ferret", "ferret", 0.2, 1, shrunk=True),
    GoldenEntry("shrunk-fluidanimate", "fluidanimate", 0.2, 1, shrunk=True),
    GoldenEntry("shrunk-raytrace", "raytrace", 0.2, 1, shrunk=True),
    GoldenEntry("shrunk-x264", "x264", 0.2, 1, shrunk=True),
    GoldenEntry("shrunk-canneal", "canneal", 0.2, 1, shrunk=True),
    GoldenEntry("shrunk-streamcluster", "streamcluster", 0.2, 1, shrunk=True),
    GoldenEntry("shrunk-ffmpeg", "ffmpeg", 0.2, 1, shrunk=True),
    GoldenEntry("shrunk-hmmsearch", "hmmsearch", 0.2, 1, shrunk=True),
)


def default_corpus_dir() -> str:
    """``tests/golden`` of the source checkout (fall back to the cwd)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    candidate = os.path.join(root, "tests", "golden")
    if os.path.isdir(candidate):
        return candidate
    return os.path.join("tests", "golden")


def _pinned_run(
    trace: Trace, detector: str, batched: bool = False
) -> Tuple[List[int], Dict[str, int]]:
    """Racy addresses and integer statistics counters of one replay."""
    result = replay(
        trace,
        create_detector(detector, suppress=default_suppression),
        batched=batched,
    )
    counters = {k: v for k, v in result.stats.items() if type(v) is int}
    return sorted({r.addr for r in result.races}), counters


def _entry_record(entry: GoldenEntry, trace: Trace, original_events: int) -> dict:
    record = {
        "workload": entry.workload,
        "scale": entry.scale,
        "seed": entry.seed,
        "shrunk": entry.shrunk,
        "events": len(trace),
        "original_events": original_events,
    }
    pinned = {d: _pinned_run(trace, d) for d in PINNED_DETECTORS}
    record["races"] = {d: addrs for d, (addrs, _) in pinned.items()}
    record["counters"] = {d: counters for d, (_, counters) in pinned.items()}
    oracle = differential_check(trace)
    record["oracle"] = {
        "divergences": oracle.by_classification(),
        "unexplained": len(oracle.unexplained),
    }
    return record


def build_entry(entry: GoldenEntry) -> "tuple[Trace, dict]":
    """Rebuild one entry's trace and manifest record from its recipe."""
    trace = get_workload(entry.workload).trace(
        scale=entry.scale, seed=entry.seed
    )
    original_events = len(trace)
    if entry.shrunk:
        target, _ = _pinned_run(trace, "fasttrack-byte")
        if not target:
            raise ValueError(
                f"{entry.name}: {entry.workload} has no race to shrink "
                f"at scale={entry.scale} seed={entry.seed}"
            )
        result = shrink_trace(trace, racy_at(target), name=entry.name)
        trace = result.minimized
    else:
        trace = trace.subset(range(len(trace)), name=entry.name)
    return trace, _entry_record(entry, trace, original_events)


def regenerate(
    corpus_dir: Optional[str] = None,
    entries=None,
) -> Dict[str, dict]:
    """(Re)build the corpus: one ``.npz`` per entry plus the manifest.

    Deterministic end to end, so regeneration with an unchanged
    detector leaves the manifest byte-identical (the idempotence the
    CLI tests pin).
    """
    corpus_dir = corpus_dir or default_corpus_dir()
    if entries is None:
        entries = DEFAULT_ENTRIES
    os.makedirs(corpus_dir, exist_ok=True)
    manifest: Dict[str, dict] = {}
    for entry in entries:
        trace, record = build_entry(entry)
        trace.save(os.path.join(corpus_dir, f"{entry.name}.npz"))
        manifest[entry.name] = record
    with open(os.path.join(corpus_dir, MANIFEST), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_manifest(corpus_dir: Optional[str] = None) -> Dict[str, dict]:
    corpus_dir = corpus_dir or default_corpus_dir()
    with open(os.path.join(corpus_dir, MANIFEST)) as fh:
        return json.load(fh)


def verify(corpus_dir: Optional[str] = None) -> List[str]:
    """Replay every corpus trace against its pinned expectations.

    Returns a list of human-readable problems; empty means the corpus
    is green (every detector, per access and batched, reproduces its
    pinned racy address set and counters, and the differential oracle
    still explains every divergence).
    """
    corpus_dir = corpus_dir or default_corpus_dir()
    problems: List[str] = []
    try:
        manifest = load_manifest(corpus_dir)
    except FileNotFoundError:
        return [f"no manifest at {os.path.join(corpus_dir, MANIFEST)}"]
    for name, record in sorted(manifest.items()):
        path = os.path.join(corpus_dir, f"{name}.npz")
        if not os.path.exists(path):
            problems.append(f"{name}: trace file missing ({path})")
            continue
        trace = Trace.load(path)
        if len(trace) != record["events"]:
            problems.append(
                f"{name}: {len(trace)} events on disk, "
                f"manifest says {record['events']}"
            )
        for (detector, expected), batched in product(
            sorted(record["races"].items()), (False, True)
        ):
            label = f"{detector} (batched)" if batched else detector
            got, counters = _pinned_run(trace, detector, batched)
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                problems.append(
                    f"{name}: {label} racy addresses changed "
                    f"(missing {[hex(a) for a in missing[:4]]}, "
                    f"extra {[hex(a) for a in extra[:4]]}; "
                    f"{len(got)} now vs {len(expected)} pinned)"
                )
            pinned = record.get("counters", {}).get(detector, {})
            changed = [
                f"{k} {pinned.get(k)} -> {counters.get(k)}"
                for k in sorted(set(pinned) | set(counters))
                if pinned.get(k) != counters.get(k)
            ]
            if changed:
                problems.append(
                    f"{name}: {label} counted work changed "
                    f"({', '.join(changed)})"
                )
        oracle = differential_check(trace)
        if len(oracle.unexplained) != record["oracle"]["unexplained"]:
            problems.append(
                f"{name}: oracle unexplained divergences "
                f"{len(oracle.unexplained)} vs pinned "
                f"{record['oracle']['unexplained']}"
            )
        elif oracle.unexplained:
            problems.append(
                f"{name}: corpus pins unexplained divergences — "
                "regenerate after fixing the detector"
            )
    return problems
