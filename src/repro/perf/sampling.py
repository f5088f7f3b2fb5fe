"""Sampling recall grid: {policy} × {rate} × {inner detector} scoring.

The samplers in :mod:`repro.detectors.sampling` trade detection for
speed — "reasonable detection rate with minimal overhead, but may miss
critical data races".  This module turns that sentence into numbers
over the frozen golden corpus, for *any* registry inner detector: per
golden trace and inner, the full (unsampled, unbatched) replay of the
inner defines the ground-truth race set, and every ``sampler:inner``
cell at every rate is scored by

* **recall** — fraction of ground-truth race addresses the sampled
  cell also reports (a sampler never invents races on these traces: it
  forwards a subset of accesses to the same inner detector, so
  precision stays 1.0 and ``extras`` below is an honesty counter, not
  a tuned metric);
* **effective rate** — fraction of memory accesses actually forwarded,
  with the exact ``sampled_accesses`` / ``skipped_accesses`` counts
  behind it: the analysis work a sampler saves, counted rather than
  timed (perfbench is the timed benchmark);
* **identity** — every rate-1.0 cell must be byte-identical to the
  bare inner (same race reports, same inner statistics).

Every cell is one deterministic replay, so the grid repeats exactly.
``repro-race sampling`` prints it, writes it as JSON and fails on an
identity failure or on a sub-1.0 (policy, rate) mean recall below
:data:`RECALL_FLOOR`; ``tests/perf/test_sampling_recall.py`` pins the
same two gates and the grid's shape.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.detectors.registry import create_detector
from repro.runtime.trace import Trace
from repro.runtime.vm import replay
from repro.testing.golden import default_corpus_dir, load_manifest
from repro.workloads.base import default_suppression

#: Schema tag of the ``repro-race sampling`` JSON.
SAMPLING_SCHEMA = "repro-race-sampling-recall/v3"

#: Registry names of the sampling policies under measurement.
SAMPLERS = ("literace", "pacer", "o1")

#: Inner detectors the grid scores every policy against: the paper's
#: two fixed FastTrack granularities, the DJIT+ precision oracle, and
#: the dynamic-granularity detector.
DEFAULT_INNERS = ("fasttrack-byte", "fasttrack-word", "djit-byte", "dynamic")

#: Sampling rates per cell; 1.0 is mandatory (the identity pin).
DEFAULT_RATES = (0.05, 0.25, 1.0)

#: Lowest mean recall a sub-1.0 (policy, rate) summary row may have.
RECALL_FLOOR = 0.6

#: Wrapper-only statistics keys: stripped before comparing a sampled
#: run's statistics against the bare inner's.
SAMPLER_STAT_KEYS = frozenset(
    {
        "sampled_accesses",
        "skipped_accesses",
        "check_only_accesses",
        "check_supported",
        "effective_rate",
        "lazy_timestamps",
        "deferred_epochs",
        "phase_changes",
    }
)


def _race_addrs(result) -> frozenset:
    return frozenset(r.addr for r in result.races)


def _race_keys(result) -> List[tuple]:
    return [
        (r.addr, r.kind, r.tid, r.site, r.prev_tid, r.prev_site, r.unit)
        for r in result.races
    ]


def _inner_stats(stats: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in stats.items() if k not in SAMPLER_STAT_KEYS}


def _replay(trace: Trace, name: str, **kwargs):
    det = create_detector(name, suppress=default_suppression, **kwargs)
    return replay(trace, det)


def grid_rows(corpus_dir: Optional[str] = None) -> List[Dict[str, object]]:
    """One row per (golden trace, inner, sampler, rate) cell."""
    corpus = corpus_dir or default_corpus_dir()
    rows: List[Dict[str, object]] = []
    for tname in sorted(load_manifest(corpus)):
        trace = Trace.load(os.path.join(corpus, f"{tname}.npz"))
        for inner in DEFAULT_INNERS:
            full = _replay(trace, inner)
            truth = _race_addrs(full)
            full_keys = _race_keys(full)
            full_stats = full.stats
            for sampler in SAMPLERS:
                for rate in DEFAULT_RATES:
                    res = _replay(trace, f"{sampler}:{inner}", rate=rate)
                    found = _race_addrs(res)
                    stats = res.stats
                    identical = None
                    if rate >= 1.0:
                        identical = (
                            _race_keys(res) == full_keys
                            and _inner_stats(stats) == full_stats
                        )
                    rows.append(
                        {
                            "trace": tname,
                            "inner": inner,
                            "sampler": sampler,
                            "rate": rate,
                            "events": len(trace),
                            "full_races": len(truth),
                            "found_races": len(found & truth),
                            "extras": len(found - truth),
                            "recall": (
                                len(found & truth) / len(truth)
                                if truth
                                else 1.0
                            ),
                            "effective_rate": stats.get(
                                "effective_rate", 1.0
                            ),
                            "sampled_accesses": stats.get(
                                "sampled_accesses", 0
                            ),
                            "skipped_accesses": stats.get(
                                "skipped_accesses", 0
                            ),
                            "check_only_accesses": stats.get(
                                "check_only_accesses", 0
                            ),
                            "check_supported": stats.get(
                                "check_supported", False
                            ),
                            "deferred_epochs": stats.get(
                                "deferred_epochs", 0
                            ),
                            "identical": identical,
                        }
                    )
    return rows


def summarize(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Per (sampler, rate) aggregates over every (trace, inner) cell
    (mean/min recall and mean effective rate), in order of first
    appearance."""
    order: List[Tuple[str, float]] = []
    grouped: Dict[Tuple[str, float], List[Dict[str, object]]] = {}
    for row in rows:
        key = (row["sampler"], row["rate"])
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(row)
    out: List[Dict[str, object]] = []
    for sampler, rate in order:
        group = grouped[(sampler, rate)]
        n = len(group)
        out.append(
            {
                "sampler": sampler,
                "rate": rate,
                "cells": n,
                "inners": len({r["inner"] for r in group}),
                "traces": len({r["trace"] for r in group}),
                "mean_recall": sum(r["recall"] for r in group) / n,
                "min_recall": min(r["recall"] for r in group),
                "mean_effective_rate": (
                    sum(r["effective_rate"] for r in group) / n
                ),
            }
        )
    return out


def identity_failures(
    rows: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Rate-1.0 cells that were not byte-identical to the bare inner."""
    return [
        {
            "trace": r["trace"],
            "inner": r["inner"],
            "sampler": r["sampler"],
        }
        for r in rows
        if r["identical"] is False
    ]


def floor_failures(
    summary: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Sub-1.0 (sampler, rate) summary rows whose mean recall is below
    :data:`RECALL_FLOOR`."""
    return [
        row
        for row in summary
        if row["rate"] < 1.0 and row["mean_recall"] < RECALL_FLOOR
    ]


def sampling_report(corpus_dir: Optional[str] = None) -> Dict[str, object]:
    """The ``repro-race sampling`` JSON body: rows, summary and gates."""
    rows = grid_rows(corpus_dir)
    summary = summarize(rows)
    failures = identity_failures(rows)
    low = floor_failures(summary)
    return {
        "schema": SAMPLING_SCHEMA,
        "samplers": list(SAMPLERS),
        "inners": list(DEFAULT_INNERS),
        "rates": list(DEFAULT_RATES),
        "rows": rows,
        "summary": summary,
        "identity": {
            "cells": sum(1 for r in rows if r["identical"] is not None),
            "failures": failures,
            "ok": not failures,
        },
        "recall_floor": {
            "floor": RECALL_FLOOR,
            "failures": low,
            "ok": not low,
        },
    }


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_report(report: Dict[str, object]) -> str:
    """Console summary: one line per (sampler, rate), then the gates."""
    lines: List[str] = []
    for srow in report["summary"]:
        lines.append(
            f"{srow['sampler']:8s}@{srow['rate']:.2f}: recall "
            f"{srow['mean_recall']:.3f} mean (min {srow['min_recall']:.2f}), "
            f"sampled {100.0 * srow['mean_effective_rate']:.1f}% "
            f"of accesses over {srow['cells']} cells "
            f"({srow['inners']} inners)"
        )
    ident = report["identity"]
    if ident["ok"]:
        lines.append(
            f"identity: all {ident['cells']} rate-1.0 cells "
            "byte-identical to the bare inner"
        )
    else:
        lines.append(
            f"identity: {len(ident['failures'])} of {ident['cells']} "
            "rate-1.0 cells DIVERGED from the bare inner: "
            + ", ".join(
                f"{f['sampler']}:{f['inner']}@{f['trace']}"
                for f in ident["failures"][:5]
            )
        )
    floor = report["recall_floor"]
    if floor["ok"]:
        lines.append(
            f"recall floor: every sub-1.0 mean recall >= {floor['floor']:.2f}"
        )
    for row in floor["failures"]:
        lines.append(
            f"recall floor: {row['sampler']}@{row['rate']:.2f} mean recall "
            f"{row['mean_recall']:.3f} below {floor['floor']:.2f}"
        )
    return "\n".join(lines)
