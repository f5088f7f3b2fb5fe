"""Perf-regression harness behind ``repro-race bench``.

Replays the embedded workloads across the granularity family and
measures, per (workload, detector):

* **events/sec** — original trace events divided by replay wall time,
  for both unbatched and batched dispatch (so the batching win shows
  up as a throughput ratio, not just a smaller callback count);
* **slowdown** — replay wall time over bare (no-detector) replay of
  the same feed, the paper's headline cost metric;
* **shadow stats** — same-epoch %, live locations and the modeled
  memory peak, read from ``statistics()``;
* **conformance** — batched and unbatched replay must produce
  byte-identical race reports; any divergence is recorded and turns
  the bench run into a failure.

The result dict serializes to ``BENCH_slowdown.json``; ``--quick``
keeps CI runs to a few seconds.  The timings are informational: the
only verdict is conformance, since absolute speed depends on the
machine.  perfbench (``perfbench/run.py``) is the timed benchmark; it
reports every figure as a ratio to reference work done in the same run.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.detectors.registry import create_detector
from repro.perf.batch import DEFAULT_BATCH_SPAN, batch_stats
from repro.runtime.trace import Trace
from repro.runtime.vm import bare_replay, replay
from repro.workloads.base import default_suppression
from repro.workloads.registry import get_workload, workload_names

SCHEMA = "repro-race-bench/v1"

#: The detectors whose cost curve the bench tracks: the paper's two
#: fixed granularities plus dynamic granularity.
DEFAULT_DETECTORS = ("fasttrack-byte", "fasttrack-word", "fasttrack-dynamic")

#: Quick mode: the two workloads with the strongest sequential-sweep
#: component (where batching must show) plus one low-compression
#: control.
QUICK_WORKLOADS = ("streamcluster", "pbzip2", "facesim")
QUICK_SCALE = 0.3
FULL_SCALE = 0.5


def _race_key(r) -> tuple:
    return (r.addr, r.kind, r.tid, r.site, r.prev_tid, r.prev_site, r.unit)


def _min_replay_pair(trace: Trace, detector_name: str, repeats: int):
    """Fresh-detector replays of both dispatch modes, interleaved
    (unbatched, batched, unbatched, ...) so machine-load drift hits
    both modes alike; keeps the fastest run of each."""
    best = {False: None, True: None}
    for _ in range(max(repeats, 1)):
        for batched in (False, True):
            det = create_detector(detector_name, suppress=default_suppression)
            result = replay(trace, det, batched=batched)
            if (
                best[batched] is None
                or result.wall_time < best[batched].wall_time
            ):
                best[batched] = result
    return best[False], best[True]


def _mode_row(result, events: int, bare_s: float) -> Dict[str, object]:
    wall = result.wall_time
    return {
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "slowdown": wall / bare_s if bare_s > 0 else 0.0,
        "dispatched": result.dispatched,
        "races": len(result.races),
    }


def _shadow_stats(stats: Dict[str, object]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key in ("locations", "same_epoch_pct", "max_vectors", "avg_sharing"):
        if key in stats:
            out[key] = stats[key]
    mem = stats.get("memory")
    if isinstance(mem, dict) and "total_peak" in mem:
        out["memory_total_peak"] = mem["total_peak"]
    return out


def run_bench(
    workloads: Optional[Sequence[str]] = None,
    detectors: Sequence[str] = DEFAULT_DETECTORS,
    scale: Optional[float] = None,
    seed: int = 1,
    repeats: int = 3,
    batch_span: Optional[int] = None,
    quick: bool = False,
    sampling: bool = False,
) -> Dict[str, object]:
    """The full bench sweep; returns the ``BENCH_slowdown.json`` dict.

    With ``sampling=True`` the sampling × detector recall grid
    (:mod:`repro.perf.sampling`) runs over the golden corpus — every
    sampling policy × rate × inner detector, with rate-1.0 cells pinned
    byte-identical to the bare inner — and its rows are embedded in the
    result (``quick`` shrinks the rate ladder).
    """
    if workloads is None:
        workloads = QUICK_WORKLOADS if quick else tuple(workload_names())
    if scale is None:
        scale = QUICK_SCALE if quick else FULL_SCALE
    span = DEFAULT_BATCH_SPAN if batch_span is None else batch_span

    divergences: List[Dict[str, object]] = []
    wl_rows: Dict[str, object] = {}
    for wname in workloads:
        trace = get_workload(wname).trace(scale=scale, seed=seed)
        events = len(trace)
        st = batch_stats(trace.events, trace.coalesced(span))
        bare_un = min(bare_replay(trace) for _ in range(max(repeats, 1)))
        bare_ba = min(
            bare_replay(trace, batched=True, batch_span=span)
            for _ in range(max(repeats, 1))
        )
        det_rows: Dict[str, object] = {}
        for dname in detectors:
            run_un, run_ba = _min_replay_pair(trace, dname, repeats)
            keys_un = [_race_key(r) for r in run_un.races]
            keys_ba = [_race_key(r) for r in run_ba.races]
            conforms = keys_un == keys_ba
            if not conforms:
                divergences.append(
                    {
                        "workload": wname,
                        "detector": dname,
                        "unbatched_races": len(keys_un),
                        "batched_races": len(keys_ba),
                        "only_unbatched": [
                            hex(k[0]) for k in sorted(set(keys_un) - set(keys_ba))
                        ][:10],
                        "only_batched": [
                            hex(k[0]) for k in sorted(set(keys_ba) - set(keys_un))
                        ][:10],
                    }
                )
            row_un = _mode_row(run_un, events, bare_un)
            row_ba = _mode_row(run_ba, events, bare_un)
            row_ba["speedup_vs_unbatched"] = (
                run_un.wall_time / run_ba.wall_time
                if run_ba.wall_time > 0
                else 0.0
            )
            det_row: Dict[str, object] = {
                "unbatched": row_un,
                "batched": row_ba,
                "conforms": conforms,
                "shadow": _shadow_stats(run_un.stats),
            }
            det_rows[dname] = det_row
        wl_rows[wname] = {
            "events": events,
            "shared_accesses": trace.shared_accesses,
            "threads": trace.n_threads,
            "dispatch": {
                "unbatched": st.events_in,
                "batched": st.events_out,
                "compression_pct": 100.0 * (1.0 - st.ratio),
            },
            "bare": {"unbatched_s": bare_un, "batched_s": bare_ba},
            "detectors": det_rows,
        }

    result: Dict[str, object] = {
        "schema": SCHEMA,
        "quick": quick,
        "config": {
            "workloads": list(workloads),
            "detectors": list(detectors),
            "scale": scale,
            "seed": seed,
            "repeats": repeats,
            "batch_span": span,
        },
        "workloads": wl_rows,
        "conformance": {
            "divergences": len(divergences),
            "details": divergences,
        },
    }
    if sampling:
        from repro.perf.sampling import sampling_report

        result["sampling"] = sampling_report(repeats=repeats, quick=quick)
    return result


def write_bench(result: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_bench(result: Dict[str, object]) -> str:
    """Console summary: one line per (workload, detector)."""
    lines: List[str] = []
    header = (
        f"{'workload':14s} {'detector':18s} {'events':>7s} "
        f"{'ev/s':>9s} {'ev/s(b)':>9s} {'x':>5s} "
        f"{'slow':>6s} {'slow(b)':>7s} ok"
    )
    lines.append(header)
    for wname, wrow in result["workloads"].items():
        comp = wrow["dispatch"]["compression_pct"]
        for dname, drow in wrow["detectors"].items():
            un, ba = drow["unbatched"], drow["batched"]
            lines.append(
                f"{wname:14s} {dname:18s} {wrow['events']:7d} "
                f"{un['events_per_sec']:9.0f} {ba['events_per_sec']:9.0f} "
                f"{ba['speedup_vs_unbatched']:5.2f} "
                f"{un['slowdown']:6.2f} {ba['slowdown']:7.2f} "
                f"{'yes' if drow['conforms'] else 'NO'}"
            )
        lines.append(f"{'':14s} (dispatch compression {comp:.1f}%)")
    sampling = result.get("sampling")
    if sampling:
        for srow in sampling["summary"]:
            lines.append(
                f"sampling {srow['sampler']:8s}@{srow['rate']:.2f}: recall "
                f"{srow['mean_recall']:.2f} mean "
                f"(min {srow['min_recall']:.2f}), "
                f"speedup {srow['mean_speedup']:.2f}x vs full inner, "
                f"sampled {100.0 * srow['mean_effective_rate']:.1f}% "
                f"of accesses over {srow['cells']} cells "
                f"({srow['inners']} inners)"
            )
        ident = sampling["identity"]
        if ident["ok"]:
            lines.append(
                f"sampling identity: all {ident['cells']} rate-1.0 cells "
                "byte-identical to the bare inner"
            )
        else:
            lines.append(
                f"sampling identity: {len(ident['failures'])} of "
                f"{ident['cells']} rate-1.0 cells DIVERGED from the bare "
                "inner: "
                + ", ".join(
                    f"{f['sampler']}:{f['inner']}@{f['trace']}"
                    for f in ident["failures"][:5]
                )
            )
    conf = result["conformance"]
    lines.append(
        "conformance: "
        + (
            "batched == unbatched on every run"
            if not conf["divergences"]
            else f"{conf['divergences']} DIVERGENCE(S)"
        )
    )
    return "\n".join(lines)
