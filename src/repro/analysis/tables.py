"""Regeneration of the paper's Tables 1-6.

Each ``tableN`` function returns a list of row dicts (one per
benchmark) with the same columns the paper reports; ``format_table``
renders any of them as aligned text, and ``repro-race table N`` prints
them.  The slowdown columns are wall-clock ratios and vary by machine;
``tests/analysis/test_paper_claims.py`` asserts the paper's claims on
the counted and modeled columns.  EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import Measurement, measure, measure_many
from repro.runtime.vm import bare_replay
from repro.workloads.registry import get_workload, workload_names

#: the three granularities of the paper's main comparison
GRANULARITY_DETECTORS = ("fasttrack-byte", "fasttrack-word", "fasttrack-dynamic")


def _index(rows: Sequence[Measurement]) -> Dict[tuple, Measurement]:
    return {(m.workload, m.detector): m for m in rows}


# ----------------------------------------------------------------------
# Table 1: overall results
# ----------------------------------------------------------------------
def table1(
    scale: float = 1.0,
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
    repeats: int = 1,
) -> List[dict]:
    """Slowdown, memory overhead and race counts per granularity."""
    names = list(workloads) if workloads is not None else workload_names()
    rows = measure_many(
        names, GRANULARITY_DETECTORS, scale=scale, seed=seed, repeats=repeats
    )
    idx = _index(rows)
    out = []
    for w in names:
        byte = idx[(w, "fasttrack-byte")]
        word = idx[(w, "fasttrack-word")]
        dyn = idx[(w, "fasttrack-dynamic")]
        out.append(
            {
                "program": w,
                "shared_accesses": byte.shared_accesses,
                "max_vectors_byte": byte.max_vectors,
                "threads": byte.threads,
                "base_time_s": round(byte.base_time, 4),
                "base_memory_mb": round(byte.base_memory / 2**20, 2),
                "slowdown_byte": round(byte.slowdown, 2),
                "slowdown_word": round(word.slowdown, 2),
                "slowdown_dynamic": round(dyn.slowdown, 2),
                "mem_overhead_byte": round(byte.memory_overhead, 2),
                "mem_overhead_word": round(word.memory_overhead, 2),
                "mem_overhead_dynamic": round(dyn.memory_overhead, 2),
                "races_byte": byte.races,
                "races_word": word.races,
                "races_dynamic": dyn.races,
            }
        )
    return out


# ----------------------------------------------------------------------
# Table 2: memory overhead breakdown
# ----------------------------------------------------------------------
def table2(
    scale: float = 1.0,
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
) -> List[dict]:
    """Hash / vector-clock / bitmap byte breakdown per granularity."""
    names = list(workloads) if workloads is not None else workload_names()
    rows = measure_many(names, GRANULARITY_DETECTORS, scale=scale, seed=seed)
    idx = _index(rows)
    out = []
    for w in names:
        row = {"program": w}
        for det, tag in (
            ("fasttrack-byte", "byte"),
            ("fasttrack-word", "word"),
            ("fasttrack-dynamic", "dynamic"),
        ):
            mem = idx[(w, det)].stats["memory"]["peak"]
            row[f"hash_{tag}"] = mem["hash"]
            row[f"vc_{tag}"] = mem["vector_clock"]
            row[f"bitmap_{tag}"] = mem["bitmap"]
            row[f"total_{tag}"] = idx[(w, det)].detector_memory
        out.append(row)
    return out


# ----------------------------------------------------------------------
# Table 3: maximum number of vector clocks + sharing factor
# ----------------------------------------------------------------------
def table3(
    scale: float = 1.0,
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
) -> List[dict]:
    """Peak live vector-clock counts and the dynamic sharing factor."""
    names = list(workloads) if workloads is not None else workload_names()
    rows = measure_many(names, GRANULARITY_DETECTORS, scale=scale, seed=seed)
    idx = _index(rows)
    out = []
    for w in names:
        dyn = idx[(w, "fasttrack-dynamic")]
        out.append(
            {
                "program": w,
                "max_vectors_byte": idx[(w, "fasttrack-byte")].max_vectors,
                "max_vectors_word": idx[(w, "fasttrack-word")].max_vectors,
                "max_vectors_dynamic": dyn.max_vectors,
                "avg_sharing_dynamic": round(
                    float(dyn.stats.get("avg_sharing", 0.0)), 1
                ),
            }
        )
    return out


# ----------------------------------------------------------------------
# Table 4: same-epoch access percentages vs slowdown
# ----------------------------------------------------------------------
def table4(
    scale: float = 1.0,
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
    repeats: int = 1,
) -> List[dict]:
    """Same-epoch % per granularity, with slowdowns for context."""
    names = list(workloads) if workloads is not None else workload_names()
    rows = measure_many(
        names, GRANULARITY_DETECTORS, scale=scale, seed=seed, repeats=repeats
    )
    idx = _index(rows)
    out = []
    for w in names:
        row = {"program": w}
        for det, tag in (
            ("fasttrack-byte", "byte"),
            ("fasttrack-word", "word"),
            ("fasttrack-dynamic", "dynamic"),
        ):
            m = idx[(w, det)]
            row[f"slowdown_{tag}"] = round(m.slowdown, 2)
            row[f"same_epoch_{tag}"] = round(m.same_epoch_pct or 0.0, 1)
        out.append(row)
    return out


# ----------------------------------------------------------------------
# Table 5: state-machine ablation
# ----------------------------------------------------------------------
def table5(
    scale: float = 1.0,
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
) -> List[dict]:
    """The paper's state-machine variants:

    * max memory without vs with temporary sharing at Init;
    * detected races without vs with the Init state (the "no Init"
      variant makes the first-epoch decision firm and false-alarms).
    """
    names = list(workloads) if workloads is not None else workload_names()
    out = []
    for w in names:
        trace = get_workload(w).trace(scale=scale, seed=seed)
        base_time = bare_replay(trace)
        default = measure(trace, "dynamic", base_time=base_time)
        no_share = measure(
            trace, "dynamic", base_time=base_time, share_at_init=False
        )
        no_init = measure(
            trace, "dynamic", base_time=base_time, init_state=False
        )
        out.append(
            {
                "program": w,
                "mem_no_sharing_at_init": no_share.detector_memory,
                "mem_sharing_at_init": default.detector_memory,
                "races_no_init_state": no_init.races,
                "races_with_init_state": default.races,
                "false_alarms_no_init": len(
                    no_init.race_addrs - default.race_addrs
                ),
            }
        )
    return out


# ----------------------------------------------------------------------
# Table 6: comparison with DRD and Inspector XE stand-ins
# ----------------------------------------------------------------------
def table6(
    scale: float = 1.0,
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
    repeats: int = 1,
) -> List[dict]:
    """Valgrind-DRD-style and Inspector-XE-style tools vs dynamic
    FastTrack.

    Per the paper's methodology the commercial tools run *without* the
    dynamic detector's library suppressions (DRD reported extra
    pthread-library races on raytrace that the dynamic tool
    suppressed).
    """
    names = list(workloads) if workloads is not None else workload_names()
    out = []
    for w in names:
        trace = get_workload(w).trace(scale=scale, seed=seed)
        base_time = bare_replay(trace)
        drd = measure(
            trace, "drd", base_time=base_time, suppress_libraries=False,
            repeats=repeats,
        )
        insp = measure(
            trace, "inspector", base_time=base_time,
            suppress_libraries=False, repeats=repeats,
        )
        dyn = measure(trace, "dynamic", base_time=base_time, repeats=repeats)
        out.append(
            {
                "program": w,
                "base_time_s": round(base_time, 4),
                "base_memory_mb": round(dyn.base_memory / 2**20, 2),
                "slowdown_drd": round(drd.slowdown, 2),
                "slowdown_inspector": round(insp.slowdown, 2),
                "slowdown_dynamic": round(dyn.slowdown, 2),
                "mem_overhead_drd": round(drd.memory_overhead, 2),
                "mem_overhead_inspector": round(insp.memory_overhead, 2),
                "mem_overhead_dynamic": round(dyn.memory_overhead, 2),
                "races_drd": drd.races,
                "races_inspector": insp.races,
                "races_dynamic": dyn.races,
            }
        )
    return out


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def format_table(rows: Sequence[dict], title: str = "") -> str:
    """Render row dicts as an aligned text table (plus an Average row
    for numeric columns, as the paper prints)."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    display = [[str(r.get(c, "")) for c in cols] for r in rows]
    # Average row over numeric columns.
    avg = []
    for c in cols:
        vals = [r[c] for r in rows if isinstance(r.get(c), (int, float))]
        if c == "program":
            avg.append("Average")
        elif len(vals) == len(rows) and vals:
            mean = sum(vals) / len(vals)
            avg.append(f"{mean:.2f}" if isinstance(mean, float) else str(mean))
        else:
            avg.append("")
    display.append(avg)
    widths = [
        max(len(c), *(len(row[i]) for row in display))
        for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in display:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
