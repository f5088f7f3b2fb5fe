"""The paper's claims (Tables 1-6) and the extension studies, asserted
on quantities that repeat exactly.

Every assertion reads counts, modeled bytes or race reports; none
reads a clock.  The traces are built once per module, at a small scale
that keeps the whole module to about ten seconds, and each workload is
replayed unbatched through the three granularities once.

Where the paper compares speed, the comparison is made on counted
work, the quantity its Slowdown discussion attributes the gains to:

* byte/word FastTrack: ``checked_accesses + vc_allocs`` (unit-level
  checks plus vector-clock allocations);
* dynamic granularity: ``checked_accesses + groups_created + splits``
  (group-level checks plus sharing decisions).

``repro-race table N`` prints the same tables with wall-clock
slowdowns; perfbench times the pipeline.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import base_memory_of, detector_memory_of
from repro.analysis.tracestats import compute_stats
from repro.detectors.fasttrack import FastTrackDetector
from repro.detectors.registry import create_detector
from repro.detectors.sampling import LiteRaceDetector, PacerDetector
from repro.runtime.vm import replay
from repro.shadow.hash_table import ShadowTable
from repro.workloads.base import default_suppression
from repro.workloads.embedded import embedded_scenarios, get_scenario
from repro.workloads.registry import get_workload, workload_names

SCALE = 0.25
SEED = 1
BYTE, WORD, DYN = "fasttrack-byte", "fasttrack-word", "fasttrack-dynamic"
GRANULARITIES = (BYTE, WORD, DYN)


@pytest.fixture(scope="module")
def traces():
    return {
        w: get_workload(w).trace(scale=SCALE, seed=SEED)
        for w in workload_names()
    }


@pytest.fixture(scope="module")
def runs(traces):
    """(workload, detector) -> unbatched replay with library suppression."""
    return {
        (w, d): replay(trace, create_detector(d, suppress=default_suppression))
        for w, trace in traces.items()
        for d in GRANULARITIES
    }


def work(stats) -> int:
    """Counted detection work of one replay (see the module docstring)."""
    if "groups_created" in stats:
        return (
            stats["checked_accesses"] + stats["groups_created"] + stats["splits"]
        )
    return stats["checked_accesses"] + stats["vc_allocs"]


def mem_overhead(trace, result) -> float:
    base = base_memory_of(trace)
    return (base + detector_memory_of(result)) / base


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def race_addrs(result) -> set:
    return {r.addr for r in result.races}


def spearman(xs, ys) -> float:
    """Spearman's rank correlation (average ranks for ties)."""

    def ranks(vs):
        order = sorted(range(len(vs)), key=lambda i: vs[i])
        out = [0.0] * len(vs)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vs[order[j + 1]] == vs[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = mean(rx), mean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var_x = sum((a - mx) ** 2 for a in rx)
    var_y = sum((b - my) ** 2 for b in ry)
    return cov / (var_x * var_y) ** 0.5


def test_spearman_matches_textbook_values():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    # Ties take the average rank: ranks (0, 1.5, 1.5, 3) vs (0, 1, 2, 3).
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9487, abs=1e-4)


# ----------------------------------------------------------------------
# Table 1: overall results
# ----------------------------------------------------------------------

def test_every_replay_covers_the_whole_trace(traces, runs):
    for (w, _d), result in runs.items():
        assert result.events == len(traces[w])


def test_table1_dynamic_does_less_work_than_byte(runs):
    for w in workload_names():
        assert work(runs[(w, DYN)].stats) < work(runs[(w, BYTE)].stats), w
        assert (
            runs[(w, DYN)].stats["checked_accesses"]
            < runs[(w, BYTE)].stats["checked_accesses"]
        ), w


def test_table1_dynamic_uses_less_memory_than_byte(traces, runs):
    names = workload_names()
    avg_byte = mean(mem_overhead(traces[w], runs[(w, BYTE)]) for w in names)
    avg_dyn = mean(mem_overhead(traces[w], runs[(w, DYN)]) for w in names)
    assert avg_dyn < avg_byte


# ----------------------------------------------------------------------
# Table 2: memory overhead breakdown
# ----------------------------------------------------------------------

def _peak_total(runs, detector, part):
    return sum(
        runs[(w, detector)].stats["memory"]["peak"][part]
        for w in workload_names()
    )


def test_table2_dynamic_saves_4x_vector_clock_bytes(runs):
    assert 4 * _peak_total(runs, DYN, "vector_clock") < _peak_total(
        runs, BYTE, "vector_clock"
    )


def test_table2_indexing_byte_close_to_dynamic_word_smaller(runs):
    hash_byte = _peak_total(runs, BYTE, "hash")
    hash_dyn = _peak_total(runs, DYN, "hash")
    assert abs(hash_dyn - hash_byte) < 0.25 * hash_byte
    assert _peak_total(runs, WORD, "hash") < hash_byte


# ----------------------------------------------------------------------
# Table 3: maximum number of vector clocks + sharing factor
# ----------------------------------------------------------------------

def test_table3_dynamic_keeps_fewest_clocks(runs):
    for w in workload_names():
        assert (
            runs[(w, DYN)].stats["max_vectors"]
            <= runs[(w, BYTE)].stats["max_vectors"]
        ), w


def test_table3_whole_buffer_workloads_share_most(runs):
    pbzip2 = runs[("pbzip2", DYN)].stats["avg_sharing"]
    assert pbzip2 > 100
    assert runs[("canneal", DYN)].stats["avg_sharing"] < pbzip2


# ----------------------------------------------------------------------
# Table 4: same-epoch access percentages
# ----------------------------------------------------------------------

def _same_epoch(runs, w, detector):
    return runs[(w, detector)].stats["same_epoch_pct"]


def test_table4_dynamic_raises_same_epoch_rate(runs):
    names = workload_names()
    assert mean(_same_epoch(runs, w, DYN) for w in names) > mean(
        _same_epoch(runs, w, BYTE) for w in names
    )
    # streamcluster: the barrier-heavy scan makes the biggest jump...
    assert (
        _same_epoch(runs, "streamcluster", DYN)
        - _same_epoch(runs, "streamcluster", BYTE)
        > 10
    )
    # ...canneal stays flat: no locality to exploit.
    assert (
        abs(_same_epoch(runs, "canneal", DYN) - _same_epoch(runs, "canneal", BYTE))
        < 10
    )


# ----------------------------------------------------------------------
# Table 5: state-machine configurations
# ----------------------------------------------------------------------

def test_table5_sharing_at_init_and_the_init_state(traces, runs):
    mem_share = mem_no_share = false_alarms = 0
    for w, trace in traces.items():
        default = runs[(w, DYN)]
        no_share = replay(
            trace,
            create_detector(
                "dynamic", suppress=default_suppression, share_at_init=False
            ),
        )
        no_init = replay(
            trace,
            create_detector(
                "dynamic", suppress=default_suppression, init_state=False
            ),
        )
        mem_share += detector_memory_of(default)
        mem_no_share += detector_memory_of(no_share)
        # Its firm first-epoch groups only add alarms.
        assert no_init.race_count >= default.race_count, w
        false_alarms += len(race_addrs(no_init) - race_addrs(default))
    # Temporary sharing at Init never costs memory...
    assert mem_share <= mem_no_share
    # ...and a firm first-epoch decision false-alarms somewhere.
    assert false_alarms > 0


# ----------------------------------------------------------------------
# Table 6: DRD and Inspector stand-ins
# ----------------------------------------------------------------------

def test_table6_memory_and_library_races(traces, runs):
    insp_mem, dyn_mem = [], []
    for w, trace in traces.items():
        # The commercial tools run without the library suppressions.
        insp = replay(trace, create_detector("inspector"))
        insp_mem.append(mem_overhead(trace, insp))
        dyn_mem.append(mem_overhead(trace, runs[(w, DYN)]))
    assert mean(dyn_mem) < mean(insp_mem)
    # DRD sees the modeled pthread-library races on raytrace that the
    # dynamic tool suppresses.
    drd = replay(traces["raytrace"], create_detector("drd"))
    assert drd.race_count > runs[("raytrace", DYN)].race_count


@pytest.mark.parametrize("tool", ("drd", "inspector", "eraser", "djit-byte"))
def test_table6_every_tool_replays_every_event(traces, tool):
    for trace in traces.values():
        assert replay(trace, create_detector(tool)).events == len(trace)


# ----------------------------------------------------------------------
# access-pattern predictor of the dynamic-granularity win
# ----------------------------------------------------------------------

def test_access_pattern_predicts_the_work_ratio(traces, runs):
    names = workload_names()
    potential = {w: compute_stats(traces[w]).sharing_potential() for w in names}
    ratio = {
        w: work(runs[(w, BYTE)].stats) / max(work(runs[(w, DYN)].stats), 1)
        for w in names
    }
    rho = spearman([potential[w] for w in names], [ratio[w] for w in names])
    assert rho > 0.3, rho
    # canneal (no locality) gains less than pbzip2 (whole-block locality
    # plus churn).
    assert potential["canneal"] < potential["pbzip2"]
    assert ratio["canneal"] < ratio["pbzip2"]


# ----------------------------------------------------------------------
# dispatch compression
# ----------------------------------------------------------------------

#: Sequential-sweep workloads where coalescing must swallow at least
#: half the dispatch stream.
SWEEP_HEAVY = ("dedup", "ffmpeg", "pbzip2", "streamcluster")


def test_coalescing_shrinks_the_feed(traces):
    for w, trace in traces.items():
        ratio = len(trace.coalesced()) / len(trace.events)
        assert ratio <= 1.0, w
        if w in SWEEP_HEAVY:
            assert ratio <= 0.5, (w, ratio)


# ----------------------------------------------------------------------
# embedded firmware scenarios
# ----------------------------------------------------------------------

def test_firmware_races_at_byte_precision_with_fewer_clocks():
    for name in sorted(embedded_scenarios()):
        trace = get_scenario(name).trace(scale=1.0, seed=1)
        results = {d: replay(trace, create_detector(d)) for d in GRANULARITIES}
        for result in results.values():
            assert result.events == len(trace)
        byte, dyn = results[BYTE], results[DYN]
        assert byte.race_count > 0, name
        assert byte.race_count == dyn.race_count, name
        assert dyn.stats["max_vectors"] < byte.stats["max_vectors"], name


# ----------------------------------------------------------------------
# ablations: fixed-granularity sweep and the sharing heuristic
# ----------------------------------------------------------------------

def test_fixed_granularity_sweep_vs_dynamic(traces):
    races, clocks = {}, {}
    for w in ("facesim", "x264", "canneal"):
        trace = traces[w]
        dets = {f"fixed-{g}": FastTrackDetector(granularity=g) for g in (1, 2, 4, 8)}
        dets["dynamic"] = create_detector("dynamic")
        for label, det in dets.items():
            result = replay(trace, det)
            assert result.events == len(trace)
            races[(w, label)] = result.race_count
            clocks[(w, label)] = result.stats["max_vectors"]
    # x264: a wider fixed unit merges byte races; dynamic keeps them.
    assert races[("x264", "fixed-8")] < races[("x264", "fixed-1")]
    assert races[("x264", "dynamic")] >= races[("x264", "fixed-1")]
    # Dynamic keeps fewer clocks than even the coarsest fixed unit.
    for w in ("facesim", "x264"):
        assert clocks[(w, "dynamic")] < clocks[(w, "fixed-8")], w


@pytest.mark.parametrize("workload", ("facesim", "pbzip2", "canneal"))
def test_neighbor_scan_limit_sweep(traces, workload):
    for limit in (1, 8, 16, 64):
        result = replay(
            traces[workload],
            create_detector("dynamic", neighbor_scan_limit=limit),
        )
        assert result.stats["max_vectors"] > 0


def test_write_guided_read_sharing_stays_race_free(traces):
    for guided in (False, True):
        result = replay(
            traces["facesim"],
            create_detector("dynamic", guide_reads_by_writes=guided),
        )
        assert result.race_count == 0


def test_resharing_interval_runs(traces):
    for interval in (0, 1):
        result = replay(
            traces["fluidanimate"],
            create_detector("dynamic", resharing_interval=interval),
        )
        assert result.stats["max_vectors"] > 0


# ----------------------------------------------------------------------
# ablation: the Fig. 4 indexing structure
# ----------------------------------------------------------------------

@pytest.mark.parametrize("m", (32, 128, 512))
def test_index_entry_width_sweep(m):
    t = ShadowTable(m=m)
    for a in range(0x1000, 0x3000, 4):
        t.set(a, a)
    for a in range(0x1001, 0x2001, 16):  # trigger byte expansion
        t.set(a, a)
    hits = sum(1 for a in range(0x1000, 0x3000) if t.get(a) is not None)
    assert hits == 2048 + 256


def test_index_bulk_range_ops():
    t = ShadowTable()
    for base in range(0x10000, 0x20000, 0x400):
        t.set_range(base, base + 0x200, "g")
    probes = sum(
        1
        for base in range(0x10000, 0x20000, 0x400)
        if t.get_run(base, base + 8) is not None
    )
    assert probes == 64
    assert t.delete_range(0x10000, 0x10000) == 64 * 0x200


def test_index_word_only_entries_stay_small():
    t = ShadowTable(m=128)
    for a in range(0, 1 << 16, 4):
        t.set(a, a)
    assert t.slot_count == (1 << 16) // 128 * 32


# ----------------------------------------------------------------------
# sampling (paper §VI)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", ("x264", "canneal", "streamcluster"))
def test_sampled_detectors_only_miss(traces, workload):
    trace = traces[workload]
    full = race_addrs(replay(trace, FastTrackDetector()))
    for rate in (0.05, 0.25, 1.0):
        got = race_addrs(replay(trace, PacerDetector(rate=rate)))
        # Full-rate PACER is exactly FastTrack; sampled runs only miss.
        if rate == 1.0:
            assert got == full
        assert got <= full or not full
    for floor in (0.01, 0.25):
        result = replay(trace, LiteRaceDetector(floor_rate=floor))
        assert result.stats["effective_rate"] <= 1.0
