"""Tests for the measurement harness."""

from repro.analysis.metrics import (
    Measurement,
    base_memory_of,
    measure,
    measure_many,
)
from repro.workloads.registry import get_workload


def _trace():
    return get_workload("hmmsearch").trace(scale=0.2, seed=1)


def test_measure_basic_fields():
    trace = _trace()
    m = measure(trace, "fasttrack-byte")
    assert m.workload == "hmmsearch"
    assert m.detector == "fasttrack-byte"
    assert m.events == len(trace)
    assert m.shared_accesses == trace.shared_accesses
    assert m.slowdown > 1.0
    assert m.memory_overhead > 1.0
    assert m.races >= 1


def test_base_memory_model_components():
    trace = _trace()
    base = base_memory_of(trace)
    assert base > 1 << 20  # at least the program image
    assert base >= trace.touched_addresses()


def test_measure_uses_provided_baselines():
    trace = _trace()
    m = measure(trace, "fasttrack-byte", base_time=1.0, base_memory=100)
    assert m.base_time == 1.0
    assert m.base_memory == 100
    assert m.slowdown == m.wall_time


def test_suppression_toggle_changes_raytrace_counts():
    trace = get_workload("raytrace").trace(scale=0.3, seed=1)
    with_sup = measure(trace, "fasttrack-byte", suppress_libraries=True)
    without = measure(trace, "fasttrack-byte", suppress_libraries=False)
    assert without.races > with_sup.races


def test_detector_kwargs_forwarded():
    trace = _trace()
    m = measure(trace, "dynamic", share_at_init=False)
    m2 = measure(trace, "dynamic")
    assert m.detector_memory >= m2.detector_memory


def test_measure_many_covers_grid():
    rows = measure_many(
        ["hmmsearch", "ffmpeg"], ["fasttrack-byte", "dynamic"], scale=0.2, seed=1
    )
    assert len(rows) == 4
    keys = {(m.workload, m.detector) for m in rows}
    assert ("ffmpeg", "dynamic") in keys
    # same trace per workload: identical shared access counts
    by_wl = {}
    for m in rows:
        by_wl.setdefault(m.workload, set()).add(m.shared_accesses)
    assert all(len(v) == 1 for v in by_wl.values())


def test_memory_overhead_zero_base():
    m = Measurement(
        workload="w", detector="d", events=1, threads=1, shared_accesses=1,
        base_time=0.0, wall_time=1.0, base_memory=0, detector_memory=10,
        races=0, race_addrs=frozenset(),
    )
    assert m.memory_overhead == 0.0
    assert m.slowdown == 0.0


def test_repeats_keep_minimum_time():
    trace = _trace()
    m = measure(trace, "fasttrack-byte", repeats=2)
    assert m.wall_time > 0
