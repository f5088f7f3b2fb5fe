"""Tests for the embedded scenarios (the paper's motivating domain)."""

import pytest

from repro.detectors.registry import create_detector
from repro.runtime.scheduler import Scheduler
from repro.runtime.vm import replay
from repro.workloads.embedded import embedded_scenarios, get_scenario

SCENARIOS = sorted(embedded_scenarios())


def _races(name, detector="fasttrack-byte", seed=1, scale=1.0):
    trace = get_scenario(name).trace(scale=scale, seed=seed)
    return replay(trace, create_detector(detector)).races


def test_catalogue():
    assert SCENARIOS == ["logger-daemon", "packet-router", "sensor-fusion"]
    with pytest.raises(ValueError):
        get_scenario("toaster")


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenarios_schedule_deterministically(name):
    w = get_scenario(name)
    t1 = w.trace(scale=0.5, seed=3)
    t2 = w.trace(scale=0.5, seed=3)
    assert t1.events == t2.events
    assert t1.n_threads == w.threads


@pytest.mark.parametrize("name", SCENARIOS)
def test_seeded_race_found_by_byte_and_dynamic(name):
    byte = {r.addr for r in _races(name, "fasttrack-byte")}
    dyn = {r.addr for r in _races(name, "dynamic")}
    assert byte, f"{name}: the seeded race must manifest"
    assert byte == dyn


def test_sensor_fusion_race_is_the_gauge():
    races = _races("sensor-fusion")
    # exactly one 4-byte variable races: the fill-level gauge
    assert len({r.addr for r in races}) == 4
    lo = min(r.addr for r in races)
    assert {r.addr for r in races} == set(range(lo, lo + 4))
    # the racing reader is the telemetry thread (per-thread sites are
    # unavailable once the read clock inflates — a FastTrack reporting
    # limitation the paper's tool shares)
    telemetry_tid = 3
    assert all(
        telemetry_tid in (r.tid, r.prev_tid) for r in races
    )


def test_packet_router_race_is_the_status_byte():
    races = _races("packet-router")
    assert len({r.addr for r in races}) == 1  # a single flags byte
    sites = {r.site for r in races} | {r.prev_site for r in races}
    assert sites & {901, 902}


def test_packet_router_byte_precision_matters():
    """The semaphore-ordered packet hand-offs must never false-alarm —
    only the lock-free status byte races."""
    races = _races("packet-router", "fasttrack-byte")
    pool_races = [
        r for r in races
        if {r.site, r.prev_site} & {40, 41, 42, 43, 45, 51, 52, 53, 55, 61}
    ]
    assert pool_races == []


def test_logger_daemon_race_is_the_seqno():
    races = _races("logger-daemon")
    assert len({r.addr for r in races}) == 4
    kinds = {r.kind for r in races}
    assert kinds <= {"write-write", "write-read", "read-write"}


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenarios_under_pct_schedules(name):
    """The seeded races survive PCT scheduling too (different
    interleavings, same unordered pairs)."""
    w = get_scenario(name)
    trace = Scheduler(seed=2, policy="pct", depth=3).run(w.build(0.5, 2))
    result = replay(trace, create_detector("fasttrack-byte"))
    assert result.races
