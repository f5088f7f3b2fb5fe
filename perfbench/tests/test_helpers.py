"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from spans import Tracer, percentile  # noqa: E402


class FakeClock:
    """Returns the queued readings in order."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


# -- percentile with its sample count ----------------------------------
def test_percentile_interpolates_between_ranks():
    q = percentile([4, 1, 3, 2], 50)
    assert q.value == 2.5
    assert q.samples == 4
    assert q.beyond == 2


def test_p95_of_200_samples_leaves_ten_beyond():
    q = percentile(list(range(1, 201)), 95)
    assert q.samples == 200
    assert q.beyond == 10
    assert q.value == pytest.approx(190.05)


def test_p95_of_too_few_samples_says_so():
    assert percentile(list(range(100)), 95).beyond == 5


def test_percentile_extremes_and_errors():
    assert percentile([5.0], 95).value == 5.0
    assert percentile([3, 9], 100).value == 9
    assert percentile([3, 9], 100).beyond == 0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


# -- span nesting ------------------------------------------------------
def test_spans_nest_under_the_open_span_and_inherit_its_request():
    tr = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5))
    with tr.span("outer", request="r1") as outer:
        with tr.span("inner") as inner:
            pass
        with tr.span("other", request="r2") as other:
            pass
    assert outer.parent is None
    assert inner.parent == outer.id and other.parent == outer.id
    assert inner.request == "r1"
    assert other.request == "r2"
    assert (outer.start, outer.end) == (0, 5)
    assert (inner.start, inner.end) == (1, 2)


def test_recorded_span_attaches_to_innermost_open_span():
    tr = Tracer(clock=FakeClock(0, 10))
    with tr.span("replay", request="call-1") as replay:
        cb = tr.record("detector.read", start=2.0, duration=3.0)
    assert cb.parent == replay.id
    assert cb.request == "call-1"
    assert cb.duration == 3.0
    top = tr.record("loose", start=0.0, duration=1.0)
    assert top.parent is None


def test_span_closes_when_the_body_raises():
    tr = Tracer(clock=FakeClock(0, 1, 2, 3))
    with pytest.raises(RuntimeError):
        with tr.span("boom"):
            raise RuntimeError("x")
    with tr.span("after") as after:
        pass
    assert tr.spans[0].end == 1
    assert after.parent is None


# -- self time ---------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] > mid [1, 7] > leaf [2, 5]; sibling [8, 9]
    tr = Tracer(clock=FakeClock(0, 1, 2, 5, 7, 8, 9, 10))
    with tr.span("outer"):
        with tr.span("mid"):
            with tr.span("leaf"):
                pass
        with tr.span("sibling"):
            pass
    selfs = tr.self_times()
    assert selfs == {"outer": 10 - 6 - 1, "mid": 6 - 3, "leaf": 3, "sibling": 1}


def test_self_time_sums_per_name_and_counts_aggregated_children():
    tr = Tracer(clock=FakeClock(0, 4, 10, 16))
    with tr.span("vm.replay"):
        tr.record("detector.read", 0, 1.5)
        tr.record("detector.write", 0, 0.5)
    with tr.span("vm.replay"):
        tr.record("detector.read", 10, 2.0)
    selfs = tr.self_times()
    assert selfs["vm.replay"] == pytest.approx((4 - 2.0) + (6 - 2.0))
    assert selfs["detector.read"] == pytest.approx(3.5)


def test_by_request_groups_named_spans():
    tr = Tracer(clock=FakeClock(0, 1, 3, 4, 5, 9, 10, 11, 15, 20))
    with tr.span("batch", request="a"):
        with tr.span("decode"):
            pass
        with tr.span("ignored"):
            pass
    with tr.span("batch", request="b"):
        with tr.span("decode"):
            pass
    assert tr.by_request(["decode"]) == {"a": 2, "b": 4}


def test_dump_writes_spans_and_counts(tmp_path):
    tr = Tracer(clock=FakeClock(0, 1))
    with tr.span("x", request="r"):
        tr.count("work", 3)
    out = tmp_path / "spans.json"
    tr.dump(str(out))
    data = json.loads(out.read_text())
    assert data["counts"] == {"work": 3}
    assert data["spans"][0]["name"] == "x"
    assert data["spans"][0]["request"] == "r"


# -- detector proxy ----------------------------------------------------
class _FakeDetector:
    name = "fake"

    def __init__(self):
        self.seen = []
        self.races = ["r"]

    def __getattr__(self, name):
        if name.startswith("on_"):
            return lambda *args: self.seen.append((name, args))
        raise AttributeError(name)

    def finish(self):
        self.seen.append(("finish", ()))


def test_proxy_forwards_calls_and_tallies_per_kind():
    from offline import DetectorProxy

    inner = _FakeDetector()
    proxy = DetectorProxy(inner, clock=FakeClock(*range(100)))
    proxy.on_read(1, 0x10, 4, 7)
    proxy.on_acquire(1, 3, 1)
    proxy.on_release(1, 3, 1)
    proxy.finish()
    assert inner.seen[0] == ("on_read", (1, 0x10, 4, 7))
    assert proxy.races == ["r"] and proxy.name == "fake"
    tr = Tracer(clock=FakeClock(0, 50))
    with tr.span("replay"):
        proxy.emit(tr, 0)
    assert tr.counts == {"detector.read_calls": 1, "detector.sync_calls": 2,
                         "detector.finish_calls": 1}
    assert tr.self_times()["detector.sync"] == 2
    assert not proxy.calls


# -- the benchmark's declared metrics ----------------------------------
def test_benchmark_json_matches_the_reported_metrics():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- the bare transport ------------------------------------------------
def test_frames_match_the_sealed_wire_sizes():
    import echo

    frames = echo.frames_for(1200, 500)
    assert [len(f) for f in frames] == [5 + 40 * 500 + 16] * 2 + [5 + 40 * 200 + 16]


def test_bare_transport_acks_every_frame():
    import re
    import subprocess

    import echo

    proc = subprocess.Popen([sys.executable, echo.__file__],
                            stdout=subprocess.PIPE, text=True)
    try:
        m = re.search(r"listening on ([0-9.]+):(\d+)", proc.stdout.readline())
        address = (m.group(1), int(m.group(2)))
        frames = echo.frames_for(1000, 250)
        wall, latencies = echo.stream_pair(address, [frames, frames])
        assert len(latencies) == 8
        assert wall > 0
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
