"""Every dispatch path runs through the one feed driver and agrees.

One golden trace, replayed through each path that feeds a detector —
plain and batched replay, a resumable session killed mid-run and
resumed, a service tenant fed in chunks with a kill point, and the
budget guard — must report what an uninterrupted unbatched replay
reports.  Unbatched paths match on races and full statistics (less the
``recovery``/``guard`` blocks those paths add); batched paths match on
races, as the conformance suite pins, and a killed-and-resumed batched
session matches the uninterrupted batched replay on everything.
"""

import os

import pytest

from repro.detectors.guards import GuardedDetector
from repro.detectors.registry import create_detector
from repro.recovery.checkpoint import read_checkpoint, read_manifest
from repro.recovery.session import DetectionSession, DetectorKilled
from repro.runtime.trace import Trace
from repro.runtime.vm import replay
from repro.server.tenant import TenantSession
from repro.testing.golden import default_corpus_dir

GOLDEN = "full-ffmpeg"

#: registry name -> constructor kwargs (samplers at rate 1.0)
DETECTORS = {
    "fasttrack-byte": {},
    "dynamic": {},
    "pacer:fasttrack-byte": {"rate": 1.0},
    "literace:dynamic": {"rate": 1.0},
    "o1:fasttrack-byte": {"rate": 1.0},
}


@pytest.fixture(scope="module")
def trace():
    return Trace.load(os.path.join(default_corpus_dir(), f"{GOLDEN}.npz"))


def _factory(name):
    return lambda *_name: create_detector(name, **DETECTORS[name])


def _races(races):
    return [r.as_list() for r in races]


def _stats(stats):
    return {k: v for k, v in stats.items() if k not in ("recovery", "guard")}


def _killed_and_resumed(trace, factory, tmp_path, batched, budget=None):
    events = trace.coalesced() if batched else trace.events
    kill = len(trace) // 2
    session = DetectionSession(
        trace,
        factory,
        checkpoint_dir=str(tmp_path / f"session-{batched}"),
        checkpoint_every=max(len(trace) // 7, 1),
        batched=batched,
        shadow_budget=budget,
        kills=[kill],
    )
    with pytest.raises(DetectorKilled):
        session.run()
    result = session.run(resume="latest")
    assert result.stats["recovery"]["kills_fired"] == 1
    assert result.stats["recovery"]["resumes"] == 1
    assert result.dispatched == len(events)
    return result


def _tenant_killed_and_resumed(trace, name, factory, tmp_path, budget=None):
    """The trace streamed to a tenant in chunks, killed once midway and
    resumed; returns the RESULT body."""
    tenant = TenantSession(
        "identity",
        name,
        checkpoint_dir=str(tmp_path / "tenant"),
        checkpoint_every=300,
        shadow_budget=budget,
        kill_at=[len(trace) // 2],
        detector_factory=factory,
    )
    events = [tuple(ev) for ev in trace.events]
    kills = 0
    for start in range(0, len(events), 256):
        rows = events[start : start + 256]
        while True:
            try:
                tenant.dispatch_chunk(rows)
                break
            except DetectorKilled:
                kills += 1
                tenant.resume()
        tenant.commit_chunk(rows)
    assert kills == 1
    return tenant.finish()


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_unbatched_paths_match_replay(trace, name, tmp_path):
    want = replay(trace, _factory(name)())
    want_races, want_stats = _races(want.races), _stats(want.stats)

    resumed = _killed_and_resumed(
        trace, _factory(name), tmp_path, batched=False
    )
    assert _races(resumed.races) == want_races
    assert _stats(resumed.stats) == want_stats

    body = _tenant_killed_and_resumed(trace, name, _factory(name), tmp_path)
    assert body["races"] == want_races
    assert body["stats"] == want_stats

    guarded = replay(
        trace, GuardedDetector(_factory(name)(), shadow_budget=1 << 30)
    )
    assert guarded.stats["guard"]["degradations"] == 0
    assert _races(guarded.races) == want_races
    assert _stats(guarded.stats) == want_stats


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_batched_paths_match_replay(trace, name, tmp_path):
    plain = replay(trace, _factory(name)())
    batched = replay(trace, _factory(name)(), batched=True)
    assert _races(batched.races) == _races(plain.races)
    assert batched.events == plain.events
    assert batched.dispatched == len(trace.coalesced()) < plain.dispatched

    resumed = _killed_and_resumed(
        trace, _factory(name), tmp_path, batched=True
    )
    assert _races(resumed.races) == _races(batched.races)
    assert _stats(resumed.stats) == _stats(batched.stats)


def test_budget_guard_around_a_sampler_across_kill_and_resume(
    trace, tmp_path
):
    """A sampler is opaque to the budget guard: the guard cannot reach
    the sampled dynamic detector's clock groups through it, so a budget
    below the inner's peak leaves the sampler alone.  A session and a
    tenant killed and resumed under that budget equal the uninterrupted
    run, guard block included."""
    name = "literace:dynamic"
    budget = 32

    def factory(*_name):
        return create_detector(name, rate=0.05)

    sampler = factory()
    free = replay(trace, sampler)
    assert sampler.inner.group_stats.max_clocks > budget
    want = replay(trace, GuardedDetector(factory(), shadow_budget=budget))
    assert want.stats["guard"]["degradations"] == 0
    want_races = _races(want.races)
    assert want_races == _races(free.races)
    assert _stats(want.stats) == _stats(free.stats)
    want_stats = {k: v for k, v in want.stats.items() if k != "recovery"}

    resumed = _killed_and_resumed(
        trace, factory, tmp_path, batched=False, budget=budget
    )
    assert _races(resumed.races) == want_races
    assert {k: v for k, v in resumed.stats.items() if k != "recovery"} == (
        want_stats
    )

    body = _tenant_killed_and_resumed(
        trace, name, factory, tmp_path, budget=budget
    )
    assert body["races"] == want_races
    assert body["stats"] == want_stats


def _weight(ev):
    # a coalesced 6-tuple stands for size // width member accesses
    if len(ev) == 6 and ev[5] > 0:
        return ev[3] // ev[5]
    return 1


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("every", [41, 500])
def test_session_checkpoints_at_first_boundary_past_each_mark(
    trace, batched, every, tmp_path
):
    feed = trace.coalesced() if batched else trace.events
    expected = []
    done = 0
    mark = every
    for i, ev in enumerate(feed, start=1):
        done += _weight(ev)
        if done >= mark:
            expected.append((i, done))
            while mark <= done:
                mark += every
    assert expected

    session = DetectionSession(
        trace,
        "fasttrack-byte",
        checkpoint_dir=str(tmp_path),
        checkpoint_every=every,
        batched=batched,
        keep_checkpoints=len(expected) + 1,
    )
    session.run()
    written = sorted(
        (m["feed_cursor"], m["event_cursor"])
        for m in map(read_manifest, session.checkpoints())
    )
    assert written == expected
    assert session.recovery["checkpoints_written"] == len(expected)


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_trace_and_tenant_sessions_checkpoint_equal_states(
    trace, name, tmp_path
):
    """The trace session and a tenant fed the same golden in chunks run
    one recovery core: at every event cursor both checkpointed, the
    checkpointed detector states are equal."""
    every, chunk = 300, 120
    keep = len(trace) // every + 2
    session = DetectionSession(
        trace,
        _factory(name),
        checkpoint_dir=str(tmp_path / "session"),
        checkpoint_every=every,
        keep_checkpoints=keep,
    )
    session.run()
    tenant = TenantSession(
        "identity",
        name,
        checkpoint_dir=str(tmp_path / "tenant"),
        checkpoint_every=every,
        keep_checkpoints=keep,
        detector_factory=_factory(name),
    )
    events = [tuple(ev) for ev in trace.events]
    for start in range(0, len(events), chunk):
        rows = events[start : start + chunk]
        tenant.dispatch_chunk(rows)
        tenant.commit_chunk(rows)

    def states(s):
        found = {}
        for path in s.checkpoints():
            manifest, state = read_checkpoint(path)
            found[manifest["event_cursor"]] = state
        return found

    by_session, by_tenant = states(session), states(tenant)
    shared = sorted(set(by_session) & set(by_tenant))
    # chunk edges meet the marks at every multiple of 600
    assert shared == list(range(600, len(trace) + 1, 600))
    for cursor in shared:
        assert by_session[cursor] == by_tenant[cursor], cursor
