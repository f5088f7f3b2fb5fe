"""The entrypoints the repository benchmark (``perfbench/``) calls.

``perfbench/README.md`` lists the program surface the benchmark relies
on; the benchmark code stays fixed while the program changes.  These
tests call that surface the way the benchmark does, so a refactor that
breaks it fails here rather than silently in a benchmark run.
"""

import os

from repro.detectors.registry import create_detector
from repro.runtime.trace import Trace
from repro.runtime.vm import dispatch_event, replay
from repro.server.tenant import TenantSession
from repro.workloads.base import default_suppression
from repro.workloads.registry import get_workload

DETECTOR = "fasttrack-dynamic"
BATCH = 500


class _Proxy:
    """Instance-level callback overrides that count calls, in the shape
    of the benchmark's timing proxy; everything else is forwarded."""

    CALLBACKS = (
        "on_read", "on_write", "on_read_batch", "on_write_batch",
        "on_acquire", "on_release", "on_fork", "on_join", "on_alloc",
        "on_free",
    )

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0
        for meth in self.CALLBACKS:
            setattr(self, meth, self._counted(getattr(inner, meth)))
        self.finish = inner.finish

    def _counted(self, fn):
        def call(*args):
            self.calls += 1
            fn(*args)

        return call

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _events():
    trace = get_workload("streamcluster").trace(scale=0.2, seed=1)
    return [tuple(ev) for ev in trace.events]


def _local(events):
    """perfbench's local twin: ``dispatch_event`` per event, then finish."""
    det = create_detector(DETECTOR, suppress=default_suppression)
    for ev in events:
        dispatch_event(det, ev)
    det.finish()
    return {"races": [r.as_list() for r in det.races],
            "stats": det.statistics()}


def test_replay_result_fields():
    events = _events()
    want = _local(events)
    for batched in (False, True):
        proxy = _Proxy(create_detector(DETECTOR, suppress=default_suppression))
        trace = Trace(events)
        result = replay(trace, proxy, batched=batched)
        feed = trace.coalesced() if batched else events
        assert result.dispatched == len(feed) == proxy.calls
        assert [r.as_list() for r in result.races] == want["races"]
        if not batched:
            assert result.stats == want["stats"]


def test_tenant_session_surface(tmp_path):
    events = _events()
    proxies = []

    def factory(name):
        proxy = _Proxy(create_detector(name, suppress=default_suppression))
        proxies.append(proxy)
        return proxy

    session = TenantSession(
        "bench", DETECTOR, checkpoint_dir=str(tmp_path),
        suppress=default_suppression, detector_factory=factory,
    )
    streamed = []
    checkpoints = 0
    for start in range(0, len(events), BATCH):
        rows = events[start:start + BATCH]
        session.dispatch_chunk(rows)
        before = session.recovery["checkpoints_written"]
        session.commit_chunk(rows)
        streamed.extend(session.new_races())
        if session.recovery["checkpoints_written"] > before:
            checkpoints += 1
            assert os.path.getsize(session.checkpoints()[-1]) > 0
    result = session.finish()
    assert checkpoints >= 1
    assert len(proxies) == 1 and proxies[0].calls == len(events)
    assert [r.as_list() for r in streamed] == result["races"]
    want = _local(events)
    assert {"races": result["races"], "stats": result["stats"]} == want
