"""Unit tests for the replay VM."""

from repro.detectors import create_detector
from repro.runtime import Program, Scheduler, bare_replay, ops, replay, run_program


def _racy_program():
    def body():
        yield ops.write(0x1000, 4, site=1)

    return Program.from_threads([body, body], name="racy")


def test_replay_collects_races_and_stats():
    trace = Scheduler(seed=0).run(_racy_program())
    res = replay(trace, create_detector("fasttrack-byte"))
    assert res.race_count == 4
    assert res.events == len(trace)
    assert res.wall_time > 0
    assert res.detector_name == "fasttrack-byte"
    assert res.trace_name == "racy"
    assert "same_epoch_hits" in res.stats


def test_bare_replay_returns_positive_time():
    trace = Scheduler(seed=0).run(_racy_program())
    assert bare_replay(trace) > 0


def test_slowdown_ratio():
    trace = Scheduler(seed=0).run(_racy_program())
    res = replay(trace, create_detector("fasttrack-byte"))
    assert res.slowdown(res.wall_time) == 1.0
    assert res.slowdown(0.0) == float("inf")


def test_run_program_convenience():
    res = run_program(_racy_program(), create_detector("dynamic"), seed=1)
    assert res.race_count > 0


def test_all_event_kinds_dispatch():
    LOCK = 1

    def body():
        a = yield ops.alloc(32)
        yield ops.acquire(LOCK)
        yield ops.write(a, 4)
        yield ops.read(a, 4)
        yield ops.release(LOCK)
        yield ops.free(a, 32)

    res = run_program(
        Program.from_threads([body, body]), create_detector("fasttrack-byte")
    )
    assert res.race_count == 0


def test_bare_replay_dispatch_arity_matches_replay(monkeypatch):
    """Regression: bare_replay used to pass ACQUIRE/RELEASE with two
    operands while replay hands detectors three, skewing the slowdown
    baseline on sync-heavy traces.  Both loops must dispatch identical
    argument shapes per opcode."""
    from repro.runtime import vm

    def body():
        a = yield ops.alloc(32)
        yield ops.acquire(1)
        yield ops.write(a, 4)
        yield ops.read(a, 4)
        yield ops.release(1)
        yield ops.free(a, 32)

    trace = Scheduler(seed=0).run(Program.from_threads([body, body]))

    bare_calls = []
    monkeypatch.setattr(
        vm,
        "NULL_HANDLERS",
        (lambda *a: bare_calls.append(a),) * len(vm.NULL_HANDLERS),
    )
    vm.bare_replay(trace)

    replay_calls = []

    class Recorder:
        name = "recorder"
        races = []

        def statistics(self):
            return {}

        def finish(self):
            pass

        def __getattr__(self, attr):
            if attr.startswith("on_"):
                return lambda *a: replay_calls.append(a)
            raise AttributeError(attr)

    vm.replay(trace, Recorder())
    assert [len(a) for a in bare_calls] == [len(a) for a in replay_calls]


def _sweep_program():
    def body():
        for i in range(16):
            yield ops.write(0x1000 + 4 * i, 4, site=1)
        for i in range(16):
            yield ops.read(0x1000 + 4 * i, 4, site=2)

    return Program.from_threads([body], name="sweep")


def test_batched_replay_dispatches_fewer_callbacks():
    trace = Scheduler(seed=0).run(_sweep_program())
    plain = replay(trace, create_detector("fasttrack-byte"))
    batched = replay(trace, create_detector("fasttrack-byte"), batched=True)
    assert plain.dispatched == len(trace)
    assert batched.dispatched < plain.dispatched
    assert batched.events == plain.events  # original event count kept
    assert [r.addr for r in batched.races] == [r.addr for r in plain.races]


def test_coalesced_feed_is_cached():
    trace = Scheduler(seed=0).run(_sweep_program())
    assert trace.coalesced() is trace.coalesced()


def test_bare_replay_consumes_batched_feed():
    trace = Scheduler(seed=0).run(_sweep_program())
    assert bare_replay(trace, batched=True) > 0
