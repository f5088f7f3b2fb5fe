"""Codec roundtrip property: the binary trace form loses nothing.

For every registered workload and five schedule seeds, encoding a trace
to the canonical binlog (:mod:`repro.perf.binlog`) and decoding it back
must reproduce the trace exactly — events, name, thread count, heap
stats and fault records — and re-encoding the decoded trace must yield
the *byte-identical* blob (the property that makes ``Trace.digest()``,
now a hash of this blob, a stable identity for checkpoint manifests).

Traces with injected faults and deadlock partial traces (a kill inside
a critical section leaves the peer blocked forever; the scheduler
attaches the partial trace to the error) go through the same roundtrip:
the fault side table is canonical JSON, so blobs stay deterministic.
"""

import pytest

from repro.perf import binlog
from repro.runtime.faults import (
    FAULT_KINDS,
    KILL_THREAD,
    FaultPlan,
    FaultSpec,
)
from repro.runtime.program import Program, ops
from repro.runtime.scheduler import Scheduler, SchedulerError
from repro.runtime.trace import Trace
from repro.workloads.registry import build_trace, workload_names

SCALE = 0.08
SEEDS = range(5)

WORKLOADS = sorted(workload_names())


def _assert_roundtrip(trace: Trace) -> None:
    blob = trace.binlog()
    back = Trace.from_binlog(blob)
    assert back.events == trace.events
    assert back.name == trace.name
    assert back.n_threads == trace.n_threads
    assert back.heap_stats == trace.heap_stats
    assert back.faults == trace.faults
    # byte-identity on re-encode: the blob is canonical
    assert back.binlog() == blob
    assert back.digest() == trace.digest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_traces_roundtrip(workload):
    for seed in SEEDS:
        _assert_roundtrip(build_trace(workload, scale=SCALE, seed=seed))


def test_digest_is_hash_of_binlog():
    import hashlib

    trace = build_trace(WORKLOADS[0], scale=SCALE, seed=0)
    assert trace.digest() == hashlib.sha256(trace.binlog()).hexdigest()


def test_digest_loads_no_numpy():
    """The codec packs rows with the wire's ``struct``: hashing and
    decoding a trace in a fresh interpreter leave numpy unloaded."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "from repro.runtime.trace import Trace\n"
        "from repro.workloads.registry import build_trace\n"
        "trace = build_trace('ffmpeg', 0.1, 0)\n"
        "assert Trace.from_binlog(trace.binlog()).events == trace.events\n"
        "print(trace.digest(), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    digest = build_trace("ffmpeg", scale=0.1, seed=0).digest()
    assert proc.stdout.split() == [digest, "False"]


def test_digest_distinguishes_metadata():
    events = [(1, 0, 0x100, 4, 7)]
    a = Trace(events, name="a", n_threads=2)
    b = Trace(events, name="b", n_threads=2)
    c = Trace(events, name="a", n_threads=3)
    d = Trace(events, name="a", n_threads=2, heap_stats={"allocs": 1})
    digests = {t.digest() for t in (a, b, c, d)}
    assert len(digests) == 4


def test_empty_trace_roundtrips():
    _assert_roundtrip(Trace([], name="empty", n_threads=1))


def test_unicode_name_and_heap_roundtrip():
    trace = Trace(
        [(0, 1, 0x40, 8, 3)],
        name="träce-☃",
        n_threads=2,
        heap_stats={"allocs": 5, "frees": 3, "peak_bytes": 4096},
    )
    _assert_roundtrip(trace)


def _faulted_trace(seed: int) -> Trace:
    """A workload trace scheduled under an always-firing fault plan;
    deadlocks yield the partial trace (which carries the fault too)."""
    plan = FaultPlan.generate(
        seed, max_faults=3, kinds=FAULT_KINDS, horizon=400, always=True
    )
    sched = Scheduler(seed=seed, quantum=(16, 16))
    from repro.workloads.registry import get_workload

    program = get_workload("pbzip2").build(scale=0.05, seed=seed)
    try:
        return sched.run(program, faults=plan)
    except SchedulerError as err:
        partial = getattr(err, "partial_trace", None)
        assert partial is not None
        return partial


def test_faulted_traces_roundtrip():
    hit_fault = False
    for seed in range(8):
        trace = _faulted_trace(seed)
        hit_fault = hit_fault or bool(trace.faults)
        _assert_roundtrip(trace)
    assert hit_fault, "no seed produced an injected fault"


def _deadlock_partial_trace() -> Trace:
    def t1():
        yield ops.acquire(1)
        yield ops.write(0x100, 4)
        yield ops.release(1)

    def t2():
        yield ops.acquire(1)
        yield ops.write(0x100, 4)
        yield ops.release(1)

    # Events 0-1 are the main thread's FORKs; the fault at event 4
    # kills the first worker inside its critical section, so the peer
    # blocks forever and the scheduler raises with the partial trace.
    plan = FaultPlan([FaultSpec(KILL_THREAD, 4)])
    program = Program.from_threads([t1, t2], name="lock-pair")
    with pytest.raises(SchedulerError) as exc:
        Scheduler(seed=0, quantum=(16, 16)).run(program, faults=plan)
    partial = exc.value.partial_trace
    assert partial is not None
    return partial


def test_deadlock_partial_trace_roundtrips():
    partial = _deadlock_partial_trace()
    assert partial.faults and partial.faults[0]["kind"] == KILL_THREAD
    _assert_roundtrip(partial)


def test_decode_rejects_corruption():
    trace = build_trace(WORKLOADS[0], scale=SCALE, seed=0)
    blob = trace.binlog()
    with pytest.raises(binlog.BinlogError):
        binlog.decode_trace(b"XXXXXXXX" + blob[8:])
    with pytest.raises(binlog.BinlogError):
        binlog.decode_trace(blob[:-1])
    with pytest.raises(binlog.BinlogError):
        binlog.decode_trace(blob + b"\x00")
