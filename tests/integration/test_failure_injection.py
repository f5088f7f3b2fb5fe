"""Failure injection: malformed programs and hostile event streams."""

import pytest

from repro.detectors.registry import available_detectors, create_detector
from repro.runtime import Program, Scheduler, SchedulerError, ops, replay
from repro.runtime.memory import HeapError
from repro.runtime.sync import SyncError


def test_unlock_of_unheld_mutex_rejected():
    def main():
        yield ops.release(1)

    with pytest.raises(SyncError):
        Scheduler().run(Program(main))


def test_unlock_of_foreign_mutex_rejected():
    def holder():
        yield ops.acquire(1)
        yield ops.write(0x10, 4)
        yield ops.release(1)

    def thief():
        yield ops.release(1)

    with pytest.raises(SyncError):
        # Try seeds until the thief runs while the holder owns the lock.
        for seed in range(50):
            Scheduler(seed=seed).run(Program.from_threads([holder, thief]))


def test_recursive_acquire_rejected():
    def main():
        yield ops.acquire(1)
        yield ops.acquire(1)

    with pytest.raises(SyncError):
        Scheduler().run(Program(main))


def test_double_free_rejected():
    def main():
        a = yield ops.alloc(16)
        yield ops.free(a, 16)
        yield ops.free(a, 16)

    with pytest.raises(HeapError):
        Scheduler().run(Program(main))


def test_free_of_wild_pointer_rejected():
    def main():
        yield ops.free(0xDEAD, 16)

    with pytest.raises(HeapError):
        Scheduler().run(Program(main))


def test_sync_id_kind_confusion_rejected():
    def main():
        yield ops.acquire(1)
        yield ops.release(1)
        yield ops.sem_v(1)  # same id as the mutex

    with pytest.raises(SyncError):
        Scheduler().run(Program(main))


@pytest.mark.parametrize("name", available_detectors())
def test_detectors_tolerate_use_after_free_traces(name):
    """Detectors analyse whatever the trace says — an access to freed
    memory must not crash them (it just creates fresh shadow state)."""
    from repro.runtime.events import FREE, READ, WRITE

    trace_events = [
        (WRITE, 0, 0x5000, 8, 1),
        (FREE, 0, 0x5000, 64, 2),
        (READ, 0, 0x5000, 8, 3),  # use-after-free
        (WRITE, 0, 0x5000, 8, 4),
    ]
    from repro.runtime.trace import Trace

    det = create_detector(name)
    result = replay(Trace(trace_events, name="uaf"), det)
    assert result.events == 4


@pytest.mark.parametrize("name", available_detectors())
def test_detectors_tolerate_unseen_thread_ids(name):
    """Events from a thread with no preceding fork (partial traces)."""
    from repro.runtime.events import WRITE

    from repro.runtime.trace import Trace

    det = create_detector(name)
    result = replay(
        Trace([(WRITE, 5, 0x10, 4, 1), (WRITE, 9, 0x10, 4, 2)], name="p"),
        det,
    )
    # The two unseen threads are concurrent: a race must be reported by
    # the happens-before detectors.  Eraser only warns on its
    # SharedModified discipline.
    if name != "eraser":
        assert result.race_count > 0


def test_deadlocked_program_reports_not_hangs():
    A, B = 1, 2

    def t1():
        yield ops.acquire(A)
        yield ops.write(0x10, 4)
        yield ops.acquire(B)

    def t2():
        yield ops.acquire(B)
        yield ops.write(0x20, 4)
        yield ops.acquire(A)

    hit = False
    for seed in range(30):
        try:
            Scheduler(seed=seed, quantum=(1, 2)).run(
                Program.from_threads([t1, t2])
            )
        except SchedulerError as e:
            assert "deadlock" in str(e)
            hit = True
            break
    assert hit
