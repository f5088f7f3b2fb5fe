"""Tests for crash isolation and the shadow-location budget guard."""

import pytest

from repro.detectors.base import Detector, RaceReport
from repro.detectors.guards import (
    GuardedDetector,
    UnenforceableBudgetError,
    guard_detector,
)
from repro.detectors.registry import SAMPLER_NAMES, create_detector
from repro.recovery.checkpoint import wrap_detector
from repro.runtime.program import Program, ops
from repro.runtime.scheduler import Scheduler
from repro.runtime.vm import replay
from repro.workloads.registry import build_trace


class _CrashAfter(Detector):
    """Reports one race, then blows up on a later write."""

    name = "crash-after"

    def __init__(self, crash_at: int = 3):
        super().__init__()
        self.crash_at = crash_at
        self.writes = 0

    def on_write(self, tid, addr, size, site=0):
        self.writes += 1
        if self.writes == 2:
            self.report(RaceReport(addr=addr, kind="write-write", tid=tid,
                                   site=site, prev_tid=0))
        if self.writes >= self.crash_at:
            raise KeyError("shadow cell vanished")


def _racy_trace():
    def body():
        for i in range(4):
            yield ops.write(0x1000 + 4 * i, 4, site=1)

    return Scheduler(seed=0).run(Program.from_threads([body, body], name="w"))


def test_crash_is_captured_not_raised():
    trace = _racy_trace()
    det = GuardedDetector(_CrashAfter(crash_at=3))
    replay(trace, det)  # must not raise
    assert det.crashed
    assert det.crash.op == "on_write"
    assert det.crash.exc_type == "KeyError"
    assert det.crash.event_index > 0
    assert "shadow cell vanished" in det.crash.message
    assert det.crash.traceback  # full traceback retained for triage
    assert str(det.crash).startswith("crash-after crashed in on_write")


def test_pre_crash_races_survive():
    det = GuardedDetector(_CrashAfter(crash_at=3))
    replay(_racy_trace(), det)
    assert len(det.races) == 1  # reported at write 2, before the crash


def test_wrapper_goes_inert_after_crash():
    inner = _CrashAfter(crash_at=1)
    det = GuardedDetector(inner)
    replay(_racy_trace(), det)
    # only the crashing write reached the inner detector
    assert inner.writes == 1
    assert det.statistics()["guard"]["crashed"] is True


def test_crash_in_finish_is_captured():
    class FinishCrash(Detector):
        name = "finish-crash"

        def finish(self):
            raise RuntimeError("flush failed")

    det = GuardedDetector(FinishCrash())
    replay(_racy_trace(), det)
    assert det.crash is not None
    assert det.crash.op == "finish"


def test_no_budget_no_crash_is_transparent():
    trace = _racy_trace()
    plain = replay(trace, create_detector("fasttrack-byte")).races
    guarded = GuardedDetector(create_detector("fasttrack-byte"))
    replay(trace, guarded)
    assert guarded.races == plain
    assert not guarded.crashed
    assert guarded.name == "guarded(fasttrack-byte)"


def test_ample_budget_identical_races():
    """Acceptance: with an ample budget the guarded dynamic detector
    reports byte-identical races to the unwrapped one."""
    trace = build_trace("streamcluster", scale=0.2, seed=0)
    plain = replay(trace, create_detector("dynamic")).races
    det = GuardedDetector(create_detector("dynamic"), shadow_budget=1 << 20)
    replay(trace, det)
    assert det.races == plain
    guard = det.statistics()["guard"]
    assert guard["degradations"] == 0
    assert guard["peak_live_clocks"] > 0


def test_tight_budget_bounds_shadow_locations():
    """Acceptance: under a tight budget the live clock-group count ends
    at or below the budget, degradation stats are populated, and the
    detector's own invariants still hold."""
    budget = 64
    trace = build_trace("streamcluster", scale=0.2, seed=0)
    det = GuardedDetector(create_detector("dynamic"), shadow_budget=budget)
    replay(trace, det)
    assert not det.crashed
    assert det.inner.group_stats.live_clocks <= budget
    guard = det.statistics()["guard"]
    assert guard["degradations"] > 0
    assert (
        guard["forced_merges"]
        + guard["evicted_groups"]
        + guard["dropped_race_groups"]
    ) > 0
    det.inner.check_invariants()
    assert det.races, "degradation must not silence a racy workload"


def test_budget_ignored_for_non_group_detectors():
    det = GuardedDetector(create_detector("fasttrack-byte"), shadow_budget=4)
    replay(_racy_trace(), det)  # must not crash or degrade anything
    assert det.statistics()["guard"]["degradations"] == 0


@pytest.mark.parametrize("sampler", SAMPLER_NAMES)
def test_budget_over_a_sampler_is_refused(sampler):
    """A sampler hides the group managers the guard sheds, so a budget
    over it is refused, not silently ignored; without a budget the
    guard still wraps it for crash isolation."""
    assert issubclass(UnenforceableBudgetError, ValueError)
    for name in (sampler, f"{sampler}:dynamic"):
        for build in (
            lambda: GuardedDetector(create_detector(name), shadow_budget=32),
            lambda: guard_detector(name, shadow_budget=32),
            lambda: wrap_detector(create_detector(name), 32),
        ):
            with pytest.raises(UnenforceableBudgetError, match="cannot"):
                build()
        det = create_detector(name)
        assert wrap_detector(det, None) is det
        assert GuardedDetector(det).shadow_budget is None


def test_guard_detector_factory():
    det = guard_detector("dynamic", shadow_budget=128)
    assert isinstance(det, GuardedDetector)
    assert det.shadow_budget == 128


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        GuardedDetector(create_detector("dynamic"), shadow_budget=0)
    with pytest.raises(ValueError):
        GuardedDetector(create_detector("dynamic"), shadow_budget=8,
                        low_watermark=1.5)


def test_getattr_delegates_to_inner():
    det = GuardedDetector(create_detector("dynamic"))
    assert det.group_stats is det.inner.group_stats


class _CrashOnBatch(Detector):
    name = "crash-on-batch"

    def on_write_batch(self, tid, addr, size, width, site=0):
        raise RuntimeError("batch path exploded")


def test_crash_in_batch_callback_is_captured():
    # Batch callbacks go through _dispatch explicitly — a plain
    # __getattr__ passthrough would let the exception escape replay.
    det = GuardedDetector(_CrashOnBatch())
    det.on_write_batch(0, 0x100, 16, 4, site=1)
    assert det.crashed
    assert det.crash.op == "on_write_batch"
    assert det.crash.exc_type == "RuntimeError"


def test_batch_callbacks_forward_to_inner():
    inner = create_detector("fasttrack-byte")
    det = GuardedDetector(inner)
    det.on_fork(0, 1)
    det.on_write_batch(0, 0x100, 16, 4, site=1)
    det.on_read_batch(1, 0x100, 16, 4, site=2)
    assert not det.crashed
    assert inner.total_accesses == 8
    assert det.races  # write-read race surfaced through the wrapper


def test_dunder_probes_not_delegated_to_inner():
    # copy/pickle probe dunders like __deepcopy__ / __getstate__ via
    # getattr; delegating those to the inner detector (or recursing
    # before ``inner`` exists) broke both protocols.
    det = GuardedDetector(_CrashAfter())
    det.inner.__dict__["__marker__"] = 42
    with pytest.raises(AttributeError):
        getattr(det, "__marker__")
    assert det.crash_at == 3  # ordinary attributes still delegate


def test_uninitialized_wrapper_does_not_recurse():
    shell = GuardedDetector.__new__(GuardedDetector)
    with pytest.raises(AttributeError):
        shell.anything
    with pytest.raises(AttributeError):
        getattr(shell, "__deepcopy__")


def test_guarded_detector_is_copyable():
    import copy

    det = GuardedDetector(create_detector("dynamic"))
    replay(_racy_trace(), det)
    dup = copy.deepcopy(det)
    assert dup is not det
    assert dup.inner is not det.inner
    assert len(dup.races) == len(det.races)
