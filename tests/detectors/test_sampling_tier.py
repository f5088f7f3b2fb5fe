"""Detector-generic sampling tier (ALGORITHM.md §14).

Pins the contracts the recall grid stands on:

* **Dispatch-mode identity** — every sampler at every rate produces the
  same races AND the same sampling statistics under batched and
  unbatched replay of the same golden trace (the wrappers expand
  coalesced runs back into per-access decisions).
* **Rate-1.0 universality** — a rate-1.0 sampler wrapped around *every*
  registry detector is byte-identical (races + inner statistics) to the
  bare inner, in both dispatch modes.
* **Lazy sampled-epoch timestamping** — enabling it never changes the
  detected races or inner statistics, while actually collapsing
  access-free epochs.
* **Check-only protocol** — ``check_access`` reports one-sided races
  without mutating shadow state, and never surfaces thread id −1.
* **Registry composition** — ``sampler:inner`` names construct, replay
  and snapshot/round-trip like first-class detectors.
"""

import os

import pytest

from repro.detectors.base import READ_WRITE, Detector
from repro.detectors.registry import (
    SAMPLER_NAMES,
    available_detectors,
    create_detector,
)
from repro.detectors.sampling import (
    LiteRaceDetector,
    O1SamplesDetector,
    PacerDetector,
)
from repro.runtime.trace import Trace
from repro.runtime.vm import dispatch_event, replay
from repro.testing.golden import default_corpus_dir, load_manifest
from repro.workloads.base import default_suppression

GOLDEN = sorted(load_manifest())
#: grid inners exercised by the heavier property sweeps
INNERS = ("fasttrack-byte", "fasttrack-word", "djit-byte", "dynamic")


def _load(name):
    return Trace.load(os.path.join(default_corpus_dir(), f"{name}.npz"))


def _race_keys(result):
    return [r.as_list() for r in result.races]


def _sampler_stats(stats):
    return {
        k: stats[k]
        for k in ("sampled_accesses", "skipped_accesses",
                  "check_only_accesses", "effective_rate")
    }


# ----------------------------------------------------------------------
# batched == unbatched for every sampler cell
# ----------------------------------------------------------------------

@pytest.mark.parametrize("inner", INNERS)
@pytest.mark.parametrize("sampler", SAMPLER_NAMES)
@pytest.mark.parametrize("rate", (0.1, 0.5, 1.0))
def test_batched_equals_unbatched(sampler, inner, rate):
    """A coalesced run of N accesses is N site executions and N
    sampling decisions — races and all statistics must be identical
    between dispatch modes on every golden trace."""
    for name in GOLDEN:
        trace = _load(name)
        runs = {}
        for batched in (False, True):
            det = create_detector(
                f"{sampler}:{inner}", rate=rate, suppress=default_suppression
            )
            runs[batched] = replay(trace, det, batched=batched)
        assert _race_keys(runs[True]) == _race_keys(runs[False]), (
            f"{sampler}:{inner}@{rate} races diverged on {name}"
        )
        assert runs[True].stats == runs[False].stats, (
            f"{sampler}:{inner}@{rate} stats diverged on {name}"
        )


# ----------------------------------------------------------------------
# rate 1.0 == bare inner, for every registry detector
# ----------------------------------------------------------------------

@pytest.mark.parametrize("inner", available_detectors())
def test_rate_one_identical_for_every_registry_detector(inner):
    """A rate-1.0 sampler forwards everything, so wrapping any registry
    detector must be invisible: identical races and inner statistics vs
    the bare unbatched inner, in both dispatch modes."""
    for name in GOLDEN:
        trace = _load(name)
        bare = replay(
            trace, create_detector(inner, suppress=default_suppression)
        )
        base_keys = _race_keys(bare)
        for sampler in SAMPLER_NAMES:
            for batched in (False, True):
                det = create_detector(
                    f"{sampler}:{inner}",
                    rate=1.0,
                    suppress=default_suppression,
                )
                res = replay(trace, det, batched=batched)
                label = f"{sampler}:{inner} batched={batched} on {name}"
                assert _race_keys(res) == base_keys, label
                assert det.skipped_accesses == 0, label
                assert det.check_only_accesses == 0, label
                assert det.lazy_timestamps is False, label
                # compare the wrapped inner directly (the merged stats
                # dict would shadow a sampler inner's own counters)
                assert det.inner.statistics() == bare.stats, label


# ----------------------------------------------------------------------
# lazy sampled-epoch timestamping
# ----------------------------------------------------------------------

@pytest.mark.parametrize("inner", INNERS)
@pytest.mark.parametrize("sampler", SAMPLER_NAMES)
def test_lazy_equals_eager(sampler, inner):
    """Deferring epoch increments to the next recorded access must not
    change a single race or inner statistic, at any sampling rate."""
    deferred_total = 0
    for name in GOLDEN:
        trace = _load(name)
        runs = {}
        for lazy in (False, True):
            det = create_detector(
                f"{sampler}:{inner}",
                rate=0.25,
                lazy_timestamps=lazy,
                suppress=default_suppression,
            )
            runs[lazy] = replay(trace, det)
        label = f"{sampler}:{inner} on {name}"
        assert _race_keys(runs[True]) == _race_keys(runs[False]), label
        eager = dict(runs[False].stats)
        lazy_stats = dict(runs[True].stats)
        deferred_total += lazy_stats.pop("deferred_epochs")
        assert eager.pop("deferred_epochs") == 0
        assert lazy_stats.pop("lazy_timestamps") is True
        assert eager.pop("lazy_timestamps") is False
        assert lazy_stats == eager, label
    # the sweep must have actually collapsed some empty epochs
    assert deferred_total > 0, f"{sampler}:{inner} never deferred"


def test_lazy_epochs_rejected_by_non_supporting_runtime():
    from repro.detectors.base import VectorClockRuntime

    # a VC runtime that didn't opt in refuses to go lazy (its access
    # paths never materialize pending epochs)
    with pytest.raises(ValueError):
        VectorClockRuntime().enable_lazy_epochs()
    # wrapping a non-supporting detector still works: the wrapper just
    # leaves lazy mode off
    wrapped = PacerDetector(rate=0.5, inner=create_detector("eraser"))
    assert wrapped.lazy_timestamps is False


# ----------------------------------------------------------------------
# LiteRace decay: bursts of *sampled* executions
# ----------------------------------------------------------------------

def test_literace_decay_counts_sampled_executions():
    """PLDI'09 §3.2: the period doubles after each burst of sampled
    executions.  With burst=2 the site samples executions 0,1 (period
    1), then decays to period 2 — so execution 2 is sampled, 3 is not,
    4 is (and completes the second burst -> period 4), ..."""
    det = LiteRaceDetector(floor_rate=0.25, burst=2, lazy_timestamps=False)
    taken = [det._sample(0, 0x10, site=7, is_write=False)
             for _ in range(12)]
    # period 1: execs 0,1 sampled (burst full -> period 2)
    # period 2: execs 2,4 sampled (burst full -> period 4, the floor)
    # period 4: execs 8 sampled ...
    assert taken == [True, True, True, False, True, False, False, False,
                     True, False, False, False]
    # the old (buggy) decay on *total* executions with burst=2 would
    # have doubled the period after execution 1, 3, 5 ... regardless of
    # how many were sampled, reaching the floor after 6 executions; the
    # sampled-execution clock needs 2 sampled accesses per doubling.
    assert det._sites[7][1] == sum(taken)  # sampled counter matches


# ----------------------------------------------------------------------
# check-only protocol
# ----------------------------------------------------------------------

@pytest.mark.parametrize("inner", INNERS)
def test_check_access_reports_one_sided_race(inner):
    det = create_detector(inner)
    assert det.supports_check_access
    det.on_fork(0, 1)
    det.on_write(0, 0x10, 1, site=1)
    det.check_access(1, 0x10, 1, site=2, is_write=True)
    assert len(det.races) == 1
    assert det.races[0].prev_tid == 0
    assert det.races[0].tid == 1


@pytest.mark.parametrize("inner", INNERS)
def test_check_access_does_not_record(inner):
    """A check-only access must leave no trace: a later conflicting
    access by a third thread races with the *recorded* write, and the
    checking thread's access itself is never discoverable."""
    det = create_detector(inner)
    det.on_fork(0, 1)
    det.on_fork(0, 2)
    det.on_write(0, 0x20, 1, site=1)
    # thread 1 checks a disjoint address: no race, and nothing recorded
    det.check_access(1, 0x40, 1, site=2, is_write=True)
    assert det.races == []
    # if the check had recorded anything at 0x40, this write by thread
    # 2 would race with thread 1; it must come up clean
    snap_before = det.snapshot_state()
    det2 = create_detector(inner)
    det2.restore_state(snap_before)
    det2.on_write(2, 0x40, 1, site=3)
    assert all(r.addr != 0x40 for r in det2.races)


@pytest.mark.parametrize("inner", INNERS)
def test_check_access_never_reports_tid_minus_one(inner):
    """Read-write check-only races must resolve the racing reader from
    the read clock — and suppress the report when no reader resolves —
    never surface prev tid −1."""
    det = create_detector(inner)
    det.on_fork(0, 1)
    det.on_read(0, 0x30, 1, site=1)
    det.check_access(1, 0x30, 1, site=2, is_write=True)
    assert len(det.races) == 1
    assert det.races[0].kind == READ_WRITE
    assert det.races[0].prev_tid == 0


def test_pacer_check_only_suppresses_unresolvable_reader():
    """If an inner's read clock cannot name the racing reader (an
    adversarial shadow state), the report is suppressed rather than
    emitted with prev tid −1."""

    class _StubClock:
        def leq(self, vc):
            return False

        def racing_tids(self, vc):
            return []

    class _StubRecord:
        wc = 0
        wt = 0
        w_site = 0
        r_site = 9
        r = _StubClock()

    det = create_detector("fasttrack-byte")
    det.on_fork(0, 1)
    det._table.set(0x50, _StubRecord())
    det.check_access(1, 0x50, 1, site=2, is_write=True)
    assert all(r.prev_tid >= 0 for r in det.races)
    assert det.races == []


def test_default_check_access_is_noop():
    det = Detector()
    det.check_access(0, 0x10, 4, site=1, is_write=True)
    assert det.races == []
    assert Detector.supports_check_access is False


def test_guard_and_timer_forward_check_access():
    from repro.detectors.guards import GuardedDetector

    det = GuardedDetector(create_detector("fasttrack-byte"))
    assert det.supports_check_access
    det.on_fork(0, 1)
    det.on_write(0, 0x10, 1, site=1)
    det.check_access(1, 0x10, 1, site=2, is_write=False)
    assert len(det.races) == 1


# ----------------------------------------------------------------------
# registry composition
# ----------------------------------------------------------------------

def test_colon_names_construct_and_name():
    det = create_detector("pacer:djit-byte", rate=0.5)
    assert isinstance(det, PacerDetector)
    assert det.name == "pacer:djit-byte"
    assert det.inner.name == "djit-byte"
    det = create_detector("o1:dynamic")
    assert isinstance(det, O1SamplesDetector)
    assert det.inner.name == "fasttrack-dynamic"
    stacked = create_detector("literace:pacer:fasttrack-word")
    assert isinstance(stacked, LiteRaceDetector)
    assert isinstance(stacked.inner, PacerDetector)


def test_colon_name_rejects_unknown_parts():
    with pytest.raises(ValueError):
        create_detector("nope:fasttrack-byte")
    with pytest.raises(ValueError):
        create_detector("pacer:nope")


def test_colon_name_rate_translation():
    lit = create_detector("literace:fasttrack-byte", rate=0.5)
    assert lit.floor_rate == 0.5
    o1 = create_detector("o1:fasttrack-byte", rate=0.2)
    assert o1.budget == 4
    o1_full = create_detector("o1:fasttrack-byte", rate=1.0)
    assert o1_full.budget is None


@pytest.mark.parametrize("name", ["pacer:djit-byte", "o1:dynamic",
                                  "literace:fasttrack-word"])
def test_colon_names_replay_and_roundtrip(name):
    trace = _load(GOLDEN[0])
    det = create_detector(name, rate=0.5, suppress=default_suppression)
    mid = len(trace) // 2
    for ev in trace.events[:mid]:
        dispatch_event(det, ev)
    snap = det.snapshot_state()
    twin = create_detector(name, rate=0.5, suppress=default_suppression)
    twin.restore_state(snap)
    for det2 in (det, twin):
        for ev in trace.events[mid:]:
            dispatch_event(det2, ev)
        det2.finish()
    assert _race_keys(det) == _race_keys(twin)
    assert det.statistics() == twin.statistics()


def test_o1_budget_refills_on_ownership_change():
    det = O1SamplesDetector(budget=2, bucket=8, lazy_timestamps=False)
    det.on_fork(0, 1)
    # thread 0 burns its budget on one bucket
    assert det._sample(0, 0x10, 0, False)
    assert det._sample(0, 0x11, 0, False)
    assert not det._sample(0, 0x12, 0, False)
    # another thread touches the bucket: new phase, budget refills
    assert det._sample(1, 0x13, 0, False)
    assert det.phase_changes == 1
    # ... and thread 0 coming back is again a fresh phase
    assert det._sample(0, 0x10, 0, False)
    assert det.phase_changes == 2


def test_o1_over_budget_accesses_are_check_only():
    det = O1SamplesDetector(budget=1, bucket=8)
    det.on_fork(0, 1)
    det.on_write(0, 0x10, 1, site=1)   # sampled (budget spent)
    det.on_write(1, 0x10, 1, site=2)   # ownership change: sampled, races
    det.on_write(1, 0x11, 1, site=3)   # over budget: check-only
    det.finish()
    assert len(det.races) == 1
    assert det.sampled_accesses == 2
    assert det.check_only_accesses == 1
