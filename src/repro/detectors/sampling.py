"""Sampling race detectors (paper §VI related work; ALGORITHM.md §14).

Three samplers from the literature the paper surveys, built as wrappers
around *any* full detector so their trade-off — "reasonable detection
rate with minimal overhead, but may miss critical data races" — can be
measured directly against the full inner on the same traces (the
sampling × detector recall grid in :mod:`repro.perf.sampling`).

* :class:`LiteRaceDetector` (Marino et al., PLDI'09): the *cold-region
  hypothesis* — rarely executed code is likelier to race.  Each static
  site starts fully sampled; its rate decays as the site's *sampled*
  executions accumulate, down to a floor.  Synchronization is always
  processed (clocks must stay exact), only memory accesses are sampled.

* :class:`PacerDetector` (Bond et al., PLDI'10): global sampling
  *periods* — a deterministic fraction ``rate`` of epochs is sampled;
  within a sampled period accesses are fully processed, outside it
  reads/writes are still *checked* against existing shadow state via
  the inner's :meth:`Detector.check_access` but not recorded, giving
  detection probability roughly proportional to the rate.

* :class:`O1SamplesDetector` (after "Dynamic Race Detection With O(1)
  Samples"): a constant per-location sample budget — the first few
  accesses of each ownership phase of a location are recorded, the
  rest are check-only.  The budget refills whenever the accessing
  thread changes (a new sharing phase can race; a long single-owner
  run cannot add new interleavings), so shadow recording work is O(1)
  per location phase regardless of how hot the location is.

As policy wrappers (``transparent = False``) all three see a coalesced
run as its member accesses (``DetectorWrapper``), so sampling
decisions — and therefore races and statistics — are identical between
``replay(batched=True)`` and unbatched replay of the same trace.

When the inner detector opts in (``supports_lazy_epochs``), the
wrapper also enables lazy sampled-epoch timestamping: epoch increments
at release/fork are deferred until the thread's next *recorded*
access, so consecutive epochs that record nothing collapse into one
clock advance and clock maintenance is bounded by sampled events, not
trace length.  Lazy mode is skipped at rate 1.0 (every epoch records,
so there is nothing to defer and the wrapper stays byte-identical to
the bare inner).

Sampling decisions are deterministic (site/epoch/ownership counters),
so runs are reproducible like everything else in this codebase.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.detectors.base import Detector, DetectorWrapper
from repro.detectors.fasttrack import FastTrackDetector


class _SamplingBase(DetectorWrapper):
    """Wraps an inner detector; subclasses decide which memory accesses
    to record via :meth:`_sample`.  Synchronization, heap and
    check-only callbacks pass through to the inner unchanged, so its
    clocks stay exact.

    Skipped accesses are still race-checked against recorded history
    when the class sets ``check_on_skip`` and the inner implements the
    check-only protocol (``supports_check_access``).
    """

    #: run the inner's check-only path on skipped accesses
    check_on_skip = False

    transparent = False

    def __init__(self, inner: Optional[Detector] = None,
                 suppress: Optional[Callable[[int], bool]] = None,
                 lazy_timestamps: bool = True):
        super().__init__(
            inner if inner is not None
            else FastTrackDetector(granularity=1, suppress=suppress)
        )
        self.sampled_accesses = 0
        self.skipped_accesses = 0
        self.check_only_accesses = 0
        self._check = bool(self.check_on_skip and self.supports_check_access)
        self.lazy_timestamps = bool(
            lazy_timestamps
            and not self._always_samples()
            and getattr(self.inner, "supports_lazy_epochs", False)
        )
        if self.lazy_timestamps:
            self.inner.enable_lazy_epochs()

    # -- policy hooks ---------------------------------------------------
    def _sample(self, tid: int, addr: int, site: int, is_write: bool) -> bool:
        raise NotImplementedError

    def _always_samples(self) -> bool:
        """True when the policy parameters make every access sampled —
        the wrapper then behaves byte-identically to the bare inner and
        lazy timestamping is pointless (every epoch records)."""
        return False

    # -- memory accesses ------------------------------------------------
    def on_read(self, tid, addr, size, site=0):
        if self._sample(tid, addr, site, is_write=False):
            self.sampled_accesses += 1
            self.inner.on_read(tid, addr, size, site)
        else:
            self.skipped_accesses += 1
            if self._check:
                self.check_only_accesses += 1
                self.inner.check_access(tid, addr, size, site, is_write=False)

    def on_write(self, tid, addr, size, site=0):
        if self._sample(tid, addr, site, is_write=True):
            self.sampled_accesses += 1
            self.inner.on_write(tid, addr, size, site)
        else:
            self.skipped_accesses += 1
            if self._check:
                self.check_only_accesses += 1
                self.inner.check_access(tid, addr, size, site, is_write=True)

    def statistics(self) -> Dict[str, object]:
        total = self.sampled_accesses + self.skipped_accesses
        stats = dict(self.inner.statistics())
        stats.update(
            {
                "sampled_accesses": self.sampled_accesses,
                "skipped_accesses": self.skipped_accesses,
                "check_only_accesses": self.check_only_accesses,
                "check_supported": self._check,
                "effective_rate": (
                    self.sampled_accesses / total if total else 1.0
                ),
                "lazy_timestamps": self.lazy_timestamps,
                "deferred_epochs": getattr(self.inner, "deferred_epochs", 0),
            }
        )
        return stats


class LiteRaceDetector(_SamplingBase):
    """Per-site adaptive sampling (cold-region hypothesis).

    A site's sampling period doubles after every burst of ``burst``
    *sampled* executions (PLDI'09 §3.2: the decay clock ticks when the
    sampler fires, not on every dynamic execution), capping at
    ``1/floor_rate`` — cold sites stay fully instrumented while hot
    loops decay to the floor.
    """

    name = "literace"

    def __init__(
        self,
        floor_rate: float = 0.01,
        burst: int = 10,
        inner: Optional[Detector] = None,
        suppress: Optional[Callable[[int], bool]] = None,
        lazy_timestamps: bool = True,
    ):
        if not 0.0 < floor_rate <= 1.0:
            raise ValueError("floor_rate must be in (0, 1]")
        self.floor_rate = floor_rate
        self.burst = burst
        self._max_period = max(1, round(1.0 / floor_rate))
        # per-site: [executions, sampled_executions, current_period]
        self._sites: Dict[int, list] = {}
        super().__init__(inner, suppress, lazy_timestamps)

    def _always_samples(self) -> bool:
        return self._max_period == 1

    def _sample(self, tid, addr, site, is_write) -> bool:
        state = self._sites.get(site)
        if state is None:
            state = self._sites[site] = [0, 0, 1]
        count = state[0]
        state[0] = count + 1
        period = state[2]
        take = count % period == 0
        if take:
            # Decay: after each burst of *sampled* executions, double
            # the period (down to the floor rate).
            state[1] += 1
            if state[1] % self.burst == 0 and period < self._max_period:
                state[2] = min(period * 2, self._max_period)
        return take


class PacerDetector(_SamplingBase):
    """Epoch-period sampling with check-only shadow reads outside
    sampled periods.

    ``rate`` of each thread's epochs are sampled (deterministically, by
    epoch index).  In a non-sampled epoch an access is still *checked*
    against already-recorded shadow state through the inner's
    :meth:`Detector.check_access` — PACER's insight that one sampled
    endpoint suffices to catch a race with probability ~rate — but
    records nothing new.  Works against any inner that implements the
    check-only protocol; for inners that don't, skipped accesses are
    simply dropped (``check_supported`` in the statistics says which).

    The epoch index advances on every epoch-starting sync operation of
    the inner runtime — release, fork *and* join — so sampling periods
    stay aligned with real epoch boundaries.
    """

    name = "pacer"
    check_on_skip = True

    def __init__(
        self,
        rate: float = 0.1,
        inner: Optional[Detector] = None,
        suppress: Optional[Callable[[int], bool]] = None,
        lazy_timestamps: bool = True,
    ):
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        self.rate = rate
        self._period = max(1, round(1.0 / rate))
        self._epoch_index: Dict[int, int] = {}
        super().__init__(inner, suppress, lazy_timestamps)

    def _always_samples(self) -> bool:
        return self._period == 1

    def _sampling(self, tid: int) -> bool:
        return self._epoch_index.get(tid, 0) % self._period == 0

    def _sample(self, tid, addr, site, is_write) -> bool:
        return self._sampling(tid)

    def _advance_epoch(self, tid: int) -> None:
        self._epoch_index[tid] = self._epoch_index.get(tid, 0) + 1

    # every epoch-starting sync op advances the sampling period
    def on_release(self, tid, sync_id, is_lock=1):
        self._advance_epoch(tid)
        super().on_release(tid, sync_id, is_lock)

    def on_fork(self, tid, child_tid):
        self._advance_epoch(tid)
        super().on_fork(tid, child_tid)

    def on_join(self, tid, target_tid):
        self._advance_epoch(tid)
        super().on_join(tid, target_tid)


class O1SamplesDetector(_SamplingBase):
    """Constant per-location sample budget, refilled on ownership change.

    Each shadow location (bucketed at ``bucket``-byte granularity) may
    record at most ``budget`` accesses per *ownership phase* — a
    maximal run of accesses by one thread.  When a different thread
    touches the bucket the phase ends and the budget refills: the
    interleaving point is exactly where a new race can appear, while
    the tail of a long single-owner run adds no orderings the first
    few accesses didn't already record.  Accesses over budget are
    check-only (when the inner supports it), so recording work per
    location is O(budget) per phase — O(1) in trace length.

    ``budget=None`` means unbounded (every access sampled).
    """

    name = "o1"
    check_on_skip = True

    def __init__(
        self,
        budget: Optional[int] = 4,
        bucket: int = 8,
        inner: Optional[Detector] = None,
        suppress: Optional[Callable[[int], bool]] = None,
        lazy_timestamps: bool = True,
    ):
        if budget is not None and budget < 1:
            raise ValueError("budget must be >= 1 (or None for unbounded)")
        if bucket < 1:
            raise ValueError("bucket must be >= 1")
        self.budget = budget
        self.bucket = bucket
        # per-bucket: [owner_tid, samples_used_this_phase]
        self._locs: Dict[int, list] = {}
        self.phase_changes = 0
        super().__init__(inner, suppress, lazy_timestamps)

    def _always_samples(self) -> bool:
        return self.budget is None

    def _sample(self, tid, addr, site, is_write) -> bool:
        budget = self.budget
        if budget is None:
            return True
        key = addr // self.bucket
        state = self._locs.get(key)
        if state is None:
            self._locs[key] = [tid, 1]
            return True
        if state[0] != tid:
            # Ownership change: new sharing phase, refill the budget.
            state[0] = tid
            state[1] = 1
            self.phase_changes += 1
            return True
        if state[1] < budget:
            state[1] += 1
            return True
        return False

    def statistics(self) -> Dict[str, object]:
        stats = super().statistics()
        stats["phase_changes"] = self.phase_changes
        return stats
