"""Sharing-based instrumentation filters (paper §VI related work).

Two systems the paper cites as *complementary* to dynamic granularity,
both built as wrappers so they compose with any inner detector:

* :class:`AikidoFilter` (Olszewski et al., ASPLOS'12): per-page
  ownership tracking — accesses to pages touched by a single thread
  bypass the detector entirely (the dominant case in the paper's
  "remove the instrumentation overhead of non-shared accesses").  When
  a second thread first touches a page, the page becomes *shared* and
  everything on it is instrumented from then on.  Because the private
  phase recorded nothing, the filter conservatively attributes a
  synthetic page-wide write to the previous owner at the sharing
  transition, so write(owner-private) → access(other thread) races are
  still caught (at page granularity, possibly coarsely).

* :class:`DemandDrivenFilter` (Greathouse et al., ISCA'11): detection
  toggles globally — off until cross-thread sharing is observed (the
  hardware version watches cache coherence counters; we watch the same
  page-ownership signal), then on until a quiet period of
  ``cooldown`` sharing-free accesses passes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.detectors.base import Detector, DetectorWrapper
from repro.detectors.fasttrack import FastTrackDetector

PAGE_SHIFT = 12


class _FilterBase(DetectorWrapper):
    """Common wrapper plumbing: sync/heap events always pass through;
    memory accesses go to the subclass's ``_route``."""

    transparent = False
    # The filter decides which accesses reach the inner; a check-only
    # call from an outer sampler would bypass that routing.
    supports_check_access = False

    def __init__(self, inner: Optional[Detector] = None,
                 suppress: Optional[Callable[[int], bool]] = None):
        super().__init__(
            inner if inner is not None
            else FastTrackDetector(granularity=1, suppress=suppress)
        )
        self.filtered_accesses = 0
        self.instrumented_accesses = 0

    def on_read(self, tid, addr, size, site=0):
        self._route(tid, addr, size, site, is_write=False)

    def on_write(self, tid, addr, size, site=0):
        self._route(tid, addr, size, site, is_write=True)

    def statistics(self) -> Dict[str, object]:
        total = self.filtered_accesses + self.instrumented_accesses
        stats = dict(self.inner.statistics())
        stats.update(
            {
                "filtered_accesses": self.filtered_accesses,
                "instrumented_accesses": self.instrumented_accesses,
                "filter_rate": (
                    self.filtered_accesses / total if total else 0.0
                ),
            }
        )
        return stats


class AikidoFilter(_FilterBase):
    """Per-page ownership filter with conservative sharing transitions."""

    name = "aikido"

    def __init__(
        self,
        inner: Optional[Detector] = None,
        suppress: Optional[Callable[[int], bool]] = None,
        attribute_owner_writes: bool = True,
    ):
        super().__init__(inner, suppress)
        #: page -> [owner tid, owner clock at last private write], or
        #: None once shared
        self._owner: Dict[int, Optional[list]] = {}
        self.attribute_owner_writes = attribute_owner_writes
        self.sharing_transitions = 0

    def _owner_clock(self, tid: int) -> int:
        vc_of = getattr(self.inner, "_vc", None)
        if vc_of is None:
            return 0
        return vc_of(tid).get(tid)

    def _route(self, tid, addr, size, site, is_write):
        page = addr >> PAGE_SHIFT
        state = self._owner.get(page, 0)
        if state == 0:  # first touch: page becomes private to tid
            self._owner[page] = [tid, self._owner_clock(tid) if is_write else 0]
            self.filtered_accesses += 1
            return
        if state is not None and state[0] == tid:
            # Private access: only remember the latest write clock — the
            # lightweight bookkeeping that keeps the eventual sharing
            # transition sound.
            if is_write:
                state[1] = self._owner_clock(tid)
            self.filtered_accesses += 1
            return
        if state is not None:
            # Sharing transition: instrument this page forever after.
            owner_tid, owner_clock = state
            self._owner[page] = None
            self.sharing_transitions += 1
            if self.attribute_owner_writes and owner_clock:
                # Attribute a page-wide write to the previous owner *at
                # the clock of its last private write* — any later
                # release covers it (no false alarms on clean hand-offs)
                # while unsynchronized newcomers still race with it, at
                # page granularity (the filter never saw which bytes the
                # owner actually wrote).
                seed = getattr(self.inner, "seed_write", None)
                if seed is not None:
                    seed(owner_tid, owner_clock,
                         page << PAGE_SHIFT, 1 << PAGE_SHIFT)
                else:  # conservative fallback: current-clock write
                    self.inner.on_write(
                        owner_tid, page << PAGE_SHIFT, 1 << PAGE_SHIFT, site
                    )
        self.instrumented_accesses += 1
        if is_write:
            self.inner.on_write(tid, addr, size, site)
        else:
            self.inner.on_read(tid, addr, size, site)

    def statistics(self) -> Dict[str, object]:
        stats = super().statistics()
        stats["sharing_transitions"] = self.sharing_transitions
        stats["shared_pages"] = sum(
            1 for owner in self._owner.values() if owner is None
        )
        stats["private_pages"] = sum(
            1 for owner in self._owner.values() if owner is not None
        )
        return stats


class DemandDrivenFilter(_FilterBase):
    """Global detection toggle driven by observed cross-thread sharing."""

    name = "demand-driven"

    def __init__(
        self,
        inner: Optional[Detector] = None,
        suppress: Optional[Callable[[int], bool]] = None,
        cooldown: int = 256,
    ):
        super().__init__(inner, suppress)
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        self.cooldown = cooldown
        self._owner: Dict[int, int] = {}
        self._quiet = 0
        self.enabled = False
        self.activations = 0

    def _sharing_signal(self, tid, addr) -> bool:
        page = addr >> PAGE_SHIFT
        owner = self._owner.get(page)
        if owner is None:
            self._owner[page] = tid
            return False
        if owner == tid or owner < 0:
            return owner < 0
        self._owner[page] = -1
        return True

    def _route(self, tid, addr, size, site, is_write):
        sharing = self._sharing_signal(tid, addr)
        if sharing:
            if not self.enabled:
                self.enabled = True
                self.activations += 1
            self._quiet = 0
        elif self.enabled:
            self._quiet += 1
            if self._quiet >= self.cooldown:
                self.enabled = False
        if self.enabled:
            self.instrumented_accesses += 1
            if is_write:
                self.inner.on_write(tid, addr, size, site)
            else:
                self.inner.on_read(tid, addr, size, site)
        else:
            self.filtered_accesses += 1

    def statistics(self) -> Dict[str, object]:
        stats = super().statistics()
        stats["activations"] = self.activations
        return stats
