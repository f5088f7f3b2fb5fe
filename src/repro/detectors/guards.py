"""Resource-governed, crash-isolated detector execution.

Two failure modes kill long detection campaigns: a detector exception
on one abnormal trace aborts every remaining trial, and shadow memory
grows without bound on allocation-heavy schedules (shadow overhead is
the paper's core motivation for dynamic granularity in the first
place).  :class:`GuardedDetector` wraps any detector against both:

* **Exception capture** — a crash inside any callback is converted into
  a structured :class:`DetectorCrash` (callback name, event index,
  traceback); the wrapper goes inert for the rest of the trace instead
  of propagating, and races found before the crash survive.
* **Shadow-location budget** — for the dynamic-granularity detector, a
  cap on live clock groups (``group_stats.live_clocks``).  Under
  pressure the guard *degrades precision instead of growing*: it drops
  already-reported race singletons, force-widens neighbouring groups
  into coarser ones, and finally evicts the coldest shadow state.  The
  detector never crashes on budget; it reports what was sacrificed via
  ``statistics()["guard"]``.  A budget over a policy wrapper (a
  sampler) is refused with :class:`UnenforceableBudgetError`: the
  wrapper hides the group managers, so the guard could shed nothing.

Degradation semantics (ALGORITHM.md §8): forced widening is the same
mechanism as the paper's dynamic granularity pushed further — its
divergences stay inside the PR-1 oracle taxonomy (group-mate extras,
coarse-update false alarms, group-history loss), just more frequent.
Evicting already-reported race singletons costs nothing (the
first-race-per-location dedup in :meth:`Detector.report` outlives the
shadow state).  Cold eviction forgets history, which can only *miss*
races — never invent them.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.state_machine import PRIVATE, RACE, SHARED
from repro.detectors.base import DetectorWrapper


class UnenforceableBudgetError(ValueError):
    """A shadow budget over a detector whose shadow state the guard
    cannot reach (a policy wrapper such as a sampler)."""


@dataclass
class DetectorCrash:
    """A detector exception converted into data (the campaign outcome)."""

    detector: str
    op: str  # callback that raised (on_read, on_write, ...)
    event_index: int  # events the wrapper had delivered when it raised
    exc_type: str
    message: str
    traceback: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "detector": self.detector,
            "op": self.op,
            "event_index": self.event_index,
            "exc_type": self.exc_type,
            "message": self.message,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DetectorCrash":
        return cls(
            detector=str(data["detector"]),
            op=str(data["op"]),
            event_index=int(data["event_index"]),  # type: ignore[arg-type]
            exc_type=str(data["exc_type"]),
            message=str(data["message"]),
            traceback=str(data.get("traceback", "")),
        )

    def __str__(self) -> str:
        return (
            f"{self.detector} crashed in {self.op} at event "
            f"{self.event_index}: {self.exc_type}: {self.message}"
        )


@dataclass
class GuardStats:
    """What the guard did to keep the detector alive and bounded."""

    shadow_budget: Optional[int] = None
    degradations: int = 0  # budget-pressure episodes
    dropped_race_groups: int = 0
    forced_merges: int = 0
    evicted_groups: int = 0
    evicted_bytes: int = 0
    peak_live_clocks: int = 0
    crash: Optional[DetectorCrash] = None

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "shadow_budget": self.shadow_budget,
            "degradations": self.degradations,
            "dropped_race_groups": self.dropped_race_groups,
            "forced_merges": self.forced_merges,
            "evicted_groups": self.evicted_groups,
            "evicted_bytes": self.evicted_bytes,
            "peak_live_clocks": self.peak_live_clocks,
            "crashed": self.crash is not None,
        }
        if self.crash is not None:
            out["crash"] = self.crash.as_dict()
        return out


#: After the budget trips, shed down to this fraction of it so one
#: trip buys headroom instead of degrading on every subsequent access.
LOW_WATERMARK = 0.9

#: Never force-merge groups further apart than this: ``members()`` and
#: race reporting walk a group's bounding range, so unbounded holes
#: would trade memory for pathological scan time.
MAX_WIDEN_GAP = 1024


class GuardedDetector(DetectorWrapper):
    """Wrap ``inner`` with exception capture and an optional budget.

    Drop-in for the replay VM: the callback surface, ``races``,
    ``finish`` and ``statistics`` all behave like the wrapped detector.
    With an ample budget and no crash the wrapper is observationally
    identical to ``inner`` (byte-identical races); the budget only does
    anything for detectors exposing dynamic-granularity group managers
    (``fasttrack-dynamic``).  Other bare detectors get crash isolation
    only; a budget over a policy wrapper (``transparent = False``, the
    samplers) raises :class:`UnenforceableBudgetError`.
    """

    label = "guarded"

    def __init__(
        self,
        inner,
        shadow_budget: Optional[int] = None,
        low_watermark: float = LOW_WATERMARK,
    ):
        if shadow_budget is not None and shadow_budget < 1:
            raise ValueError(f"shadow_budget must be >= 1, got {shadow_budget}")
        if not 0.0 < low_watermark <= 1.0:
            raise ValueError(f"low_watermark must be in (0, 1], got {low_watermark}")
        transparent = getattr(inner, "transparent", True)
        if shadow_budget is not None and not transparent:
            raise UnenforceableBudgetError(
                f"shadow_budget cannot be enforced over {inner.name}: the "
                "policy wrapper hides the shadow state the guard sheds"
            )
        super().__init__(inner)
        self.shadow_budget = shadow_budget
        self._target = (
            max(int(shadow_budget * low_watermark), 1)
            if shadow_budget is not None
            else None
        )
        self.guard_stats = GuardStats(shadow_budget=shadow_budget)
        self._events = 0
        # Budget enforcement needs the dynamic detector's group
        # managers; other detectors get crash isolation only.
        self._group_stats = getattr(inner, "group_stats", None)
        self._managers = (
            (inner._wg, inner._rg)
            if self._group_stats is not None
            and hasattr(inner, "_wg")
            and hasattr(inner, "_rg")
            else ()
        )
        self._budgeted = shadow_budget is not None and bool(self._managers)

    @property
    def crash(self) -> Optional[DetectorCrash]:
        return self.guard_stats.crash

    @property
    def crashed(self) -> bool:
        return self.guard_stats.crash is not None

    # ------------------------------------------------------------------
    # crash capture
    # ------------------------------------------------------------------
    def _capture(self, op: str, exc: BaseException) -> None:
        self.guard_stats.crash = DetectorCrash(
            detector=getattr(self.inner, "name", type(self.inner).__name__),
            op=op,
            event_index=self._events,
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback=_traceback.format_exc(),
        )

    def _call(self, op: str, *args) -> None:
        # Every callback, the batched and check-only ones included, and
        # finish keep crash capture; finish is not an event and leaves
        # the budget alone.
        if self.guard_stats.crash is not None:
            return  # inert after a crash: state may be corrupt
        event = op != "finish"
        if event:
            self._events += 1
        try:
            getattr(self.inner, op)(*args)
        except Exception as exc:  # noqa: BLE001 - the whole point
            self._capture(op, exc)
            return
        if event and self._budgeted:
            self._enforce_budget()

    def statistics(self) -> Dict[str, object]:
        try:
            stats = dict(self.inner.statistics())
        except Exception:  # noqa: BLE001 - stats must never raise
            stats = {}
        stats["guard"] = self.guard_stats.as_dict()
        return stats

    # ------------------------------------------------------------------
    # budget enforcement (dynamic-granularity detectors)
    # ------------------------------------------------------------------
    def _enforce_budget(self) -> None:
        st = self._group_stats
        if st.live_clocks > self.guard_stats.peak_live_clocks:
            self.guard_stats.peak_live_clocks = st.live_clocks
        if st.live_clocks <= self.shadow_budget:
            return
        self.guard_stats.degradations += 1
        self._shed(self._target)

    def _shed(self, target: int) -> None:
        """Reduce live clock groups to ``target``, cheapest loss first."""
        st = self._group_stats
        gs = self.guard_stats
        reported = self.inner.reported_racy

        # 1. Already-reported race singletons: their only remaining job
        #    is absorbing updates — report dedup survives eviction.
        for mgr in self._managers:
            if st.live_clocks <= target:
                return
            for g in mgr.live_groups():
                if g.state == RACE and g.lo in reported:
                    gs.evicted_bytes += mgr.evict(g)
                    gs.dropped_race_groups += 1
                    if st.live_clocks <= target:
                        return

        # 2. Forced widening: merge address-adjacent groups even when
        #    their clocks differ; the merged group adopts the larger
        #    fragment's history (the same precision trade the paper's
        #    granularity makes, pushed harder).
        for mgr in self._managers:
            if st.live_clocks <= target:
                return
            prev = None
            for g in mgr.live_groups():
                if g.charged == 0:
                    continue
                if (
                    prev is not None
                    and g.state != RACE
                    and prev.state != RACE
                    and g.lo - prev.hi <= MAX_WIDEN_GAP
                ):
                    merged = mgr.merge(prev, g)
                    merged.state = SHARED if merged.count > 1 else PRIVATE
                    gs.forced_merges += 1
                    prev = merged
                    if st.live_clocks <= target:
                        return
                else:
                    prev = g

        # 3. Cold eviction: forget the least-recently-stamped groups
        #    (lowest epoch — a proxy for access recency).  Misses only.
        remaining = [
            (self._temperature(mgr, g), i, mgr, g)
            for i, mgr in enumerate(self._managers)
            for g in mgr.live_groups()
        ]
        remaining.sort(key=lambda item: (item[0], item[3].lo, item[1]))
        for _temp, _i, mgr, g in remaining:
            if st.live_clocks <= target:
                return
            if g.charged:
                gs.evicted_bytes += mgr.evict(g)
                gs.evicted_groups += 1

    @staticmethod
    def _temperature(mgr, g) -> int:
        """Recency proxy: the newest epoch recorded in the group's clock."""
        if mgr.kind == "w" or g.r is None:
            return g.wc
        if g.r.vc is not None:
            return max(g.r.vc.as_list(), default=0)
        return g.r.epoch[0]

    # ------------------------------------------------------------------
    # checkpoint serialization
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        gs = self.guard_stats
        return {
            "kind": "guarded",
            "inner": self.inner.snapshot_state(),
            "events": self._events,
            "guard": {
                "degradations": gs.degradations,
                "dropped_race_groups": gs.dropped_race_groups,
                "forced_merges": gs.forced_merges,
                "evicted_groups": gs.evicted_groups,
                "evicted_bytes": gs.evicted_bytes,
                "peak_live_clocks": gs.peak_live_clocks,
                "crash": gs.crash.as_dict() if gs.crash is not None else None,
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore guard + inner state.

        A bare inner-detector state (from an unguarded session resumed
        under a budget) is also accepted: the inner
        detector is restored and the guard counters start fresh.  Either
        way the budget is enforced immediately afterwards, so a restore
        that lands over budget degrades through the shedding ladder on
        the spot instead of waiting for the next access.
        """
        if state.get("kind") == "guarded":
            self.inner.restore_state(state["inner"])
            self._events = state["events"]
            g = state["guard"]
            gs = self.guard_stats
            gs.degradations = g["degradations"]
            gs.dropped_race_groups = g["dropped_race_groups"]
            gs.forced_merges = g["forced_merges"]
            gs.evicted_groups = g["evicted_groups"]
            gs.evicted_bytes = g["evicted_bytes"]
            gs.peak_live_clocks = g["peak_live_clocks"]
            gs.crash = (
                DetectorCrash.from_dict(g["crash"])
                if g["crash"] is not None
                else None
            )
        else:
            self.inner.restore_state(state)
        if self._budgeted and self.guard_stats.crash is None:
            self._enforce_budget()


def guard_detector(
    name: str,
    shadow_budget: Optional[int] = None,
    **kwargs,
) -> GuardedDetector:
    """Build a registry detector wrapped in a :class:`GuardedDetector`."""
    from repro.detectors.registry import create_detector

    return GuardedDetector(
        create_detector(name, **kwargs), shadow_budget=shadow_budget
    )
