"""Detector interface, race reports and the shared vector-clock runtime.

Every detector consumes the PIN-shaped callback stream
(``on_read``/``on_write``/``on_acquire``/...) defined here and produces
:class:`RaceReport` objects.  The happens-before detectors share
:class:`VectorClockRuntime`, which maintains thread and sync-object
vector clocks with DJIT+ epoch semantics (a thread's clock advances at
every lock release).
"""

from __future__ import annotations

import base64
import pickle
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.clocks.vectorclock import VectorClock

WRITE_WRITE = "write-write"
WRITE_READ = "write-read"
READ_WRITE = "read-write"


@dataclass(frozen=True)
class RaceReport:
    """One detected data race.

    Mirrors the information the paper's tool prints: the racing address,
    the current access (thread, kind, site) and the previous conflicting
    access it raced with.
    """

    addr: int
    kind: str
    tid: int
    site: int
    prev_tid: int
    prev_site: int = 0
    #: width of the shadow unit the race was detected on (1 = byte,
    #: 4 = word, >1 under dynamic granularity when a group was shared)
    unit: int = 1

    def __str__(self) -> str:
        return (
            f"{self.kind} race at 0x{self.addr:x}: thread {self.tid} "
            f"(site {self.site}) vs thread {self.prev_tid} "
            f"(site {self.prev_site})"
        )

    def as_list(self) -> list:
        """Positional JSON-able form for checkpoints."""
        return [
            self.addr,
            self.kind,
            self.tid,
            self.site,
            self.prev_tid,
            self.prev_site,
            self.unit,
        ]

    @classmethod
    def from_list(cls, data: list) -> "RaceReport":
        """Rebuild a report from :meth:`as_list` output."""
        return cls(*data)


class Detector:
    """Base class: callback interface + race collection + suppression."""

    name = "detector"

    def __init__(self, suppress: Optional[Callable[[int], bool]] = None):
        self.races: List[RaceReport] = []
        #: sites for which races are suppressed (libc/ld-style rules)
        self._suppress = suppress
        #: byte addresses already reported racy (first race per location)
        self._racy: set = set()

    # -- memory access callbacks (addr, size in bytes, static site id) --
    def on_read(self, tid: int, addr: int, size: int, site: int = 0) -> None:
        """A shared read of ``size`` bytes at ``addr`` by ``tid``."""

    def on_write(self, tid: int, addr: int, size: int, site: int = 0) -> None:
        """A shared write of ``size`` bytes at ``addr`` by ``tid``."""

    # -- batched dispatch (repro.perf.batch) ----------------------------
    def on_read_batch(
        self, tid: int, addr: int, size: int, width: int, site: int = 0
    ) -> None:
        """A coalesced run of ``size // width`` adjacent ``width``-byte
        reads, consecutive in trace order (one thread, one epoch).

        The default treats the run as one ranged read — exactly
        equivalent for detectors whose shadow state is per fixed-size
        unit.  Detectors whose behaviour depends on the access *width*
        (dynamic granularity) override this to preserve per-access
        semantics.
        """
        self.on_read(tid, addr, size, site)

    def on_write_batch(
        self, tid: int, addr: int, size: int, width: int, site: int = 0
    ) -> None:
        """Write-side twin of :meth:`on_read_batch`."""
        self.on_write(tid, addr, size, site)

    # -- check-only protocol (sampling tier, ALGORITHM.md §14) ----------
    #: True when the class implements :meth:`check_access` (read by the
    #: sampling tier to report whether skipped accesses are still
    #: race-checked against recorded history).
    supports_check_access = False

    def check_access(
        self, tid: int, addr: int, size: int, site: int = 0,
        is_write: bool = False,
    ) -> None:
        """Race-check ``[addr, addr+size)`` against already-recorded
        shadow state *without recording anything*.

        PACER-style one-sided detection: a sampling wrapper that skips
        an access can still catch a race whose other endpoint was
        recorded during a sampled period.  Implementations must not
        mutate shadow history, clocks or fast-path bitmaps — reporting
        (with its first-race-per-location dedup) is the only allowed
        side effect.  The default is a no-op so any detector can be
        wrapped; detectors with inspectable shadow state (the FastTrack
        family, DJIT+, dynamic granularity) override it.
        """

    # -- synchronization callbacks --------------------------------------
    def on_acquire(self, tid: int, sync_id: int, is_lock: int = 1) -> None:
        """``tid`` acquired sync object ``sync_id``.

        ``is_lock`` is 1 for mutex operations and 0 for ordering-only
        sync (semaphores, barriers, condvars) — the happens-before
        semantics are identical, but lockset-based detectors must not
        treat a semaphore token as a held lock.
        """

    def on_release(self, tid: int, sync_id: int, is_lock: int = 1) -> None:
        """``tid`` released sync object ``sync_id`` (starts a new epoch)."""

    def on_fork(self, tid: int, child_tid: int) -> None:
        """``tid`` spawned ``child_tid``."""

    def on_join(self, tid: int, target_tid: int) -> None:
        """``tid`` joined finished thread ``target_tid``."""

    # -- heap callbacks --------------------------------------------------
    def on_alloc(self, tid: int, addr: int, size: int) -> None:
        """A heap block ``[addr, addr+size)`` was allocated."""

    def on_free(self, tid: int, addr: int, size: int) -> None:
        """The heap block ``[addr, addr+size)`` was freed."""

    def finish(self) -> None:
        """End of trace (flush segment detectors etc.)."""

    # ---------------------------------------------------------------
    def report(self, race: RaceReport) -> bool:
        """Record ``race`` unless suppressed or the location already
        raced (the paper's tools report the first race per location)."""
        if race.addr in self._racy:
            return False
        if self._suppress is not None and self._suppress(race.site):
            self._racy.add(race.addr)
            return False
        self._racy.add(race.addr)
        self.races.append(race)
        return True

    @property
    def reported_racy(self) -> frozenset:
        """Byte addresses already reported racy (first-race-per-location
        dedup state; read by the budget guard to find shadow state that
        can no longer produce a report)."""
        return frozenset(self._racy)

    def statistics(self) -> Dict[str, object]:
        """Detector-specific counters for the analysis tables."""
        return {}

    # ---------------------------------------------------------------
    # checkpoint serialization
    # ---------------------------------------------------------------
    def _snapshot_base(self) -> dict:
        """Race list and dedup state shared by every detector."""
        return {
            "races": [r.as_list() for r in self.races],
            "racy": sorted(self._racy),
        }

    def _restore_base(self, state: dict) -> None:
        self.races = [RaceReport.from_list(r) for r in state["races"]]
        self._racy = set(state["racy"])

    def snapshot_state(self) -> dict:
        """Full detector state as a JSON-able dict.

        The base implementation is a generic pickle of the whole
        detector (base64-wrapped so it embeds in the JSON checkpoint
        payload) — correct for any detector whose state is plain Python
        data.  The suppression callable is excluded (it may be a lambda
        and is re-supplied by the restoring session).  FastTrack, the
        dynamic detector and the detector wrappers override this with
        structured encodings.
        """
        suppress = self._suppress
        self._suppress = None
        try:
            blob = pickle.dumps(self)
        finally:
            self._suppress = suppress
        return {
            "kind": "opaque",
            "type": type(self).__name__,
            "blob": base64.b64encode(blob).decode("ascii"),
        }

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`snapshot_state` in place.

        The generic path unpickles a twin and adopts its ``__dict__``,
        keeping this instance's suppression callable and re-binding any
        shadow-table resize callbacks that the twin's tables captured as
        bound methods of the twin.
        """
        if state.get("kind") != "opaque":
            raise ValueError(
                f"{type(self).__name__} cannot restore "
                f"{state.get('kind')!r} state"
            )
        if state.get("type") != type(self).__name__:
            raise ValueError(
                f"checkpoint state is for {state.get('type')!r}, "
                f"not {type(self).__name__!r}"
            )
        twin = pickle.loads(base64.b64decode(state["blob"]))
        suppress = self._suppress
        self.__dict__.clear()
        self.__dict__.update(twin.__dict__)
        self._suppress = suppress
        for value in self.__dict__.values():
            cb = getattr(value, "_on_resize", None)
            if cb is not None and getattr(cb, "__self__", None) is twin:
                value._on_resize = getattr(self, cb.__func__.__name__)


class DetectorWrapper:
    """Delegation base for detectors that wrap another detector.

    Owns the wrapped ``inner``, the wrapper's ``name``, ``races`` and
    ``supports_check_access``, and routes every callback plus
    :meth:`finish` through the one hook :meth:`_call`, whose default
    forwards to ``inner``.  Subclasses (the budget guard, the timing
    wrapper, the samplers) override the hook, or individual callbacks
    where their policy differs per callback.  Anything else passes
    through ``__getattr__``, so a wrapper can stand in for its inner
    detector in analysis code.
    """

    #: ``name`` is ``f"{label}({inner.name})"`` unless a subclass sets it
    label = "wrapped"

    #: False for policy wrappers (samplers, filters): attribute lookups
    #: stop at the wrapper, so capability probes (the budget guard's
    #: group managers, lazy epochs, shadow seeding) never bypass it.
    transparent = True

    def __init__(self, inner):
        self.inner = inner

    @property
    def name(self) -> str:
        return f"{self.label}({self.inner.name})"

    @property
    def races(self) -> List[RaceReport]:
        return self.inner.races

    @property
    def supports_check_access(self) -> bool:
        return getattr(self.inner, "supports_check_access", False)

    def _call(self, op: str, *args) -> None:
        """The hook every callback goes through: ``op`` is the callback
        name (``"on_read"``, ..., ``"finish"``)."""
        getattr(self.inner, op)(*args)

    # -- the callback surface --------------------------------------------
    def on_read(self, tid: int, addr: int, size: int, site: int = 0) -> None:
        self._call("on_read", tid, addr, size, site)

    def on_write(self, tid: int, addr: int, size: int, site: int = 0) -> None:
        self._call("on_write", tid, addr, size, site)

    def on_read_batch(
        self, tid: int, addr: int, size: int, width: int, site: int = 0
    ) -> None:
        self._call("on_read_batch", tid, addr, size, width, site)

    def on_write_batch(
        self, tid: int, addr: int, size: int, width: int, site: int = 0
    ) -> None:
        self._call("on_write_batch", tid, addr, size, width, site)

    def check_access(
        self, tid: int, addr: int, size: int, site: int = 0,
        is_write: bool = False,
    ) -> None:
        self._call("check_access", tid, addr, size, site, is_write)

    def on_acquire(self, tid: int, sync_id: int, is_lock: int = 1) -> None:
        self._call("on_acquire", tid, sync_id, is_lock)

    def on_release(self, tid: int, sync_id: int, is_lock: int = 1) -> None:
        self._call("on_release", tid, sync_id, is_lock)

    def on_fork(self, tid: int, child_tid: int) -> None:
        self._call("on_fork", tid, child_tid)

    def on_join(self, tid: int, target_tid: int) -> None:
        self._call("on_join", tid, target_tid)

    def on_alloc(self, tid: int, addr: int, size: int) -> None:
        self._call("on_alloc", tid, addr, size)

    def on_free(self, tid: int, addr: int, size: int) -> None:
        self._call("on_free", tid, addr, size)

    def finish(self) -> None:
        self._call("finish")

    # -- checkpoint serialization ----------------------------------------
    # The inner's own encoding plus the wrapper's pickled attributes;
    # restoring puts the inner's state back in place, so references
    # into it held elsewhere stay valid.
    def snapshot_state(self) -> dict:
        own = {k: v for k, v in self.__dict__.items() if k != "inner"}
        return {
            "kind": "wrapper",
            "inner": self.inner.snapshot_state(),
            "own": base64.b64encode(pickle.dumps(own)).decode("ascii"),
        }

    def restore_state(self, state: dict) -> None:
        if state.get("kind") != "wrapper":
            raise ValueError(
                f"{type(self).__name__} cannot restore "
                f"{state.get('kind')!r} state"
            )
        self.inner.restore_state(state["inner"])
        self.__dict__.update(pickle.loads(base64.b64decode(state["own"])))

    # Dunder lookups are refused: copy and pickle probe for optional
    # protocol hooks (__deepcopy__, __getstate__, __reduce_ex__, ...)
    # with getattr, and delegating those to the inner detector would
    # make such probes silently operate on — or infinitely recurse
    # into — the wrapped object.
    def __getattr__(self, attr: str):
        if not self.transparent or (
            attr.startswith("__") and attr.endswith("__")
        ):
            raise AttributeError(attr)
        inner = self.__dict__.get("inner")
        if inner is None:
            # Mid-(un)pickle/copy the instance dict may be empty;
            # recursing through self.inner would never terminate.
            raise AttributeError(attr)
        return getattr(inner, attr)


class VectorClockRuntime(Detector):
    """Thread/lock vector-clock maintenance shared by HB detectors.

    Semantics (paper §II, DJIT+): a thread's own clock increments at
    every lock release — each release starts a new *epoch*.  Sync-object
    clocks accumulate releases with a join, which also gives barriers
    and semaphores (modelled as release/acquire on one object) the right
    ordering.
    """

    #: Lazy sampled-epoch timestamping (sampling tier, ALGORITHM.md §14):
    #: when enabled, the epoch increment at a release/fork is deferred
    #: until the thread's next *recorded* access, so consecutive epochs
    #: that record nothing collapse into a single clock advance — clock
    #: maintenance is bounded by sampled events, not trace length.
    #: Class-level False keeps the normal hot path at one falsy
    #: attribute load.
    lazy_epochs = False

    #: Subclasses that call :meth:`_materialize_epoch` at the top of
    #: every access path set this; the sampling tier only enables lazy
    #: mode on inners that opted in (an inner that stamps shadow state
    #: without materializing pending increments would corrupt ordering).
    supports_lazy_epochs = False

    # pending-epoch bits per thread
    _PEND_RESET = 1  # new_epoch (bitmap reset) owed
    _PEND_INC = 2    # clock increment owed

    def __init__(self, suppress: Optional[Callable[[int], bool]] = None):
        super().__init__(suppress)
        self.thread_vc: Dict[int, VectorClock] = {0: VectorClock.for_thread(0)}
        self.lock_vc: Dict[int, VectorClock] = {}
        #: locks currently held per thread (for lockset-hybrid detectors)
        self.held: Dict[int, set] = {0: set()}
        self.max_tid = 0
        self.epoch_count = 1
        #: tid -> pending-epoch bits (lazy mode only)
        self._lazy_pending: Dict[int, int] = {}
        #: epoch increments elided by collapsing empty epochs
        self.deferred_epochs = 0

    # ---------------------------------------------------------------
    def _vc(self, tid: int) -> VectorClock:
        vc = self.thread_vc.get(tid)
        if vc is None:
            # A thread observed before its fork event (defensive): give
            # it a fresh clock so replay of partial traces still works.
            vc = VectorClock.for_thread(tid)
            self.thread_vc[tid] = vc
            self.held[tid] = set()
            if tid > self.max_tid:
                self.max_tid = tid
        return vc

    def new_epoch(self, tid: int) -> None:
        """Hook: called whenever ``tid`` enters a new epoch."""
        self.epoch_count += 1

    # ---------------------------------------------------------------
    # lazy sampled-epoch timestamping
    # ---------------------------------------------------------------
    def enable_lazy_epochs(self) -> None:
        """Switch epoch increments to deferred mode (sampling tier).

        Sound because an epoch value only matters once it is stamped
        into shadow state: exports into lock/child clocks at a release
        or fork keep their happens-before meaning (every earlier stamp
        stays ≤ the exported value, every later stamp materializes
        strictly above it), and the per-thread stamp sequence stays
        strictly increasing, so every epoch comparison a detector makes
        has the same outcome as under eager timestamping.
        """
        if not self.supports_lazy_epochs:
            raise ValueError(
                f"{type(self).__name__} does not support lazy epochs"
            )
        self.lazy_epochs = True

    def _defer_epoch(self, tid: int, increment: bool) -> None:
        """Record that ``tid`` owes a new epoch (and optionally a clock
        increment) before its next recorded access."""
        pend = self._lazy_pending.get(tid, 0)
        if increment:
            if pend & self._PEND_INC:
                # A second empty epoch collapses into the pending one.
                self.deferred_epochs += 1
            pend |= self._PEND_INC
        self._lazy_pending[tid] = pend | self._PEND_RESET

    def _materialize_epoch(self, tid: int) -> None:
        """Apply ``tid``'s deferred epoch work; called by access paths
        (guarded by ``lazy_epochs``) before consulting any bitmap or
        stamping any shadow state."""
        pend = self._lazy_pending.pop(tid, 0)
        if pend:
            if pend & self._PEND_INC:
                self._vc(tid).increment(tid)
            self.new_epoch(tid)

    # ---------------------------------------------------------------
    def on_acquire(self, tid: int, sync_id: int, is_lock: int = 1) -> None:
        vc = self._vc(tid)
        lvc = self.lock_vc.get(sync_id)
        if lvc is not None:
            vc.join(lvc)
        if is_lock:
            self.held.setdefault(tid, set()).add(sync_id)

    def on_release(self, tid: int, sync_id: int, is_lock: int = 1) -> None:
        vc = self._vc(tid)
        lvc = self.lock_vc.get(sync_id)
        if lvc is None:
            # Copy-on-write: the releaser's clock increments right after
            # (un-sharing its side), and the lock copy is only read until
            # a second release joins into it (un-sharing the other side).
            self.lock_vc[sync_id] = vc.cow_copy()
        else:
            lvc.join(vc)
        if self.lazy_epochs:
            if is_lock:
                self.held.setdefault(tid, set()).discard(sync_id)
            self._defer_epoch(tid, increment=True)
            return
        vc.increment(tid)
        if is_lock:
            self.held.setdefault(tid, set()).discard(sync_id)
        self.new_epoch(tid)

    def on_fork(self, tid: int, child_tid: int) -> None:
        parent = self._vc(tid)
        child = VectorClock.for_thread(child_tid)
        child.join(parent)
        self.thread_vc[child_tid] = child
        self.held[child_tid] = set()
        if child_tid > self.max_tid:
            self.max_tid = child_tid
        if self.lazy_epochs:
            self._defer_epoch(tid, increment=True)
            return
        parent.increment(tid)
        self.new_epoch(tid)

    def on_join(self, tid: int, target_tid: int) -> None:
        self._vc(tid).join(self._vc(target_tid))
        if self.lazy_epochs:
            # The joiner's clock need not advance, but its same-epoch
            # bitmaps must be invalidated before the next access.
            self._defer_epoch(tid, increment=False)
            return
        self.new_epoch(tid)
        # note: the joiner's own clock need not advance; joining only
        # imports the target's history.

    # ---------------------------------------------------------------
    # checkpoint serialization
    # ---------------------------------------------------------------
    def _snapshot_runtime(self) -> dict:
        """Thread/lock clock tables in deterministic (sorted) order."""
        return {
            "thread_vc": [
                [tid, vc.as_list()] for tid, vc in sorted(self.thread_vc.items())
            ],
            "lock_vc": [
                [sid, vc.as_list()] for sid, vc in sorted(self.lock_vc.items())
            ],
            "held": [
                [tid, sorted(locks)] for tid, locks in sorted(self.held.items())
            ],
            "max_tid": self.max_tid,
            "epoch_count": self.epoch_count,
            "lazy": [
                sorted(self._lazy_pending.items()),
                self.deferred_epochs,
                bool(self.lazy_epochs),
            ],
        }

    def _restore_runtime(self, state: dict) -> None:
        self.thread_vc = {
            tid: VectorClock.from_list(c) for tid, c in state["thread_vc"]
        }
        self.lock_vc = {
            sid: VectorClock.from_list(c) for sid, c in state["lock_vc"]
        }
        self.held = {tid: set(locks) for tid, locks in state["held"]}
        self.max_tid = state["max_tid"]
        self.epoch_count = state["epoch_count"]
        # Pre-sampling-tier checkpoints lack the lazy-epoch fields.
        pending, deferred, lazy = state.get("lazy", [[], 0, False])
        self._lazy_pending = {tid: pend for tid, pend in pending}
        self.deferred_epochs = deferred
        if lazy:
            self.lazy_epochs = True

    # ---------------------------------------------------------------
    @property
    def n_threads(self) -> int:
        return self.max_tid + 1
