"""Shared thread-safe monotonic-deadline watchdog.

A single daemon monitor thread tracks any number of :class:`Deadline`
handles against ``time.monotonic()``.  Unlike SIGALRM it works off the
main thread, where the multi-tenant server runs its tenant dispatches.

A deadline is *cooperative*: expiry flips a flag (and optionally fires
an ``on_expire`` callback from the monitor thread); the guarded code
checks :meth:`Deadline.expired` at its own safe points.  The server
daemon turns the callback into an event-loop wakeup that abandons the
wedged executor slice.

Monotonic time is deliberate: wall-clock steps (NTP, suspend/resume)
must neither fire a watchdog early nor park it forever.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Callable, List, Optional

__all__ = ["Deadline", "MonotonicWatchdog", "shared_watchdog"]


class Deadline:
    """One armed timeout.  Thread-safe; reusable never — arm a new one."""

    __slots__ = ("_when", "_on_expire", "_lock", "_expired", "_cancelled", "_seq")

    def __init__(
        self, when: float, on_expire: Optional[Callable[[], None]], seq: int
    ):
        self._when = when
        self._on_expire = on_expire
        self._lock = threading.Lock()
        self._expired = False
        self._cancelled = False
        self._seq = seq

    @property
    def expired(self) -> bool:
        """True once the monitor has fired this deadline."""
        with self._lock:
            return self._expired

    @property
    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    def remaining(self) -> float:
        """Seconds until expiry (negative once due; meaningless after
        :meth:`cancel`)."""
        return self._when - time.monotonic()

    def cancel(self) -> bool:
        """Disarm.  Returns False when the deadline already fired — the
        caller lost the race and must treat the work as expired."""
        with self._lock:
            if self._expired:
                return False
            self._cancelled = True
            return True

    # -- monitor side ---------------------------------------------------
    def _fire(self) -> Optional[Callable[[], None]]:
        """Mark expired; return the callback to run (monitor thread)."""
        with self._lock:
            if self._cancelled or self._expired:
                return None
            self._expired = True
            return self._on_expire


class MonotonicWatchdog:
    """A heap of deadlines serviced by one lazy daemon thread.

    ``arm`` is O(log n); cancellation is O(1) (cancelled entries are
    dropped lazily when they surface at the heap top).  Callbacks run on
    the monitor thread and must be quick and non-blocking; exceptions
    they raise are swallowed so one bad callback cannot kill the shared
    monitor.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._heap: List[tuple] = []  # (when, seq, Deadline)
        self._seq = itertools.count()
        self._thread: Optional[threading.Thread] = None

    def arm(
        self,
        seconds: float,
        on_expire: Optional[Callable[[], None]] = None,
    ) -> Deadline:
        """Arm a deadline ``seconds`` from now."""
        if seconds <= 0:
            raise ValueError(f"watchdog seconds must be > 0, got {seconds}")
        seq = next(self._seq)
        handle = Deadline(time.monotonic() + seconds, on_expire, seq)
        with self._cond:
            heapq.heappush(self._heap, (handle._when, seq, handle))
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._monitor, name="repro-watchdog", daemon=True
                )
                self._thread.start()
            self._cond.notify()
        return handle

    @property
    def pending(self) -> int:
        """Armed-and-unfired entries still on the heap (cancelled ones
        included until they surface — a size hint, not an exact count)."""
        with self._lock:
            return len(self._heap)

    def _monitor(self) -> None:
        while True:
            fire: List[Deadline] = []
            with self._cond:
                while True:
                    now = time.monotonic()
                    while self._heap and (
                        self._heap[0][2].cancelled
                        or self._heap[0][0] <= now
                    ):
                        _w, _s, handle = heapq.heappop(self._heap)
                        if not handle.cancelled:
                            fire.append(handle)
                    if fire or not self._heap:
                        break
                    self._cond.wait(timeout=self._heap[0][0] - now)
                if not fire and not self._heap:
                    # Park until the next arm() notifies; the thread
                    # stays alive so arm() stays cheap.
                    self._cond.wait()
                    continue
            for handle in fire:
                callback = handle._fire()
                if callback is not None:
                    try:
                        callback()
                    except Exception:  # noqa: BLE001 - isolate callbacks
                        pass


_SHARED: Optional[MonotonicWatchdog] = None
_SHARED_LOCK = threading.Lock()


def shared_watchdog() -> MonotonicWatchdog:
    """The process-wide watchdog (one monitor thread for everyone)."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            _SHARED = MonotonicWatchdog()
        return _SHARED
