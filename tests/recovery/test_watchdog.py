"""The shared monotonic-deadline watchdog."""

import threading
import time

import pytest

from repro.recovery import MonotonicWatchdog, shared_watchdog


def _wait_until(predicate, timeout=5.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestMonotonicWatchdog:
    def test_expires_and_fires_callback(self):
        wd = MonotonicWatchdog()
        fired = threading.Event()
        handle = wd.arm(0.05, on_expire=fired.set)
        assert not handle.expired
        assert fired.wait(2.0)
        assert handle.expired
        assert not handle.cancel()  # lost the race: already fired

    def test_cancel_prevents_expiry(self):
        wd = MonotonicWatchdog()
        fired = threading.Event()
        handle = wd.arm(0.08, on_expire=fired.set)
        assert handle.cancel()
        assert not fired.wait(0.3)
        assert not handle.expired
        assert handle.cancelled

    def test_many_deadlines_fire_independently(self):
        wd = MonotonicWatchdog()
        early = wd.arm(0.03)
        late = wd.arm(10.0)
        assert _wait_until(lambda: early.expired)
        assert not late.expired
        assert late.cancel()

    def test_arm_rejects_nonpositive(self):
        wd = MonotonicWatchdog()
        with pytest.raises(ValueError):
            wd.arm(0)

    def test_callback_exception_does_not_kill_monitor(self):
        wd = MonotonicWatchdog()

        def boom():
            raise RuntimeError("callback bug")

        wd.arm(0.02, on_expire=boom)
        after = wd.arm(0.05)
        assert _wait_until(lambda: after.expired)

    def test_shared_watchdog_is_singleton(self):
        assert shared_watchdog() is shared_watchdog()

    def test_remaining_counts_down(self):
        wd = MonotonicWatchdog()
        handle = wd.arm(5.0)
        assert 4.0 < handle.remaining() <= 5.0
        handle.cancel()
