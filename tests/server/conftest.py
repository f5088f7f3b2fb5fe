"""Fixtures shared by the service tests."""

import time

import pytest

from repro.detectors.base import DetectorWrapper
from repro.detectors.registry import create_detector
from repro.runtime.vm import dispatch_event


@pytest.fixture
def local_baseline():
    """The uninterrupted local twin of a service session: ``events``
    through a fresh ``detector`` in process, as the ``{"races",
    "stats"}`` body a tenant's RESULT must equal byte for byte."""

    def run(events, detector="fasttrack-byte"):
        det = create_detector(detector)
        for ev in events:
            dispatch_event(det, ev)
        det.finish()
        return {
            "races": [r.as_list() for r in det.races],
            "stats": det.statistics(),
        }

    return run


class _Heavy(DetectorWrapper):
    """Every callback takes ``delay`` seconds of wall time, spent with
    the detector the dispatch started on."""

    def __init__(self, inner, delay):
        super().__init__(inner)
        self.delay = delay

    def _call(self, op, *args):
        time.sleep(self.delay)
        super()._call(op, *args)


@pytest.fixture
def slow_factory():
    """``slow_factory(delay)`` is a daemon ``detector_factory`` whose
    detectors spend ``delay`` seconds in every callback: slow enough
    that a quiesce lands in the middle of a queued item, or that a
    flood outruns dispatch."""
    return lambda delay=0.0002: lambda name: _Heavy(create_detector(name), delay)
