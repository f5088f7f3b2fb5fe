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
    """Every callback takes a little wall time, spent with the detector
    the dispatch started on."""

    def _call(self, op, *args):
        time.sleep(0.0002)
        super()._call(op, *args)


@pytest.fixture
def slow_factory():
    """A daemon ``detector_factory`` whose detectors are slow enough
    that a quiesce lands in the middle of a queued item."""
    return lambda name: _Heavy(create_detector(name))
