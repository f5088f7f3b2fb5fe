"""Detector family.

* :mod:`repro.detectors.djit` — DJIT+ (full vector clocks per location).
* :mod:`repro.detectors.fasttrack` — FastTrack with fixed byte/word
  granularity (the paper's primary baseline).
* :mod:`repro.detectors.eraser` — the LockSet algorithm (extra baseline).
* :mod:`repro.detectors.drd` — segment-based happens-before detection in
  the RecPlay/Valgrind-DRD family (Table 6 stand-in).
* :mod:`repro.detectors.inspector` — hybrid happens-before + lockset
  shadow-history detection (Intel Inspector XE stand-in).
* :mod:`repro.detectors.sampling` — LiteRace, PACER and O(1)-samples
  sampling wrappers around any registered detector (paper §VI related
  work; ALGORITHM.md §14).

The paper's dynamic-granularity detector lives in :mod:`repro.core`.
"""

from repro.detectors.base import Detector, RaceReport, VectorClockRuntime
from repro.detectors.guards import (
    DetectorCrash,
    GuardedDetector,
    GuardStats,
    UnenforceableBudgetError,
    guard_detector,
)
from repro.detectors.djit import DjitPlusDetector
from repro.detectors.eraser import EraserDetector
from repro.detectors.fasttrack import FastTrackDetector
from repro.detectors.drd import SegmentDetector
from repro.detectors.inspector import HybridDetector
from repro.detectors.registry import available_detectors, create_detector
from repro.detectors.sampling import (
    LiteRaceDetector,
    O1SamplesDetector,
    PacerDetector,
)

__all__ = [
    "Detector",
    "RaceReport",
    "VectorClockRuntime",
    "DjitPlusDetector",
    "FastTrackDetector",
    "EraserDetector",
    "SegmentDetector",
    "HybridDetector",
    "LiteRaceDetector",
    "PacerDetector",
    "O1SamplesDetector",
    "DetectorCrash",
    "GuardedDetector",
    "GuardStats",
    "UnenforceableBudgetError",
    "guard_detector",
    "create_detector",
    "available_detectors",
]
