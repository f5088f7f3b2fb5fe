"""Conformance: batched dispatch must be invisible in race reports.

Replays every golden-corpus trace and every embedded workload (five
schedule seeds each) through the granularity family twice — once per
access event, once through the coalesced feed — and requires the race
reports to be byte-identical: same races, same order, same
attribution (site, threads, unit).  This is the enforcement side of
the exactness arguments in ``repro/perf/batch.py`` and the detector
batch overrides.
"""

import os

import pytest

from repro.detectors.registry import create_detector
from repro.runtime.trace import Trace
from repro.runtime.vm import replay
from repro.testing.golden import default_corpus_dir, load_manifest
from repro.workloads.base import default_suppression
from repro.workloads.registry import workload_names

DETECTORS = ("fasttrack-byte", "fasttrack-word", "fasttrack-dynamic")
SEEDS = range(5)
SCALE = 0.2

GOLDEN = sorted(load_manifest())


def _race_keys(result):
    return [
        (r.addr, r.kind, r.tid, r.site, r.prev_tid, r.prev_site, r.unit)
        for r in result.races
    ]


def _assert_conforms(trace, detector):
    plain = replay(
        trace, create_detector(detector, suppress=default_suppression)
    )
    batched = replay(
        trace,
        create_detector(detector, suppress=default_suppression),
        batched=True,
    )
    assert _race_keys(plain) == _race_keys(batched)
    assert batched.dispatched <= plain.dispatched
    assert batched.events == plain.events


@pytest.mark.parametrize("detector", DETECTORS)
@pytest.mark.parametrize("name", GOLDEN)
def test_golden_corpus_conforms(name, detector):
    trace = Trace.load(os.path.join(default_corpus_dir(), f"{name}.npz"))
    _assert_conforms(trace, detector)


@pytest.mark.parametrize("detector", DETECTORS)
@pytest.mark.parametrize("workload", sorted(workload_names()))
def test_embedded_workloads_conform(workload, detector):
    from repro.workloads.registry import get_workload

    w = get_workload(workload)
    for seed in SEEDS:
        _assert_conforms(w.trace(scale=SCALE, seed=seed), detector)


@pytest.mark.parametrize("detector", DETECTORS)
@pytest.mark.parametrize("workload", ("streamcluster", "pbzip2", "facesim"))
def test_sweep_workloads_conform_at_larger_scale(workload, detector):
    """The two workloads whose sequential sweeps coalesce most, plus
    facesim as a low-compression control, at scale 0.3 (seed 1)."""
    from repro.workloads.registry import get_workload

    trace = get_workload(workload).trace(scale=0.3, seed=1)
    _assert_conforms(trace, detector)
