"""Conformance: batched dispatch must be invisible in results.

Every registry detector and ``sampler:inner`` compositions replay the
golden corpus and every embedded workload (one seed; the corpus
already holds three of those traces) twice — once per access event,
once through the coalesced feed — and must produce identical race
reports (same races, same order, same attribution: site, threads,
unit) and identical full ``statistics()``; on the corpus, so must
guards with no budget.  The granularity family additionally replays
five schedule seeds per workload, and three sweep-shaped workloads at
a larger scale.  This is the enforcement side of the exactness
arguments in ``repro/perf/batch.py`` and the detector batch overrides:
a detector without an exact ranged shortcut sees a run as its member
accesses.

A guard with a shadow budget is not covered: it checks the budget at
callback boundaries, and a coalesced run is one callback.
"""

import os

import pytest

from repro.detectors.guards import guard_detector
from repro.detectors.registry import available_detectors, create_detector
from repro.runtime.trace import Trace
from repro.runtime.vm import replay
from repro.testing.golden import default_corpus_dir, load_manifest
from repro.workloads.base import default_suppression
from repro.workloads.registry import get_workload, workload_names

DETECTORS = ("fasttrack-byte", "fasttrack-word", "fasttrack-dynamic")
SEEDS = range(5)
SCALE = 0.2

#: Every registry name plus sampler compositions over the two
#: detectors with ranged batch overrides.
ALL_DETECTORS = tuple(available_detectors()) + (
    "literace:dynamic",
    "pacer:fasttrack-word",
)

#: Wrapped in a guard with no budget on the golden corpus: the
#: granularity family, and a sampler between the guard and dynamic.
GUARDED = DETECTORS + ("literace:dynamic",)

MANIFEST = load_manifest()
GOLDEN = sorted(MANIFEST)

#: The full-trace statistics sweep runs at one seed; a workload whose
#: trace at that seed and scale is a full golden entry is replayed by
#: the corpus test instead of twice.
SEED = 1
IN_CORPUS = {
    r["workload"]
    for r in MANIFEST.values()
    if not r["shrunk"] and r["scale"] == SCALE and r["seed"] == SEED
}


def _golden(name):
    return Trace.load(os.path.join(default_corpus_dir(), f"{name}.npz"))


def _race_keys(result):
    return [
        (r.addr, r.kind, r.tid, r.site, r.prev_tid, r.prev_site, r.unit)
        for r in result.races
    ]


def _assert_conforms(trace, detector, make=create_detector):
    plain = replay(trace, make(detector, suppress=default_suppression))
    batched = replay(
        trace, make(detector, suppress=default_suppression), batched=True
    )
    assert _race_keys(plain) == _race_keys(batched)
    assert plain.stats == batched.stats
    assert batched.dispatched <= plain.dispatched
    assert batched.events == plain.events


@pytest.mark.parametrize("detector", DETECTORS)
@pytest.mark.parametrize("name", GOLDEN)
def test_golden_corpus_conforms(name, detector):
    _assert_conforms(_golden(name), detector)


@pytest.mark.parametrize("detector", DETECTORS)
@pytest.mark.parametrize("workload", sorted(workload_names()))
def test_embedded_workloads_conform(workload, detector):
    w = get_workload(workload)
    for seed in SEEDS:
        _assert_conforms(w.trace(scale=SCALE, seed=seed), detector)


@pytest.mark.parametrize("detector", DETECTORS)
@pytest.mark.parametrize("workload", ("streamcluster", "pbzip2", "facesim"))
def test_sweep_workloads_conform_at_larger_scale(workload, detector):
    """The two workloads whose sequential sweeps coalesce most, plus
    facesim as a low-compression control, at scale 0.3 (seed 1)."""
    trace = get_workload(workload).trace(scale=0.3, seed=1)
    _assert_conforms(trace, detector)


# ----------------------------------------------------------------------
# every registry detector
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", GOLDEN)
def test_golden_corpus_statistics_conform(name):
    trace = _golden(name)
    for detector in ALL_DETECTORS:
        _assert_conforms(trace, detector)
    for detector in GUARDED:
        _assert_conforms(trace, detector, make=guard_detector)


@pytest.mark.parametrize(
    "workload", sorted(set(workload_names()) - IN_CORPUS)
)
def test_embedded_workloads_statistics_conform(workload):
    trace = get_workload(workload).trace(scale=SCALE, seed=SEED)
    for detector in ALL_DETECTORS:
        _assert_conforms(trace, detector)


def test_every_registry_detector_and_workload_is_covered():
    assert set(available_detectors()) <= set(ALL_DETECTORS)
    assert any(":" in name for name in ALL_DETECTORS)
    assert IN_CORPUS and IN_CORPUS <= set(workload_names())
