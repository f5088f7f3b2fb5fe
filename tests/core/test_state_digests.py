"""The dynamic detector's whole state on the golden corpus is pinned.

``golden verify`` pins races and integer counters; this pins
everything ``snapshot_state()`` holds (groups, index, bitmaps, read
clocks, memory accounting), as the sha256 of its canonical JSON after
replaying each corpus entry and two scale-0.3 workload traces whose
read paths the corpus exercises too lightly (canneal's scattered reads
of shared groups, streamcluster's read-shared sweeps).  Batched and
unbatched replay must both reach the recorded state, so a faster
access path has to leave the detector byte-for-byte where the old one
did.  The digests were recorded when checkpoints stored one
``[slot, record]`` pair per occupied shadow slot; the run encoding is
expanded back to that form before hashing, so the pin covers the run
encoder too.
"""

import hashlib
import os

import pytest

from repro.detectors.registry import create_detector
from repro.runtime.trace import Trace
from repro.runtime.vm import replay
from repro.server.protocol import dumps_canonical
from repro.testing.golden import default_corpus_dir, load_manifest
from repro.workloads.base import default_suppression
from repro.workloads.registry import build_trace

#: sha256 of ``dumps_canonical(snapshot_state())``, runs expanded, of
#: ``fasttrack-dynamic`` after replaying each golden entry (with the
#: workload suppression, as ``golden verify`` does); batched and
#: unbatched replay gave the same digest when these were recorded.
STATE_DIGESTS = {
    "full-ffmpeg": (
        "dcfcb46fa59e15e7261e07d703abffb7"
        "8686cb3c7e84983e8335f1848f29be82"
    ),
    "full-hmmsearch": (
        "4d447688c75221f805c590cb903eb407"
        "7bc3d251859e37dbc138d507a3f4ab90"
    ),
    "full-pbzip2": (
        "e37b3bfe50a2daee16b9d2755cbf02b4"
        "e7041b14e666b70a14d4f3d6b3ff0e1b"
    ),
    "shrunk-canneal": (
        "6a99d595d4e45f2bb985808c16e53fc0"
        "9750f7e289e7b394a116964b3de15d71"
    ),
    "shrunk-ferret": (
        "2a536d07947b54bcf9f96e07328e5ffc"
        "8132c7e7451fed0ce3821d5d05ce52fa"
    ),
    "shrunk-ffmpeg": (
        "5fef2fc6f14cb4963f1bce668c33b797"
        "a17bbf77ab3d0ec7eb4364e1ab8fc046"
    ),
    "shrunk-fluidanimate": (
        "3b97c66d54dbd49f97fcabb5f09387c4"
        "0ca966b8f1222f76860622d8a17b843b"
    ),
    "shrunk-hmmsearch": (
        "dce648bad6a23030e47c71d92269de48"
        "f20b1ea3f48c232b1132550ccc01d888"
    ),
    "shrunk-raytrace": (
        "f151cca950f53d8b88ab433e45413717"
        "8c74db66af5aee5711be28e7ecb4eb96"
    ),
    "shrunk-streamcluster": (
        "c9304c62ab565094b35dc404ee39f391"
        "d722e2c51d514670b697b272d60a2124"
    ),
    "shrunk-x264": (
        "83f3584c2fb7efc9a5014c77da40fc22"
        "e0948b7c76bbfcc4279f27f318388bb6"
    ),
}

#: The same for ``build_trace(workload, scale=0.3, seed=1)``.
WORKLOAD_STATE_DIGESTS = {
    "canneal": (
        "486450ce01f74f1ad9b86d4f31234775"
        "948a1936c53baed4be348cd0750ad6c1"
    ),
    "streamcluster": (
        "1a22d0ef55f1a8a0bb21e2e6042f33bc"
        "90a0ed1d9e9f9c456bc9d9c3b2050820"
    ),
}


def _per_slot(table):
    """A shadow-table snapshot with every ``[first_slot, length,
    record]`` run expanded to one ``[slot, record]`` pair per slot."""
    buckets = []
    for key, full, runs in table["buckets"]:
        slots = [[i, rec] for a, n, rec in runs for i in range(a, a + n)]
        buckets.append([key, full, slots])
    return dict(table, buckets=buckets)


def _state_digest(trace, batched):
    det = create_detector("fasttrack-dynamic", suppress=default_suppression)
    replay(trace, det, batched=batched)
    state = det.snapshot_state()
    for manager in ("wg", "rg"):
        state[manager]["table"] = _per_slot(state[manager]["table"])
    return hashlib.sha256(dumps_canonical(state)).hexdigest()


def test_every_golden_entry_is_pinned():
    assert sorted(load_manifest()) == sorted(STATE_DIGESTS)


@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
def test_dynamic_state_matches_recorded_digest(name, batched):
    trace = Trace.load(os.path.join(default_corpus_dir(), f"{name}.npz"))
    assert _state_digest(trace, batched) == STATE_DIGESTS[name]


@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("workload", sorted(WORKLOAD_STATE_DIGESTS))
def test_dynamic_state_on_workloads_matches_recorded_digest(workload, batched):
    trace = build_trace(workload, scale=0.3, seed=1)
    assert _state_digest(trace, batched) == WORKLOAD_STATE_DIGESTS[workload]
