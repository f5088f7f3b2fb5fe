"""Offline analysis: time ``replay`` over traces of one workload.

Every call goes through the program's public entrypoints
(``Workload.trace``, ``Trace``, ``replay``, ``create_detector``,
``coalesce_events``, ``statistics()``).  The timed region is the whole
call as a user would make it, including the fresh ``Trace`` (so a
batched call pays for coalescing) and the detector's ``finish``.
"""

from __future__ import annotations

import gc
import math
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro.detectors.registry import create_detector
from repro.perf.batch import coalesce_events
from repro.runtime.scheduler import Scheduler
from repro.runtime.trace import Trace
from repro.runtime.vm import replay
from repro.workloads.base import default_suppression
from repro.workloads.registry import get_workload

from spans import Tracer, median

DYNAMIC = "fasttrack-dynamic"
WORD = "fasttrack-word"

#: detector callback -> the per-layer bucket its time is summed into
CALLBACK_KINDS = {
    "on_read": "read",
    "on_write": "write",
    "on_read_batch": "read_batch",
    "on_write_batch": "write_batch",
    "on_acquire": "sync",
    "on_release": "sync",
    "on_fork": "sync",
    "on_join": "sync",
    "on_alloc": "heap",
    "on_free": "heap",
}
KINDS = ("read", "write", "read_batch", "write_batch", "sync", "heap", "finish")


class DetectorProxy:
    """Wraps a detector and times its callbacks, summed per callback
    kind.  Everything else (``races``, ``statistics()``, checkpoint
    state) is forwarded to the wrapped detector unchanged."""

    def __init__(self, inner, clock=time.perf_counter):
        self._inner = inner
        self._clock = clock
        self.time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        for meth, kind in CALLBACK_KINDS.items():
            setattr(self, meth, self._timed(getattr(inner, meth), kind))
        self.finish = self._timed(inner.finish, "finish")

    def _timed(self, fn, kind):
        clock, spent, calls = self._clock, self.time, self.calls

        def call(*args):
            t0 = clock()
            fn(*args)
            spent[kind] += clock() - t0
            calls[kind] += 1

        return call

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def emit(self, tracer: Tracer, start: float, prefix: str = "detector") -> None:
        """Record one span per callback kind under the open span and
        start a new tally."""
        for kind in KINDS:
            if self.calls.get(kind):
                tracer.record(f"{prefix}.{kind}", start, self.time[kind])
                tracer.count(f"{prefix}.{kind}_calls", self.calls[kind])
        self.time.clear()
        self.calls.clear()


#: Statistics the repo does not pin across batched and unbatched
#: dispatch (its conformance suite pins the race reports).  The dynamic
#: detector samples ``avg_sharing`` at the moment its clock count
#: peaks, and a coalesced feed can reach an equal peak at another
#: moment: pbzip2 at scale 3, seed 5 gives 1358.24 batched and 1353.95
#: unbatched.  Races and every other statistic must match.
UNPINNED_UNDER_BATCHING = ("avg_sharing",)


def canonical(races, stats, skip=()) -> dict:
    """What two equivalent runs must agree on: the race reports and the
    detector statistics (less the ``skip`` keys)."""
    return {
        "races": [r.as_list() for r in races],
        "stats": {k: v for k, v in stats.items() if k not in skip},
    }


def build_trace(workload: str, scale: float, seed: int) -> Trace:
    return get_workload(workload).trace(scale=scale, seed=seed)


def setup_probe(workload: str, scale: float, seed: int):
    """Time one ``Workload.trace``; returns (seconds, trace)."""
    gc.collect()
    t0 = time.perf_counter()
    trace = build_trace(workload, scale, seed)
    return time.perf_counter() - t0, trace


def _noop(_ev) -> None:
    return None


def reference_loop(events: List[tuple]) -> float:
    """One no-op call per event: the fixed cost any per-event loop pays."""
    noop = _noop
    t0 = time.perf_counter()
    for ev in events:
        noop(ev)
    return time.perf_counter() - t0


def analyze(events: List[tuple], detector: str, batched: bool):
    """Time one whole analysis call; returns (seconds, ReplayResult)."""
    gc.collect()
    t0 = time.perf_counter()
    det = create_detector(detector, suppress=default_suppression)
    result = replay(Trace(events), det, batched=batched)
    return time.perf_counter() - t0, result


#: one round: (metric key, detector, batched)
ROUND = (("analyze", DYNAMIC, True), ("unbatched", DYNAMIC, False), ("word", WORD, True))


class OfflineRun:
    """Analysis rounds over a few traces of one workload, with the
    output check.

    A round takes the next trace and times dynamic batched, dynamic
    unbatched and word batched calls on it, with two reference loops
    before and after each.  A call's slowdown is its time over the
    median of the four loops around it, which cancels the drift of the
    machine's speed.  Every batched result is compared with the
    unbatched result of the same detector on the same trace.
    """

    def __init__(self, traces: List[List[tuple]]):
        self.traces = traces
        self.times: Dict[str, List[float]] = {k: [] for k, _d, _b in ROUND}
        self.slowdowns: Dict[str, List[float]] = {k: [] for k, _d, _b in ROUND}
        self.ref_ns: List[float] = []  # reference loop, per event
        self.attempted = 0
        self.failures: List[str] = []
        #: per trace: the dynamic detector's statistics
        self.dynamic_stats: Dict[int, dict] = {}
        self._word_results: Dict[int, List[dict]] = {}

    @property
    def rounds(self) -> int:
        return len(self.times["analyze"])

    def _check(self, label: str, got: dict, want: dict) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{label}: batched output differs from unbatched")

    def round(self) -> None:
        k = self.rounds % len(self.traces)
        events = self.traces[k]
        refs = [reference_loop(events), reference_loop(events)]
        results = {}
        for key, detector, batched in ROUND:
            took, results[key] = analyze(events, detector, batched)
            after = [reference_loop(events), reference_loop(events)]
            self.times[key].append(took)
            self.slowdowns[key].append(took / median(refs[-2:] + after))
            refs += after
        self.ref_ns.append(1e9 * median(refs) / len(events))
        skip = UNPINNED_UNDER_BATCHING
        dyn, dyn_u = results["analyze"], results["unbatched"]
        self._check(DYNAMIC, canonical(dyn.races, dyn.stats, skip),
                    canonical(dyn_u.races, dyn_u.stats, skip))
        self.attempted += 1  # the unbatched call itself
        word = results["word"]
        self._word_results.setdefault(k, []).append(
            canonical(word.races, word.stats, skip)
        )
        self.dynamic_stats.setdefault(k, dyn_u.stats)

    def check_word(self) -> None:
        """Per trace, one unbatched word call is the reference for every
        batched one."""
        for k, results in self._word_results.items():
            _, word_u = analyze(self.traces[k], WORD, False)
            self.attempted += 1
            want = canonical(word_u.races, word_u.stats, UNPINNED_UNDER_BATCHING)
            for got in results:
                self._check(WORD, got, want)
        self._word_results = {}

    def shadow_peak(self) -> int:
        """Summed over the traces."""
        return sum(st["memory"]["total_peak"] for st in self.dynamic_stats.values())

    def _per_trace(self, values: List[float]) -> float:
        """Geometric mean over the traces of each trace's median."""
        k = len(self.traces)
        meds = [median(values[i::k]) for i in range(min(k, len(values)))]
        return math.exp(sum(math.log(m) for m in meds) / len(meds))

    def metrics(self) -> Dict[str, float]:
        """The slowdowns (end-to-end) and the absolute seconds."""
        return {
            "slowdown": self._per_trace(self.slowdowns["analyze"]),
            "slowdown_unbatched": self._per_trace(self.slowdowns["unbatched"]),
            "slowdown_word": self._per_trace(self.slowdowns["word"]),
            "abs.analyze_s": median(self.times["analyze"]),
            "abs.analyze_unbatched_s": median(self.times["unbatched"]),
            "abs.analyze_word_s": median(self.times["word"]),
            "abs.ref_ns_per_event": median(self.ref_ns),
        }


# ----------------------------------------------------------------------
# traced mode
# ----------------------------------------------------------------------
def traced_setup(tracer: Tracer, workload: str, scale: float, seed: int):
    """``Workload.trace`` split into its two public halves, under spans."""
    wl = get_workload(workload)
    with tracer.span("setup", request="setup"):
        with tracer.span("workloads.build"):
            program = wl.build(scale=scale, seed=seed)
        with tracer.span("runtime.schedule"):
            trace = Scheduler(seed=seed).run(program)
    return trace


def traced_rounds(tracer: Tracer, events: List[tuple], rounds: int) -> dict:
    """Repeat the analysis round under spans; returns per-round counts
    and the slowdown of the traced dynamic batched call."""
    traced_slowdown = []
    for i in range(rounds):
        dispatched = 0
        for key, detector, batched in ROUND:
            refs = [reference_loop(events), reference_loop(events)]
            gc.collect()
            with tracer.span("offline.analyze", request=f"{i}:{key}") as s:
                det = DetectorProxy(create_detector(detector, suppress=default_suppression))
                trace = Trace(events)
                if batched:
                    with tracer.span("batch.coalesce"):
                        trace.coalesced()
                with tracer.span("vm.replay") as r:
                    result = replay(trace, det, batched=batched)
                    det.emit(tracer, r.start)
            dispatched += result.dispatched
            if key == "analyze":
                refs += [reference_loop(events), reference_loop(events)]
                traced_slowdown.append(s.duration / median(refs))
    feed = coalesce_events(events)
    return {
        "dispatched": dispatched,
        "feed_items": len(feed),
        "traced_slowdown": median(traced_slowdown),
    }


def offline_layers(tracer: Tracer, rounds: int, counts: dict, events: int,
                   untraced_slowdown: float, stats: dict) -> Dict[str, float]:
    selfs = tracer.self_times()
    out = {
        "workloads.build_s": selfs.get("workloads.build", 0.0),
        "runtime.schedule_s": selfs.get("runtime.schedule", 0.0),
        "runtime.events": events,
        "batch.coalesce_s": selfs.get("batch.coalesce", 0.0) / rounds,
        "batch.feed_items": counts["feed_items"],
        "batch.compression_pct": 100.0 * (1 - counts["feed_items"] / events),
        "vm.dispatch_self_s": selfs.get("vm.replay", 0.0) / rounds,
        "vm.dispatched": counts["dispatched"],
    }
    for kind in KINDS:
        out[f"detector.{kind}_s"] = selfs.get(f"detector.{kind}", 0.0) / rounds
        out[f"detector.{kind}_calls"] = tracer.counts.get(f"detector.{kind}_calls", 0) // rounds
    mem = stats["memory"]["peak"]
    out.update({
        "core.same_epoch_hits": stats["same_epoch_hits"],
        "core.fast_path_ratio": stats["same_epoch_hits"] / stats["total_accesses"],
        "core.groups_created": stats["groups_created"],
        "core.merges": stats["merges"],
        "core.splits": stats["splits"],
        "shadow.locations": stats["locations"],
        "shadow.hash_peak_bytes": mem["hash"],
        "shadow.bitmap_peak_bytes": mem["bitmap"],
        "clocks.max_vectors": stats["max_vectors"],
        "clocks.vc_peak_bytes": mem["vector_clock"],
        "trace.overhead_pct": 100.0 * (counts["traced_slowdown"] / untraced_slowdown - 1),
    })
    return out
