"""Replay performance layer.

The replay loop is kept close to the per-event cost the paper's design
targets, and measured, by:

* :mod:`repro.perf.batch` — batched event dispatch: runs of
  consecutive same-thread, same-op, same-site, address-adjacent
  accesses in a trace collapse into single ranged callbacks, so the
  Python dispatch overhead (tuple unpack + method call) is paid once
  per run instead of once per access.  Detectors already accept ranged
  accesses, and the golden-corpus conformance suite pins that batched
  and unbatched replay produce byte-identical race reports.
* :mod:`repro.perf.bench` — the perf-regression harness behind
  ``repro-race bench``: replays the embedded workloads across the
  granularity family, measures events/sec and slowdown vs bare replay,
  and writes ``BENCH_slowdown.json`` so every PR has a perf trajectory
  to compare against (plus an append-only ``BENCH_history.jsonl`` run
  log).
* :mod:`repro.perf.binlog` — the canonical binary trace form that
  ``Trace.digest()`` hashes and the wire protocol's EVENTS rows reuse.
"""

from repro.perf.batch import DEFAULT_BATCH_SPAN, BatchStats, coalesce_events

__all__ = [
    "DEFAULT_BATCH_SPAN",
    "BatchStats",
    "coalesce_events",
    "run_bench",
]


def run_bench(*args, **kwargs):
    """Lazy re-export of :func:`repro.perf.bench.run_bench` (the bench
    module pulls in the workload catalogue; keep plain batching imports
    light)."""
    from repro.perf.bench import run_bench as _run_bench

    return _run_bench(*args, **kwargs)
