"""Replay performance layer.

The replay loop is kept close to the per-event cost the paper's design
targets, and measured, by:

* :mod:`repro.perf.batch` — batched event dispatch: runs of
  consecutive same-thread, same-op, same-site, address-adjacent
  accesses in a trace collapse into single ranged callbacks, so the
  Python dispatch overhead (tuple unpack + method call) is paid once
  per run instead of once per access.  Detectors already accept ranged
  accesses, and ``tests/testing/test_batch_conformance.py`` pins that
  batched and unbatched replay produce byte-identical race reports.
  perfbench (``perfbench/run.py``) times both dispatch modes.
* :mod:`repro.perf.sampling` — the sampling recall grid behind
  ``repro-race sampling``: recall and analysed-access counts of every
  sampling policy × rate × inner detector over the golden corpus.
* :mod:`repro.perf.binlog` — the canonical binary trace form that
  ``Trace.digest()`` hashes and the wire protocol's EVENTS rows reuse.
"""

from repro.perf.batch import DEFAULT_BATCH_SPAN, BatchStats, coalesce_events

__all__ = [
    "DEFAULT_BATCH_SPAN",
    "BatchStats",
    "coalesce_events",
]
