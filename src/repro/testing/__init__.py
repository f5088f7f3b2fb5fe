"""Correctness tooling: the machinery that lets detector hot paths be
refactored without being precious about existing code.

* :mod:`repro.testing.oracle` — differential conformance oracle: replay
  one trace through byte FastTrack (reference) and the
  dynamic-granularity detector (candidate), classify every divergence
  as an allowed granularity effect or a conformance bug.
* :mod:`repro.testing.shrink` — delta-debugging minimizer: reduce any
  racy or divergent trace to a minimal reproducer
  (``repro-race shrink``).
* :mod:`repro.testing.golden` — golden-trace corpus management: pinned
  traces plus expected race reports under ``tests/golden/``, with a
  deterministic regeneration tool (``repro-race golden``).
* :mod:`repro.testing.probe` — instrumented dynamic detector recording
  read-sharing provenance for miss attribution.

The package imports none of its submodules: import the one you need.
"""
