"""Analysis & reproduction harness.

* :mod:`repro.analysis.metrics` — run (workload, detector) pairs and
  collect the paper's measures: slowdown, modeled memory overhead,
  same-epoch percentage, vector-clock counts, race counts.
* :mod:`repro.analysis.tables` — regenerate Tables 1-6 from those runs.
* :mod:`repro.analysis.report` — human-readable race reports with the
  paper's library-suppression rules.
* :mod:`repro.analysis.hbgraph` — the happens-before graph oracle
  (needs networkx).

The package imports none of its submodules: import the one you need,
so that a command pays only for what it runs.
"""
