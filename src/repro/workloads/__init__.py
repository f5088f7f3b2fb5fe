"""Synthetic workloads modelled on the paper's 11 benchmarks.

Native PARSEC/FFmpeg/pbzip2/hmmsearch binaries are out of reach for a
pure-Python reproduction, so each module here generates a threaded
program whose *access pattern* reproduces what the paper reports for
that benchmark: spatial locality, access widths, allocation churn,
synchronization style, same-epoch behaviour and the seeded races.  The
detectors only ever see the event stream, so pattern fidelity is what
determines result fidelity.

See DESIGN.md §2 for the substitution argument and
:mod:`repro.workloads.registry` for the catalogue.
"""

from repro.workloads.base import Workload
from repro.workloads.registry import (
    all_workloads,
    build_trace,
    get_workload,
    workload_names,
)

__all__ = [
    "Workload",
    "all_workloads",
    "workload_names",
    "get_workload",
    "build_trace",
]
