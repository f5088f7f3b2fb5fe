"""In-memory span recorder and the order statistics the benchmark reports.

A span has a name, a start and end (``time.perf_counter`` seconds), the
id of the span that was open when it began (its parent) and a request
id shared by every span of one request.  Spans stay in memory and are
written out once, at the end of a run.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]
    request: Optional[str]

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """Records nested spans; ``span()`` nests under whatever is open."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = parent.request
        rec = Span(
            len(self.spans),
            name,
            self.clock(),
            None,
            parent.id if parent is not None else None,
            request,
        )
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._open.pop()

    def record(self, name: str, start: float, duration: float) -> Span:
        """Add a closed child of the innermost open span.  Used for the
        per-callback spans, which are summed per callback kind instead
        of being recorded once per event."""
        parent = self._open[-1] if self._open else None
        rec = Span(
            len(self.spans),
            name,
            start,
            start + duration,
            parent.id if parent is not None else None,
            parent.request if parent is not None else None,
        )
        self.spans.append(rec)
        return rec

    def count(self, name: str, n: int = 1) -> None:
        """Add to a work counter kept next to the spans."""
        self.counts[name] += n

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus the
        time its direct children cover.  Children of one parent run one
        after another, so their durations add up."""
        covered: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration - covered[s.id]
        return dict(out)

    def by_request(self, names: Sequence[str]) -> Dict[str, float]:
        """Summed duration of the spans named ``names``, per request."""
        wanted = set(names)
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.name in wanted:
                out[s.request] += s.duration
        return dict(out)

    def to_json(self) -> list:
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request,
            }
            for s in self.spans
        ]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.to_json(), "counts": dict(self.counts)}, fh)


@dataclass(frozen=True)
class Quantile:
    value: float
    samples: int
    beyond: int  # samples ranked above the quantile's position


def percentile(values: Sequence[float], pct: float) -> Quantile:
    """The ``pct`` percentile (linear interpolation between closest
    ranks) together with the sample count and how many samples lie
    beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return Quantile(value, len(xs), len(xs) - 1 - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
