"""Workload base class and shared access-pattern helpers."""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.runtime.program import GLOBAL_BASE, Program, ops
from repro.runtime.scheduler import Scheduler
from repro.runtime.trace import Trace

#: Sites at or above this id model accesses inside system libraries
#: (libc/ld/libpthread).  The paper suppresses races from those modules;
#: :func:`default_suppression` reproduces that rule.
LIBRARY_SITE_BASE = 1_000_000


def default_suppression(site: int) -> bool:
    """The paper's DRD-style suppression rule for library internals."""
    return site >= LIBRARY_SITE_BASE


@dataclass
class Workload:
    """A named synthetic benchmark.

    ``build`` returns a :class:`Program`; ``scale`` stretches the event
    count roughly linearly (1.0 is the calibrated default used by the
    benchmark harness).
    """

    name: str
    threads: int
    description: str
    build_fn: object
    #: races seeded on purpose (None = workload-dependent, see notes)
    seeded_race_sites: int = 0
    notes: str = ""

    def build(self, scale: float = 1.0, seed: int = 0) -> Program:
        """Construct the program at the given scale."""
        return self.build_fn(scale=scale, seed=seed)

    def trace(self, scale: float = 1.0, seed: int = 0) -> Trace:
        """Schedule the program into a replayable trace."""
        return Scheduler(seed=seed).run(self.build(scale=scale, seed=seed))


# ----------------------------------------------------------------------
# reusable access-pattern fragments
# ----------------------------------------------------------------------

def array_init(base: int, nbytes: int, width: int = 8, site: int = 0):
    """Zero-out style sequential initialization (paper observation 2)."""
    for off in range(0, nbytes, width):
        yield ops.write(base + off, min(width, nbytes - off), site)


def array_read(base: int, nbytes: int, width: int = 8, site: int = 0):
    """Sequential wholesale read of a buffer."""
    for off in range(0, nbytes, width):
        yield ops.read(base + off, min(width, nbytes - off), site)


def strided_update(
    base: int,
    nbytes: int,
    start: int,
    stride: int,
    width: int = 4,
    site: int = 0,
):
    """Partitioned read-modify-write sweep (each thread takes a stride)."""
    for off in range(start * width, nbytes - width + 1, stride * width):
        yield ops.read(base + off, width, site)
        yield ops.write(base + off, width, site + 1)


class Region:
    """Bump-allocates non-overlapping global address regions so workload
    data structures never collide by accident."""

    def __init__(self, base: int = GLOBAL_BASE):
        self._next = base

    def take(self, nbytes: int, align: int = 64) -> int:
        addr = (self._next + align - 1) // align * align
        self._next = addr + nbytes
        return addr


def make_rng(seed: int, salt: str) -> random.Random:
    """A deterministic per-purpose RNG (so adding a draw in one place
    doesn't perturb every other pattern)."""
    return random.Random(f"{seed}:{salt}")
